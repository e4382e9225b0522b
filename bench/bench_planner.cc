// Selectivity planner (probe-aware cost model, batched execution) vs. the
// seed bound-count planner. Work counters (tuples scanned, index probes,
// levels entered) are deterministic across machines and reps; wall clock
// comes from the median-ratio rep of kWallReps interleaved before/after
// repetitions (see MeasurePair), so neither a cold-cache first rep nor a
// slow host phase can swing the committed numbers. Emits BENCH_planner.json
// (or
// argv[1]) with before/after counters and a wall_ms_ratio (after / before,
// < 1 means the planner pays for itself) for the three main drivers on the
// largest route workload of bench_common (relational, joins=1, groups=6,
// units=400):
//   all_routes — ComputeAllRoutes over 20 group-3 facts;
//   one_route  — ComputeOneRoute per selected fact;
//   chase      — the full chase of the same scenario.
// Each comparison checks the two planners agree on every semantic output
// (forest rendering, findHom successes, route found flags, chase triggers)
// before reporting the counter deltas, plus the chase invariant: its
// levels_entered must be identical under both planners (every copy tgd is
// full, so its RHS check is fused into insert-if-absent outside the
// evaluator, and levels_entered counts premise enumeration alone). A
// "cost_model" section reports this host's calibrated constants next to
// the committed defaults the engines actually plan with.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/status.h"
#include "chase/chase.h"
#include "obs/obs_cli.h"
#include "query/cost_model.h"
#include "query/eval_stats.h"
#include "query/plan_cache.h"
#include "routes/one_route.h"
#include "routes/route_forest.h"
#include "workload/relational_scenario.h"

namespace spider::bench {
namespace {

/// Timed repetitions per measurement; the reported wall_ms is the median,
/// so the first (index-warming) rep lands in the discarded tail.
constexpr int kWallReps = 5;

struct Measured {
  EvalStats eval;
  double wall_ms = 0;
};

template <typename F>
Measured Timed(const F& fn) {
  Measured m;
  auto start = std::chrono::steady_clock::now();
  m.eval = fn();
  std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  m.wall_ms = elapsed.count();
  return m;
}

/// One timed repetition: `inner` back-to-back passes of `fn`, wall divided
/// back down to per-pass. Sections whose single pass finishes in fractions
/// of a millisecond use inner > 1 so timer granularity and scheduler noise
/// cannot swamp the measurement. Counters must be pass-invariant — they
/// are deterministic functions of the plan, and this checks it — so the
/// reported counters are one pass's worth.
template <typename F>
Measured TimedPasses(const F& fn, int inner) {
  Measured m = Timed([&] {
    EvalStats stats = fn();
    for (int extra = 1; extra < inner; ++extra) {
      EvalStats again = fn();
      SPIDER_CHECK(again.tuples_scanned == stats.tuples_scanned &&
                       again.index_probes == stats.index_probes &&
                       again.levels_entered == stats.levels_entered,
                   "evaluator counters drifted across bench passes");
    }
    return stats;
  });
  m.wall_ms /= inner;
  return m;
}

/// Measures both planners over kWallReps interleaved repetitions —
/// before/after back to back within each rep, so slow phases of the host
/// hit both sides alike instead of biasing whichever mode ran second. The
/// pairing makes each rep's after/before ratio immune to host drift
/// between reps, so the rep with the MEDIAN ratio is the representative
/// measurement: its two wall times are reported as-is (one genuinely
/// measured pair, so wall_ms_ratio always equals after/before exactly).
/// `fn` takes a PlannerMode and runs one pass of the section.
template <typename F>
void MeasurePair(const F& fn, int inner, Measured* before, Measured* after,
                 double* ratio) {
  std::vector<double> before_walls, after_walls, ratios;
  for (int rep = 0; rep < kWallReps; ++rep) {
    Measured b = TimedPasses([&] { return fn(PlannerMode::kBoundCount); },
                             inner);
    Measured a = TimedPasses([&] { return fn(PlannerMode::kSelectivity); },
                             inner);
    if (rep == 0) {
      *before = b;
      *after = a;
    } else {
      SPIDER_CHECK(b.eval.tuples_scanned == before->eval.tuples_scanned &&
                       a.eval.tuples_scanned == after->eval.tuples_scanned,
                   "evaluator counters drifted across bench reps");
    }
    before_walls.push_back(b.wall_ms);
    after_walls.push_back(a.wall_ms);
    ratios.push_back(b.wall_ms <= 0 ? 0.0 : a.wall_ms / b.wall_ms);
  }
  std::vector<double> sorted_ratios = ratios;
  std::sort(sorted_ratios.begin(), sorted_ratios.end());
  double median_ratio = sorted_ratios[sorted_ratios.size() / 2];
  for (size_t rep = 0; rep < ratios.size(); ++rep) {
    if (ratios[rep] == median_ratio) {
      before->wall_ms = before_walls[rep];
      after->wall_ms = after_walls[rep];
      break;
    }
  }
  *ratio = median_ratio;
}

void AppendCounters(std::ostream& os, const std::string& name,
                    const Measured& m) {
  os << "    \"" << name << "\": {\"tuples_scanned\": " << m.eval.tuples_scanned
     << ", \"index_probes\": " << m.eval.index_probes
     << ", \"point_lookups\": " << m.eval.point_lookups
     << ", \"levels_entered\": " << m.eval.levels_entered
     << ", \"plans_built\": " << m.eval.plans_built
     << ", \"plan_cache_hits\": " << m.eval.plan_cache_hits
     << ", \"wall_ms\": " << m.wall_ms << "}";
}

void AppendSection(std::ostream& os, const std::string& name,
                   const Measured& before, const Measured& after,
                   double wall_ratio) {
  double reduction =
      before.eval.tuples_scanned == 0
          ? 0.0
          : 1.0 - static_cast<double>(after.eval.tuples_scanned) /
                      static_cast<double>(before.eval.tuples_scanned);
  os << "  \"" << name << "\": {\n";
  AppendCounters(os, "before", before);
  os << ",\n";
  AppendCounters(os, "after", after);
  os << ",\n    \"tuples_scanned_reduction\": " << reduction
     << ",\n    \"wall_ms_ratio\": " << wall_ratio << "\n  }";
}

int Run(const std::string& out_path, bool smoke) {
  RelationalScenarioOptions workload;
  workload.joins = 1;
  workload.groups = 6;
  workload.sizes.units = smoke ? 10 : 400;  // M scale: J ~6x the source.
  Scenario scenario = BuildRelationalScenario(workload);
  ChaseScenario(&scenario);
  std::cerr << "scenario: " << scenario.source->TotalTuples()
            << " source tuples, " << scenario.target->TotalTuples()
            << " target tuples\n";
  std::vector<FactRef> selected = SelectGroupFacts(
      scenario, /*group=*/3, /*count=*/smoke ? 5 : 20, /*seed=*/7);

  auto route_options = [](PlannerMode planner) {
    RouteOptions options;
    options.eval.planner = planner;
    return options;
  };

  // --- ComputeAllRoutes.
  std::string forest_rendering;
  uint64_t forest_successes = 0;
  auto run_forest = [&](PlannerMode planner) {
    RouteForest forest =
        ComputeAllRoutes(*scenario.mapping, *scenario.source, *scenario.target,
                         selected, route_options(planner));
    std::string rendering = forest.ToString();
    uint64_t successes = forest.stats().findhom_successes;
    if (forest_rendering.empty()) {
      forest_rendering = rendering;
      forest_successes = successes;
    } else {
      SPIDER_CHECK(rendering == forest_rendering,
                   "planners disagree on the route forest");
      SPIDER_CHECK(successes == forest_successes,
                   "planners disagree on findHom successes");
    }
    return forest.stats().eval;
  };
  Measured forest_before, forest_after;
  double forest_ratio = 0;
  MeasurePair(run_forest, /*inner=*/4, &forest_before, &forest_after,
              &forest_ratio);

  // --- ComputeOneRoute, one probe per selected fact.
  size_t one_route_steps = 0;
  auto run_one_route = [&](PlannerMode planner) {
    size_t found = 0;
    size_t steps = 0;
    EvalStats total;
    // One plan memo across the per-fact probes, the way a debug session
    // reuses its session-level cache over repeated one-route requests.
    PlanCache session_plans;
    RouteOptions options = route_options(planner);
    options.eval.plan_cache = &session_plans;
    for (const FactRef& fact : selected) {
      OneRouteResult result =
          ComputeOneRoute(*scenario.mapping, *scenario.source,
                          *scenario.target, {fact}, options);
      if (result.found) ++found;
      steps += result.route.size();
      total += result.stats.eval;
    }
    SPIDER_CHECK(found == selected.size(),
                 "one_route failed on a chase-produced fact");
    if (one_route_steps == 0) {
      one_route_steps = steps;
    } else {
      SPIDER_CHECK(steps == one_route_steps,
                   "planners disagree on one_route steps");
    }
    return total;
  };
  Measured one_before, one_after;
  double one_ratio = 0;
  MeasurePair(run_one_route, /*inner=*/32, &one_before, &one_after,
              &one_ratio);
  std::cerr << "one_route steps=" << one_route_steps << "\n";

  // --- Chase.
  size_t chase_triggers = 0;
  auto run_chase = [&](PlannerMode planner) {
    ChaseOptions options;
    options.eval.planner = planner;
    ChaseResult result = Chase(*scenario.mapping, *scenario.source, options);
    SPIDER_CHECK(result.outcome == ChaseOutcome::kSuccess, "chase failed");
    if (chase_triggers == 0) {
      chase_triggers = result.stats.st_triggers;
    } else {
      SPIDER_CHECK(result.stats.st_triggers == chase_triggers,
                   "planners disagree on chase triggers");
    }
    return result.stats.eval;
  };
  Measured chase_before, chase_after;
  double chase_ratio = 0;
  MeasurePair(run_chase, /*inner=*/1, &chase_before, &chase_after,
              &chase_ratio);
  // Every copy tgd is full, and a full tgd's RHS check is fused into
  // insert-if-absent: it never enters the evaluator. So levels_entered
  // counts premise enumeration alone, where both planners enter the same
  // levels on these two-atom copy premises. A drift here means a planner
  // changed how a premise is joined.
  SPIDER_CHECK(
      chase_before.eval.levels_entered == chase_after.eval.levels_entered,
      "chase levels_entered drifted between planners");

  // This host's measured cost ratios, reported next to the committed table
  // the engines actually plan with.
  CalibrationResult calibration =
      CalibrateCostModel(/*rows=*/smoke ? 512 : 4096, /*repeats=*/kWallReps);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n";
  out << "  \"workload\": {\"scenario\": \"relational\", \"joins\": 1, "
         "\"groups\": 6, \"units\": "
      << workload.sizes.units << ", \"source_tuples\": "
      << scenario.source->TotalTuples()
      << ", \"target_tuples\": " << scenario.target->TotalTuples()
      << ", \"selected_facts\": " << selected.size() << "},\n";
  out << "  \"cost_model\": {\"version\": " << CostModel::kVersion
      << ", \"default\": {\"scan_cost\": " << CostModel::Default().scan_cost
      << ", \"probe_cost\": " << CostModel::Default().probe_cost
      << ", \"lookup_cost\": " << CostModel::Default().lookup_cost
      << "}, \"calibrated\": {\"scan_ns\": " << calibration.scan_ns
      << ", \"probe_ns\": " << calibration.probe_ns
      << ", \"lookup_ns\": " << calibration.lookup_ns
      << ", \"probe_cost\": " << calibration.model.probe_cost
      << ", \"lookup_cost\": " << calibration.model.lookup_cost << "}},\n";
  AppendSection(out, "all_routes", forest_before, forest_after,
                forest_ratio);
  out << ",\n";
  AppendSection(out, "one_route", one_before, one_after, one_ratio);
  out << ",\n";
  AppendSection(out, "chase", chase_before, chase_after, chase_ratio);
  out << "\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  std::string out = "BENCH_planner.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (spider::obs::HandleObsFlag(arg)) continue;
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    out = arg;
  }
  int status = spider::bench::Run(out, smoke);
  spider::obs::FlushObsOutputs();
  return status;
}
