// Incremental maintenance vs. full re-chase on the relational workload
// (§4.1 shapes). For source deltas of 0.1%, 1% and 10% (half deletions of
// existing tuples, half insertions of fresh ones) the bench measures
//   full_rechase_ms — chasing the edited source from scratch, which is what
//                     the edit/re-debug loop would pay without
//                     spider::incremental;
//   incremental_ms  — IncrementalChaser::Apply on a maintainer whose
//                     initial chase ran untimed;
// and cross-checks the two solutions relation-by-relation (cardinality)
// before reporting — full homomorphic equivalence is a test-scale check
// (the differential fuzz suite); posing a 170k-tuple instance as one
// conjunctive query is itself minutes of planner work at bench scale.
//
// The full-cache section measures what an edit costs the debugger: 100
// small deltas applied through a fresh DebugSession and, interleaved, the
// same deltas through one that first cached N routes. Route-cache
// invalidation must cost what the delta costs, not what the cache holds,
// so the full session's median apply must stay within 2x the fresh one's
// (checked at full scale).
// Emits BENCH_incremental.json (or argv[1]).
//
// Plain main(), no google-benchmark harness: each configuration is a single
// long-running measured call, and the JSON is consumed by CI.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/status.h"
#include "chase/chase.h"
#include "debugger/debug_session.h"
#include "incremental/delta_chase.h"
#include "incremental/source_delta.h"
#include "obs/obs_cli.h"
#include "workload/relational_scenario.h"
#include "workload/rng.h"

namespace spider::bench {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct DeltaRun {
  std::string label;
  size_t ops = 0;
  size_t deleted = 0;
  size_t inserted = 0;
  double full_ms = 0;
  double incremental_ms = 0;
  IncrementalStats stats;
};

/// Builds a delta of `ops` edits: the first half deletes existing tuples
/// spread across all relations, the second half inserts fresh tuples
/// (copies whose key column counts up from `fresh`, so every insert is
/// genuinely new and triggers downstream work).
SourceDelta DrawDelta(const Scenario& scenario, size_t ops, uint64_t seed,
                      int64_t fresh = 1'000'000'000) {
  const Instance& source = *scenario.source;
  const Schema& schema = scenario.mapping->source();
  Rng rng(seed);
  SourceDelta delta;
  size_t num_rels = source.NumRelations();
  for (size_t i = 0; i < ops / 2; ++i) {
    RelationId rel = static_cast<RelationId>(rng.Below(num_rels));
    if (source.NumTuples(rel) == 0) continue;
    int32_t row = static_cast<int32_t>(rng.Below(source.NumTuples(rel)));
    delta.Delete(schema.relation(rel).name(), source.tuple(rel, row));
  }
  for (size_t i = ops / 2; i < ops; ++i) {
    RelationId rel = static_cast<RelationId>(rng.Below(num_rels));
    if (source.NumTuples(rel) == 0) continue;
    int32_t row = static_cast<int32_t>(rng.Below(source.NumTuples(rel)));
    std::vector<Value> values = source.tuple(rel, row).values();
    values[0] = Value::Int(fresh + static_cast<int64_t>(i));
    delta.Insert(schema.relation(rel).name(), Tuple(std::move(values)));
  }
  return delta;
}

DeltaRun RunOne(const Scenario& scenario, const std::string& label,
                double fraction) {
  DeltaRun run;
  run.label = label;
  size_t ops = static_cast<size_t>(
      static_cast<double>(scenario.source->TotalTuples()) * fraction);
  SourceDelta delta = DrawDelta(scenario, std::max<size_t>(ops, 2),
                                /*seed=*/17);
  run.ops = delta.size();

  // Maintainer over private copies; the initial chase is setup, not
  // measured (the debug session pays it once when the scenario opens).
  Instance source = *scenario.source;
  Instance target(&scenario.mapping->target());
  std::cerr << label << ": opening (initial chase)...\n";
  IncrementalChaser chaser(scenario.mapping.get(), &source, &target);
  std::cerr << label << ": applying " << run.ops << " ops\n";

  auto start = std::chrono::steady_clock::now();
  ApplyDeltaResult result = chaser.Apply(delta);
  run.incremental_ms = MillisSince(start);
  run.deleted = result.source_deleted;
  run.inserted = result.source_inserted;
  run.stats = chaser.stats();
  const IncrementalPhaseTimes& ph = run.stats.phases;
  std::cerr << label << ": phases del=" << ph.delete_apply_ms
            << " dred=" << ph.dred_ms << " commit=" << ph.commit_ms
            << " refire=" << ph.refire_ms << " ins=" << ph.insert_apply_ms
            << " trig=" << ph.trigger_ms << " fire=" << ph.fire_ms
            << " prop=" << ph.propagate_ms << " (ms)\n";
  SPIDER_CHECK(!result.full_rechase,
               "relational workload has no egds; Apply must stay incremental");

  // The from-scratch alternative on the identical edited source.
  start = std::chrono::steady_clock::now();
  ChaseResult scratch = Chase(*scenario.mapping, source);
  run.full_ms = MillisSince(start);
  SPIDER_CHECK(scratch.outcome == ChaseOutcome::kSuccess,
               "full re-chase failed");
  // Sanity cross-check: the copy mapping is existential-free, so the two
  // solutions must agree relation-by-relation on cardinality.
  for (size_t r = 0; r < target.NumRelations(); ++r) {
    RelationId rel = static_cast<RelationId>(r);
    SPIDER_CHECK(target.NumTuples(rel) == scratch.target->NumTuples(rel),
                 "incremental and from-scratch solutions diverge on " +
                     target.schema().relation(rel).name());
  }
  return run;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct FullCacheRun {
  size_t applies = 0;
  size_t delta_ops = 0;
  size_t cached_routes = 0;        ///< Before the first apply.
  size_t cached_routes_after = 0;  ///< After the last.
  double fresh_p50_ms = 0;
  double full_p50_ms = 0;
};

/// 100 small deltas through a fresh DebugSession and, interleaved apply by
/// apply, through one that first cached `routes` distinct routes (the debug
/// loop's probes fill the cache this way). Both sessions see the same
/// deltas, drawn from the fresh session's source, so they stay identical.
/// Each session opens its own copy of the (deterministic) scenario.
FullCacheRun RunFullCache(const RelationalScenarioOptions& workload,
                          size_t routes) {
  constexpr size_t kApplies = 100;
  constexpr size_t kDeltaOps = 8;
  FullCacheRun run;
  run.applies = kApplies;
  run.delta_ops = kDeltaOps;
  std::cerr << "full-cache: opening two sessions...\n";
  DebugSession fresh(BuildRelationalScenario(workload));
  DebugSession full(BuildRelationalScenario(workload));
  const Instance& target = *full.scenario().target;
  Rng rng(/*seed=*/23);
  for (size_t draws = 0;
       full.route_cache().NumRoutes() < routes && draws < 4 * routes;
       ++draws) {
    RelationId rel =
        static_cast<RelationId>(rng.Below(target.NumRelations()));
    if (target.NumTuples(rel) == 0) continue;
    FactRef fact{Side::kTarget, rel,
                 static_cast<int32_t>(rng.Below(target.NumTuples(rel)))};
    full.RouteFor(full.debugger().RenderFactRef(fact));
  }
  run.cached_routes = full.route_cache().NumRoutes();
  std::cerr << "full-cache: cached " << run.cached_routes << " routes\n";

  std::vector<double> fresh_ms;
  std::vector<double> full_ms;
  for (size_t i = 0; i < kApplies; ++i) {
    int64_t fresh_key = 2'000'000'000 + static_cast<int64_t>(i * kDeltaOps);
    SourceDelta delta =
        DrawDelta(fresh.scenario(), kDeltaOps, /*seed=*/100 + i, fresh_key);
    // Alternate which session goes first, so host drift hits both alike.
    for (int side = 0; side < 2; ++side) {
      bool full_side = (side == 0) == (i % 2 == 0);
      DebugSession& session = full_side ? full : fresh;
      auto start = std::chrono::steady_clock::now();
      session.Apply(delta);
      (full_side ? full_ms : fresh_ms).push_back(MillisSince(start));
    }
  }
  run.cached_routes_after = full.route_cache().NumRoutes();
  run.fresh_p50_ms = Median(fresh_ms);
  run.full_p50_ms = Median(full_ms);
  return run;
}

int Run(const std::string& out_path, bool smoke) {
  RelationalScenarioOptions workload;
  workload.joins = 1;
  workload.groups = 6;
  workload.sizes.units = smoke ? 10 : 200;  // S scale, ~28k source tuples.
  Scenario scenario = BuildRelationalScenario(workload);
  std::cerr << "scenario: " << scenario.source->TotalTuples()
            << " source tuples\n";

  std::vector<DeltaRun> runs;
  runs.push_back(RunOne(scenario, "0.1%", 0.001));
  runs.push_back(RunOne(scenario, "1%", 0.01));
  runs.push_back(RunOne(scenario, "10%", 0.1));
  FullCacheRun full_cache = RunFullCache(workload, smoke ? 500 : 20000);
  double apply_ratio = full_cache.full_p50_ms / full_cache.fresh_p50_ms;
  std::cerr << "full-cache: fresh apply_p50_ms=" << full_cache.fresh_p50_ms
            << " full apply_p50_ms=" << full_cache.full_p50_ms << " ("
            << full_cache.cached_routes << " routes) ratio=" << apply_ratio
            << "\n";
  // The smoke scenario's applies take well under a millisecond, where
  // scheduler noise alone can double a median; gate at full scale only.
  SPIDER_CHECK(smoke || apply_ratio <= 2.0,
               "an apply with a full route cache costs more than 2x one with "
               "an empty cache");

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"incremental\",\n";
  out << "  \"source_tuples\": " << scenario.source->TotalTuples() << ",\n";
  out << "  \"deltas\": {\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const DeltaRun& r = runs[i];
    double speedup =
        r.incremental_ms > 0 ? r.full_ms / r.incremental_ms : 0.0;
    out << "    \"" << r.label << "\": {"
        << "\"ops\": " << r.ops << ", \"deleted\": " << r.deleted
        << ", \"inserted\": " << r.inserted
        << ", \"full_rechase_ms\": " << r.full_ms
        << ", \"incremental_ms\": " << r.incremental_ms
        << ", \"speedup\": " << speedup
        << ", \"triggers_enumerated\": " << r.stats.triggers_enumerated
        << ", \"overdeleted\": " << r.stats.overdeleted
        << ", \"rederived\": " << r.stats.rederived
        << ", \"refired\": " << r.stats.refired
        << ", \"phases_ms\": {\"delete_apply\": "
        << r.stats.phases.delete_apply_ms
        << ", \"dred\": " << r.stats.phases.dred_ms
        << ", \"commit\": " << r.stats.phases.commit_ms
        << ", \"refire\": " << r.stats.phases.refire_ms
        << ", \"insert_apply\": " << r.stats.phases.insert_apply_ms
        << ", \"trigger\": " << r.stats.phases.trigger_ms
        << ", \"fire\": " << r.stats.phases.fire_ms
        << ", \"propagate\": " << r.stats.phases.propagate_ms << "}}"
        << (i + 1 < runs.size() ? ",\n" : "\n");
    std::cerr << r.label << ": full=" << r.full_ms
              << "ms incremental=" << r.incremental_ms << "ms speedup="
              << speedup << "x\n";
  }
  out << "  },\n";
  out << "  \"full_cache_apply\": {\"applies\": " << full_cache.applies
      << ", \"delta_ops\": " << full_cache.delta_ops
      << ", \"cached_routes\": " << full_cache.cached_routes
      << ", \"cached_routes_after\": " << full_cache.cached_routes_after
      << ", \"fresh_apply_p50_ms\": " << full_cache.fresh_p50_ms
      << ", \"full_apply_p50_ms\": " << full_cache.full_p50_ms
      << ", \"ratio\": " << apply_ratio << "}\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  std::string out = "BENCH_incremental.json";
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
