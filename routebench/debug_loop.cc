// debug_loop: the paper's §6 edit/re-debug loop in process, from one caller.
// One DebugSession over the M scenario answers a closed loop of ~88%
// RouteFor, 10% ForestFor and 2% Apply. Probe facts are drawn at issue time
// from all ~328k live target facts, so most probes miss the session's route
// cache; each Apply is an 8-op source delta.
//
// The measured session runs its engines at the library default of one
// thread. At exec num_threads = 0 the TaskGroup lifetime race (a worker
// locks the group's mutex after Wait() returned and the group died) aborted
// or segfaulted 8 of 9 ten-second runs on a 4-core host, so no run would
// finish. The race stays visible: run.py first runs the same op stream at
// num_threads = 0 in a separate probe process (RunNprocProbe) and records
// whether it crashed, hung or finished.

#include <iostream>
#include <memory>

#include "chase/chase.h"
#include "workloads.h"

namespace routebench {

using spider::DebugSession;
using spider::FactRef;

std::vector<DebugOp> PlanDebugOps(uint64_t seed, size_t count) {
  spider::Rng rng(seed ^ 0x6465627567ULL);
  std::vector<DebugOp> plan(count);
  for (DebugOp& op : plan) {
    uint64_t roll = rng.Below(100);
    op.kind = roll < 2    ? DebugOpKind::kApply
              : roll < 12 ? DebugOpKind::kForest
                          : DebugOpKind::kRoute;
    op.draw_seed = rng.Next();
  }
  return plan;
}

spider::DebugSessionOptions DebugLoopSessionOptions(int engine_threads) {
  spider::DebugSessionOptions options;
  options.incremental.exec.num_threads = engine_threads;
  options.routes.exec.num_threads = engine_threads;
  return options;
}

size_t RunDebugOps(DebugSession* session, const std::vector<DebugOp>& plan,
                   size_t begin, size_t end, Clock::time_point deadline,
                   bool alternate_trace, int64_t* fresh_key, OpTally* tally,
                   DebugOpSamples* samples) {
  const spider::Scenario& scenario = session->scenario();
  SpanLog& log = SpanLog::Get();
  bool traced = log.enabled();
  size_t i = begin;
  for (; i < std::min(end, plan.size()) && Clock::now() < deadline; ++i) {
    if (alternate_trace) log.set_enabled((i / 32) % 2 == 0);
    const DebugOp& op = plan[i];
    spider::Rng rng(op.draw_seed);
    int64_t op_id = static_cast<int64_t>(i);
    Traced op_span("bench", "debug_op", op_id);
    ++tally->attempted;
    ++samples->ops;
    try {
      if (op.kind == DebugOpKind::kApply) {
        spider::SourceDelta delta =
            DrawDelta(*scenario.source, kDeltaOps, &rng, fresh_key);
        Clock::time_point start = Clock::now();
        {
          Traced span("debugger", "Apply", op_id);
          session->Apply(delta);
        }
        double s = SecondsSince(start);
        samples->busy_s += s;
        samples->apply_ms.Add(s * 1e3);
        continue;
      }
      FactRef ref =
          DrawLiveFact(*scenario.target, spider::Side::kTarget, &rng);
      std::string text = session->debugger().RenderFactRef(ref);
      if (op.kind == DebugOpKind::kRoute) {
        size_t misses = session->cache_stats().route_misses;
        Clock::time_point start = Clock::now();
        const spider::Route* route = nullptr;
        {
          Traced span("debugger", "RouteFor", op_id);
          route = &session->RouteFor(text);
        }
        double ms = SecondsSince(start) * 1e3;
        samples->busy_s += ms / 1e3;
        samples->route_ms.Add(ms);
        if (session->cache_stats().route_misses != misses) {
          samples->route_miss_ms.Add(ms);
        }
        if (alternate_trace) {
          (log.enabled() ? samples->route_traced_ms
                         : samples->route_untraced_ms)
              .Add(ms);
        }
        std::string why;
        if (!route->Validate(*scenario.mapping, *scenario.source,
                             *scenario.target, {ref}, &why)) {
          ++samples->check_failures;
          tally->Fail("route for " + text + " does not validate: " + why);
        }
      } else {
        Clock::time_point start = Clock::now();
        spider::RouteForest* forest = nullptr;
        {
          Traced span("debugger", "ForestFor", op_id);
          forest = &session->ForestFor(text);
        }
        double s = SecondsSince(start);
        samples->busy_s += s;
        samples->forest_ms.Add(s * 1e3);
        const spider::RouteForest::Node* root = forest->Find(ref);
        if (root == nullptr || root->branches.empty()) {
          ++samples->check_failures;
          tally->Fail("forest for " + text + " has no branch at its root");
        }
      }
    } catch (const std::exception& e) {
      tally->Fail(std::string("debug op ") + std::to_string(i) + ": " +
                  e.what());
    }
  }
  log.set_enabled(traced);
  return i;
}

int RunNprocProbe(const RunConfig& config) {
  std::vector<DebugOp> plan = PlanDebugOps(
      config.seed, static_cast<size_t>(config.seconds * 50'000) + 10'000);
  DebugSession session(BuildMScenario(config.seed),
                       DebugLoopSessionOptions(/*engine_threads=*/0));
  std::cout << "probe_opened" << std::endl;
  OpTally tally;
  DebugOpSamples samples;
  int64_t fresh_key = 1'000'000'000'000;
  Clock::time_point deadline = Deadline(config.seconds);
  size_t next = 0;
  while (next < plan.size() && Clock::now() < deadline) {
    next = RunDebugOps(&session, plan, next, next + 64, deadline, false,
                       &fresh_key, &tally, &samples);
    std::cout << "probe_ops " << next << std::endl;
  }
  std::cout << "probe_done " << next << " failed " << tally.failed
            << std::endl;
  return 0;
}

Report RunDebugLoop(const RunConfig& config) {
  Report report;
  // Set-up: the scenario plus the op plan, kSetupReps times. The last
  // kOpenReps copies of the scenario are each opened once below.
  size_t plan_size = static_cast<size_t>(config.seconds * 50'000) + 10'000;
  std::vector<spider::Scenario> scenarios;
  std::vector<DebugOp> plan;
  Samples setup_s;
  for (int k = 0; k < kSetupReps; ++k) {
    Clock::time_point start = Clock::now();
    spider::Scenario scenario = BuildMScenario(config.seed);
    plan = PlanDebugOps(config.seed, plan_size);
    setup_s.Add(SecondsSince(start));
    if (k >= kSetupReps - kOpenReps) scenarios.push_back(std::move(scenario));
  }

  spider::DebugSessionOptions options =
      DebugLoopSessionOptions(/*engine_threads=*/1);
  Samples open_s;
  std::unique_ptr<DebugSession> session;
  for (spider::Scenario& scenario : scenarios) {
    session.reset();
    Clock::time_point start = Clock::now();
    {
      Traced span("debugger", "DebugSession");
      session = std::make_unique<DebugSession>(std::move(scenario), options);
    }
    open_s.Add(SecondsSince(start));
  }

  DebugOpSamples samples;
  int64_t fresh_key = 1'000'000'000'000;
  RunDebugOps(session.get(), plan, 0, plan.size(), Deadline(config.seconds),
              config.trace, &fresh_key, &report.ops, &samples);
  report.peak_rss_mb = PeakRssMb();
  report.Check("every returned route validates; every forest has a root",
               samples.check_failures == 0);

  // After the loop the maintained target must equal a fresh chase of the
  // edited source, relation by relation.
  {
    spider::ChaseResult fresh = spider::Chase(*session->scenario().mapping,
                                              *session->scenario().source);
    bool same = fresh.outcome == spider::ChaseOutcome::kSuccess &&
                ContentDigest(*fresh.target) ==
                    ContentDigest(*session->scenario().target);
    report.Check("maintained target equals a fresh Chase() of the edited "
                 "source, relation by relation",
                 same);
  }

  double ops_per_s = samples.busy_s > 0 ? samples.ops / samples.busy_s : 0;
  report.E2e("setup_s", "s", setup_s.Median(), setup_s.size());
  report.E2e("open_s", "s", open_s.Median(), open_s.size());
  report.E2e("ops_per_s", "1/s", ops_per_s, samples.ops);
  report.Latency("route", samples.route_ms, 0.99, "p99");
  report.Latency("forest", samples.forest_ms, 0.99, "p99");
  report.Latency("apply", samples.apply_ms, 0.90, "p90");

  report.Gated("setup_s", "s", setup_s.Median(), setup_s.size());
  report.Gated("open_s", "s", open_s.Median(), open_s.size());
  report.Gated("ops_per_s", "1/s", ops_per_s, samples.ops);
  report.Gated("p50_ms", "ms", samples.route_ms.Median(),
               samples.route_ms.size());

  if (config.trace) {
    // The sweep builds its own M-scale instances; release the session first.
    spider::IncrementalStats incremental = session->chase_stats();
    spider::RouteCacheStats cache = session->cache_stats();
    session.reset();
    SweepInputs inputs;
    inputs.seed = config.seed;
    inputs.relational = true;
    inputs.loop_incremental = &incremental;
    inputs.loop_cache = &cache;
    inputs.loop_samples = &samples;
    inputs.traced_ms = samples.route_traced_ms.Median();
    inputs.untraced_ms = samples.route_untraced_ms.Median();
    SweepLayers(inputs, &report);
  }
  return report;
}

}  // namespace routebench
