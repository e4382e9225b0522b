// The layer sweep of a traced run: times calls into each module's public
// functions and reads the stats structs they return, on the workload's own
// scenario (M for exchange and debug_loop, the small serve scenario for
// serve_mix).
// Layers the workload's loop already drove (debug_loop's session, serve_mix's
// server) are read off that loop; the others are driven here with a fixed
// amount of work, so every traced run reports every layer.

#include <memory>

#include "chase/chase.h"
#include "incremental/delta_chase.h"
#include "provenance/annotated_chase.h"
#include "query/evaluator.h"
#include "routes/one_route.h"
#include "routes/route_forest.h"
#include "workloads.h"

namespace routebench {

namespace {

using spider::FactRef;
using spider::Instance;
using spider::RelationId;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Runs `fn` at least `min_reps` times and until `min_s` seconds have
/// passed, returning the per-call seconds.
template <typename F>
Samples Repeat(int min_reps, double min_s, const F& fn) {
  Samples samples;
  Clock::time_point begin = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         SecondsSince(begin) < min_s) {
    Clock::time_point start = Clock::now();
    fn();
    samples.Add(SecondsSince(start));
  }
  return samples;
}

spider::Scenario BuildScenario(const SweepInputs& in) {
  return in.relational ? BuildMScenario(in.seed) : BuildServeScenario(in.seed);
}

void ReportEval(const spider::EvalStats& eval, Report* r) {
  r->Layer("query.tuples_scanned", "count", eval.tuples_scanned);
  r->Layer("query.index_probes", "count", eval.index_probes);
  r->Layer("query.point_lookups", "count", eval.point_lookups);
  r->Layer("query.levels_entered", "count", eval.levels_entered);
  r->Layer("query.plans_built", "count", eval.plans_built);
  r->Layer("query.plan_cache_hits", "count", eval.plan_cache_hits);
}

/// Storage: replays the chased target into a fresh instance (Insert),
/// builds its indexes (WarmIndexes), looks every tuple up (FindRow) and
/// probes every column of the probe facts (Probe).
void SweepStorage(const Instance& target, const std::vector<FactRef>& facts,
                  Report* r) {
  Instance replay(&target.schema());
  size_t tuples = target.TotalTuples();
  Clock::time_point start = Clock::now();
  {
    Traced span("storage", "Insert");
    for (size_t rel = 0; rel < target.NumRelations(); ++rel) {
      for (const spider::Tuple& tuple :
           target.tuples(static_cast<RelationId>(rel))) {
        replay.Insert(static_cast<RelationId>(rel), tuple);
      }
    }
  }
  r->Layer("storage.insert_ns", "ns", SecondsSince(start) * 1e9 / tuples,
           tuples);
  start = Clock::now();
  {
    Traced span("storage", "WarmIndexes");
    replay.WarmIndexes();
  }
  r->Layer("storage.index_warm_ms", "ms", SecondsSince(start) * 1e3);
  size_t found = 0;
  start = Clock::now();
  {
    Traced span("storage", "FindRow");
    for (size_t rel = 0; rel < target.NumRelations(); ++rel) {
      for (const spider::Tuple& tuple :
           target.tuples(static_cast<RelationId>(rel))) {
        found += replay.FindRow(static_cast<RelationId>(rel), tuple) ? 1 : 0;
      }
    }
  }
  r->Layer("storage.find_row_ns", "ns", SecondsSince(start) * 1e9 / tuples,
           tuples);
  r->Check("storage replay finds every chased tuple", found == tuples);

  size_t probes = 0, hits = 0;
  Traced span("storage", "Probe");
  Samples passes = Repeat(5, 0.05, [&] {
    for (const FactRef& fact : facts) {
      const spider::Tuple& tuple = target.tuple(fact.relation, fact.row);
      for (size_t col = 0; col < tuple.values().size(); ++col) {
        hits += replay.Probe(fact.relation, static_cast<int>(col),
                             tuple.values()[col])
                    .size();
        ++probes;
      }
    }
  });
  r->Layer("storage.probe_ns", "ns", passes.Sum() * 1e9 / probes, probes);
  r->Check("every probed column finds its fact", hits >= probes);
}

/// Provenance and incremental: AnnotatedChase, the IncrementalChaser
/// constructor (annotated chase plus log import), and, when the workload
/// did not maintain a session itself, 50 deltas through the chaser.
spider::IncrementalStats SweepIncremental(const spider::Scenario& base,
                                          double chase_1t_s, bool apply_deltas,
                                          uint64_t seed, Report* r) {
  Samples annotated = Repeat(1, 0.2, [&] {
    Traced span("provenance", "AnnotatedChase");
    spider::AnnotatedChaseResult result =
        spider::AnnotatedChase(*base.mapping, *base.source);
    if (result.outcome != spider::AnnotatedChaseOutcome::kSuccess) {
      r->ops.Fail("AnnotatedChase failed: " + result.failure_message);
    }
  });
  Instance source(*base.source);
  Instance target(&base.mapping->target());
  Clock::time_point start = Clock::now();
  std::unique_ptr<spider::IncrementalChaser> chaser;
  {
    Traced span("incremental", "IncrementalChaser");
    chaser = std::make_unique<spider::IncrementalChaser>(base.mapping.get(),
                                                         &source, &target);
  }
  double open_s = SecondsSince(start);
  r->Layer("provenance.annotated_chase_s", "s", annotated.Median(),
           annotated.size());
  r->Layer("incremental.open_s", "s", open_s);
  r->Layer("incremental.import_s", "s", open_s - annotated.Median());
  r->Layer("incremental.open_vs_chase", "ratio", Ratio(open_s, chase_1t_s));
  if (apply_deltas) {
    spider::Rng rng(seed ^ 0x64656c7461ULL);
    int64_t fresh_key = 2'000'000'000'000;
    for (int i = 0; i < 50; ++i) {
      spider::SourceDelta delta = DrawDelta(source, kDeltaOps, &rng, &fresh_key);
      Traced span("incremental", "Apply", i);
      chaser->Apply(delta);
    }
  }
  return chaser->stats();
}

void ReportIncrementalStats(const spider::IncrementalStats& stats,
                            Report* r) {
  double batches = static_cast<double>(stats.batches);
  size_t n = stats.batches;
  const spider::IncrementalPhaseTimes& ph = stats.phases;
  r->Layer("incremental.delete_apply_ms", "ms", Ratio(ph.delete_apply_ms, batches), n);
  r->Layer("incremental.dred_ms", "ms", Ratio(ph.dred_ms, batches), n);
  r->Layer("incremental.commit_ms", "ms", Ratio(ph.commit_ms, batches), n);
  r->Layer("incremental.refire_ms", "ms", Ratio(ph.refire_ms, batches), n);
  r->Layer("incremental.insert_apply_ms", "ms", Ratio(ph.insert_apply_ms, batches), n);
  r->Layer("incremental.trigger_ms", "ms", Ratio(ph.trigger_ms, batches), n);
  r->Layer("incremental.fire_ms", "ms", Ratio(ph.fire_ms, batches), n);
  r->Layer("incremental.propagate_ms", "ms", Ratio(ph.propagate_ms, batches), n);
  r->Layer("incremental.triggers_enumerated", "count/apply",
           Ratio(stats.triggers_enumerated, batches), n);
  r->Layer("incremental.overdeleted", "count/apply",
           Ratio(stats.overdeleted, batches), n);
  r->Layer("incremental.rederived", "count/apply",
           Ratio(stats.rederived, batches), n);
  r->Layer("incremental.refired", "count/apply", Ratio(stats.refired, batches),
           n);
  r->Layer("incremental.rederive_frac", "ratio",
           Ratio(stats.rederived, stats.overdeleted), n);
}

/// Serve: the wire-vs-handle split and the codec, from serve_mix's loop or
/// from a short single-client stream run here.
void SweepServe(const SweepInputs& in, Report* r) {
  std::unique_ptr<ServeWorkload> own_workload;
  std::vector<std::vector<ServeOp>> own_plans;
  std::vector<ServeClientLog> own_logs;
  ServeReplay own_replay;
  std::vector<Metric> counters = in.serve_counters;
  const ServeWorkload* workload = in.serve_workload;
  const std::vector<std::vector<ServeOp>>* plans = in.serve_plans;
  const std::vector<ServeClientLog>* logs = in.serve_logs;
  ServeReplay* replay = in.serve_replay;
  double rtt_ms = in.serve_rtt_ms;
  if (workload == nullptr) {
    constexpr size_t kSessions = 4;
    own_workload = std::make_unique<ServeWorkload>(BuildServeWorkload(in.seed));
    own_plans.push_back(PlanServeOps(*own_workload, in.seed, kSessions, 4000));
    {
      ServeHost host(1);
      RunServeClients(&host, *own_workload, own_plans, kSessions, 0,
                      &own_logs, &r->ops);
      counters = ServeCounters(&host);
    }
    ReplayInProcess(*own_workload, own_plans, own_logs, false, &r->ops,
                    &own_replay);
    Samples rtt;
    for (float ms : own_logs[0].latency_ms) rtt.Add(ms);
    workload = own_workload.get();
    plans = &own_plans;
    logs = &own_logs;
    replay = &own_replay;
    rtt_ms = rtt.Median();
  }
  double handle_ms = replay->handle_ms.Median();
  r->Layer("serve.handle_ms", "ms", handle_ms, replay->handle_ms.size());
  r->Layer("serve.transport_ms", "ms", rtt_ms - handle_ms,
           replay->handle_ms.size());

  // Codec: encode the first requests of the stream, decode the kept replies.
  std::vector<spider::serve::Request> requests;
  const ServeClientLog& first = (*logs)[0];
  for (size_t i = 0; i < first.issued && requests.size() < kKeptReplyFrames;
       ++i) {
    requests.push_back(MakeServeRequest(
        *workload, (*plans)[0][i], first.sessions[i % first.sessions.size()]));
  }
  size_t request_bytes = 0;
  Samples encode = Repeat(3, 0.05, [&] {
    Traced span("serve", "EncodeRequest");
    for (const spider::serve::Request& request : requests) {
      request_bytes += spider::serve::EncodeRequest(request).size();
    }
  });
  r->Check("every request encodes", request_bytes > 0);
  r->Layer("serve.encode_ns", "ns",
           encode.Median() * 1e9 / std::max<size_t>(1, requests.size()),
           requests.size());
  size_t reply_bytes = 0;
  for (const std::string& frame : replay->reply_frames) {
    reply_bytes += frame.size();
  }
  bool decoded_all = true;
  Samples decode = Repeat(3, 0.05, [&] {
    Traced span("serve", "DecodeResponse");
    for (const std::string& frame : replay->reply_frames) {
      spider::serve::Response response;
      std::string error;
      decoded_all &= spider::serve::DecodeResponse(frame, &response, &error);
    }
  });
  r->Check("every kept reply frame decodes", decoded_all);
  size_t frames = std::max<size_t>(1, replay->reply_frames.size());
  r->Layer("serve.decode_ns", "ns", decode.Median() * 1e9 / frames, frames);
  r->Layer("serve.reply_bytes", "bytes",
           static_cast<double>(reply_bytes) / frames, frames);
  for (const Metric& m : counters) r->per_layer.push_back(m);
}

}  // namespace

void SweepLayers(const SweepInputs& in, Report* r) {
  SpanLog::Get().set_enabled(true);
  spider::Scenario base = BuildScenario(in);
  // Parallel calls run a fixed, small number of times: every one risks the
  // exec TaskGroup lifetime race (see debug_loop.cc). One-thread calls on the
  // small serve scenario repeat for min_s to get above clock resolution.
  int nproc_reps = in.relational ? 3 : 20;
  double min_s = in.relational ? 0 : 0.2;

  // Chase and exec: 1-thread and nproc-thread chases of the source.
  spider::ChaseOptions one_thread, all_threads;
  all_threads.exec.num_threads = 0;
  std::unique_ptr<Instance> chased;
  spider::ChaseStats chase_stats;
  Samples chase_1t = Repeat(nproc_reps, 0, [&] {
    Traced span("chase", "Chase_1t");
    spider::ChaseResult result =
        spider::Chase(*base.mapping, *base.source, one_thread);
    chase_stats = result.stats;
    chased = std::move(result.target);
  });
  Samples chase_nt = Repeat(nproc_reps, 0, [&] {
    Traced span("exec", "Chase_nproc");
    spider::Chase(*base.mapping, *base.source, all_threads);
  });
  r->Layer("chase.st_triggers", "count", chase_stats.st_triggers);
  r->Layer("chase.st_steps", "count", chase_stats.st_steps);
  r->Layer("chase.target_steps", "count", chase_stats.target_steps);
  r->Layer("chase.rounds", "count", chase_stats.rounds);
  r->Layer("chase.nulls_created", "count", chase_stats.nulls_created);
  r->Layer("chase.fire_frac", "ratio",
           Ratio(chase_stats.st_steps, chase_stats.st_triggers));
  r->Layer("exec.chase_speedup", "ratio",
           Ratio(chase_1t.Median(), chase_nt.Median()), chase_nt.size());

  // Probe facts: drawn from the chased target with the run's seed.
  spider::Rng rng(in.seed ^ 0x70726f6265ULL);
  std::vector<FactRef> facts;
  size_t num_facts = std::min<size_t>(200, chased->TotalTuples());
  for (size_t i = 0; i < num_facts; ++i) {
    facts.push_back(DrawLiveFact(*chased, spider::Side::kTarget, &rng));
  }

  SweepStorage(*chased, facts, r);

  // Query: every s-t tgd LHS evaluated over the source.
  Samples lhs = Repeat(1, min_s, [&] {
    Traced span("query", "EvaluateAll");
    for (spider::TgdId id : base.mapping->st_tgds()) {
      const spider::Tgd& tgd = base.mapping->tgd(id);
      spider::EvaluateAll(*base.source, tgd.lhs(),
                          spider::Binding(tgd.num_vars()));
    }
  });
  r->Layer("query.lhs_eval_ms", "ms", lhs.Median() * 1e3, lhs.size());
  r->Layer("query.plans_per_trigger", "ratio",
           Ratio(chase_stats.eval.plans_built, chase_stats.st_triggers));

  // Routes: one route and all routes per probe fact, no session cache.
  spider::RouteStats route_stats;
  Samples one_route_ms, all_routes_ms;
  for (const FactRef& fact : facts) {
    Clock::time_point start = Clock::now();
    {
      Traced span("routes", "ComputeOneRoute");
      spider::OneRouteResult result = spider::ComputeOneRoute(
          *base.mapping, *base.source, *chased, {fact});
      route_stats += result.stats;
      if (!result.found) r->ops.Fail("ComputeOneRoute found no route");
    }
    one_route_ms.Add(SecondsSince(start) * 1e3);
    start = Clock::now();
    {
      Traced span("routes", "ComputeAllRoutes");
      spider::RouteForest forest = spider::ComputeAllRoutes(
          *base.mapping, *base.source, *chased, {fact});
      route_stats += forest.stats();
    }
    all_routes_ms.Add(SecondsSince(start) * 1e3);
  }
  r->Layer("routes.findhom_calls", "count", route_stats.findhom_calls);
  r->Layer("routes.findhom_successes", "count", route_stats.findhom_successes);
  r->Layer("routes.findhom_yield", "ratio",
           Ratio(route_stats.findhom_successes, route_stats.findhom_calls));
  r->Layer("routes.nodes_expanded", "count", route_stats.nodes_expanded);
  r->Layer("routes.branches_added", "count", route_stats.branches_added);
  r->Layer("routes.one_route_ms", "ms", one_route_ms.Median(),
           one_route_ms.size());
  r->Layer("routes.all_routes_ms", "ms", all_routes_ms.Median(),
           all_routes_ms.size());
  spider::EvalStats eval = chase_stats.eval;
  eval += route_stats.eval;
  ReportEval(eval, r);

  // Exec: one forest over the first 50 probe facts at 1 vs nproc threads.
  std::vector<FactRef> batch(facts.begin(),
                             facts.begin() + std::min<size_t>(50, facts.size()));
  spider::RouteOptions routes_1t, routes_nt;
  routes_nt.exec.num_threads = 0;
  Samples forest_1t = Repeat(nproc_reps, 0, [&] {
    Traced span("exec", "ComputeAllRoutes_1t");
    spider::ComputeAllRoutes(*base.mapping, *base.source, *chased, batch,
                             routes_1t);
  });
  Samples forest_nt = Repeat(nproc_reps, 0, [&] {
    Traced span("exec", "ComputeAllRoutes_nproc");
    spider::ComputeAllRoutes(*base.mapping, *base.source, *chased, batch,
                             routes_nt);
  });
  r->Layer("exec.forest_speedup", "ratio",
           Ratio(forest_1t.Median(), forest_nt.Median()), forest_nt.size());
  chased.reset();

  // Provenance and incremental.
  spider::IncrementalStats incremental = SweepIncremental(
      base, chase_1t.Median(), in.loop_incremental == nullptr, in.seed, r);
  ReportIncrementalStats(
      in.loop_incremental != nullptr ? *in.loop_incremental : incremental, r);

  // Debugger: the loop's session, or a session running the debug_loop op
  // generator for a fixed number of ops.
  {
    DebugOpSamples own_samples;
    spider::RouteCacheStats cache;
    const DebugOpSamples* samples = in.loop_samples;
    if (in.loop_cache != nullptr) {
      cache = *in.loop_cache;
    } else {
      std::unique_ptr<spider::DebugSession> session;
      {
        Traced span("debugger", "DebugSession");
        session = std::make_unique<spider::DebugSession>(
            BuildScenario(in), DebugLoopSessionOptions(/*engine_threads=*/1));
      }
      int64_t fresh_key = 3'000'000'000'000;
      std::vector<DebugOp> plan =
          PlanDebugOps(in.seed, in.relational ? 500 : 2000);
      RunDebugOps(session.get(), plan, 0, plan.size(),
                  Clock::time_point::max(), false, &fresh_key, &r->ops,
                  &own_samples);
      cache = session->cache_stats();
      samples = &own_samples;
    }
    r->Layer("debugger.route_hit_rate", "ratio",
             Ratio(cache.route_hits, cache.route_hits + cache.route_misses),
             cache.route_hits + cache.route_misses);
    r->Layer("debugger.forest_hit_rate", "ratio",
             Ratio(cache.forest_hits, cache.forest_hits + cache.forest_misses),
             cache.forest_hits + cache.forest_misses);
    r->Layer("debugger.evictions", "count/apply",
             Ratio(cache.route_evictions + cache.forest_evictions,
                   samples->apply_ms.size()),
             samples->apply_ms.size());
    Samples misses = samples->route_miss_ms;
    r->Layer("debugger.route_overhead_ms", "ms",
             misses.Median() - one_route_ms.Median(), misses.size());
  }

  SweepServe(in, r);

  r->Layer("obs.trace_overhead_frac", "ratio",
           Ratio(in.traced_ms, in.untraced_ms) - 1);
  std::vector<std::pair<std::string, double>> self = SpanLog::Get().SelfSeconds();
  for (const char* layer :
       {"storage", "query", "chase", "exec", "provenance", "incremental",
        "routes", "debugger", "serve"}) {
    double s = 0;
    for (const auto& [name, seconds] : self) {
      if (name == layer) s = seconds;
    }
    r->Layer(std::string(layer) + ".self_s", "s", s);
  }
}

}  // namespace routebench
