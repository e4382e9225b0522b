#include "debugger/debug_session.h"

#include <fstream>
#include <utility>

#include "base/hash.h"
#include "base/status.h"
#include "mapping/writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spider {

namespace {

/// Chains the content of one delta batch onto a session state key: deletes
/// then inserts, each as (op kind, relation, tuple). Uses the process-local
/// Tuple::Hash, which is all the in-memory shared tier needs.
uint64_t ChainStateKey(uint64_t key, const SourceDelta& delta) {
  auto mix = [&key](uint64_t h) { key = HashCombine(key, h); };
  for (const SourceDelta::Op& op : delta.deletes()) {
    mix(1);
    mix(Fnv1a64(op.relation));
    mix(op.tuple.Hash());
  }
  for (const SourceDelta::Op& op : delta.inserts()) {
    mix(2);
    mix(Fnv1a64(op.relation));
    mix(op.tuple.Hash());
  }
  return key;
}

/// Publishes the route-cache work of one session call (hits, misses,
/// evictions) to the registry when the call returns or throws: one
/// registry update per call instead of one per cache event.
class CachePublisher {
 public:
  explicit CachePublisher(const RouteCache& cache)
      : cache_(cache), before_(cache.stats()) {}
  ~CachePublisher() {
    if (obs::MetricsEnabled()) {
      (cache_.stats() - before_).PublishTo(&obs::Registry::Global(), "cache.");
    }
  }
  CachePublisher(const CachePublisher&) = delete;
  CachePublisher& operator=(const CachePublisher&) = delete;

 private:
  const RouteCache& cache_;
  RouteCacheStats before_;
};

}  // namespace

DebugSession::DebugSession(Scenario scenario, DebugSessionOptions options)
    : scenario_(std::move(scenario)),
      options_(std::move(options)),
      cache_(scenario_.mapping.get()) {
  SPIDER_CHECK(scenario_.mapping != nullptr && scenario_.source != nullptr,
               "DebugSession requires a populated scenario");
  if (!options_.trace_path.empty()) obs::Tracer::Global().Start();
  obs::TraceSpan open_span("session", "open");
  if (scenario_.target == nullptr) {
    scenario_.target = std::make_unique<Instance>(&scenario_.mapping->target());
  }
  if (options_.plan_cache != nullptr) {
    if (options_.incremental.eval.plan_cache == nullptr) {
      options_.incremental.eval.plan_cache = options_.plan_cache;
    }
    if (options_.routes.eval.plan_cache == nullptr) {
      options_.routes.eval.plan_cache = options_.plan_cache;
    }
  }
  state_key_ = options_.state_key;
  if (state_key_ == 0 && options_.shared_route_cache != nullptr) {
    // Fingerprint the pre-chase content; the chase is a deterministic
    // function of it, so it identifies the post-chase state equally well.
    state_key_ = Fnv1a64(WriteScenario(scenario_));
  }
  IncrementalOptions inc = options_.incremental;
  inc.first_null_id = scenario_.max_null_id + 1;
  inc.cancel = options_.cancel;  // Opening chase only; cleared by the chaser.
  chaser_ = std::make_unique<IncrementalChaser>(
      scenario_.mapping.get(), scenario_.source.get(), scenario_.target.get(),
      std::move(inc));
  scenario_.max_null_id = chaser_->next_null_id() - 1;
  debugger_ = std::make_unique<MappingDebugger>(&scenario_, options_.routes);
}

DebugSession::~DebugSession() {
  if (!options_.trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Stop();
    tracer.WriteJson(options_.trace_path);
  }
  if (!options_.metrics_path.empty()) {
    std::ofstream out(options_.metrics_path);
    out << obs::Registry::Global().ToJson();
  }
}

void DebugSession::SetCancel(const CancelToken* token) {
  cancel_ = token;
  debugger_->set_cancel(token);
}

ApplyDeltaResult DebugSession::Apply(const SourceDelta& delta) {
  obs::TraceSpan span("session", "apply");
  CachePublisher publish(cache_);
  // Entry-only check: Apply mutates the instances in place and is not
  // abortable mid-flight. A token that flips later is ignored until the
  // batch lands (the reply then races the cancel — exactly one wins).
  ThrowIfCancelled(cancel_);
  ApplyDeltaResult result = chaser_->Apply(delta);
  scenario_.max_null_id = chaser_->next_null_id() - 1;
  cache_.Invalidate(result);
  state_key_ = ChainStateKey(state_key_, delta);
  return result;
}

FactKey DebugSession::TargetKey(const std::string& fact_text) const {
  FactRef ref = debugger_->TargetFact(fact_text);
  return FactKey{Side::kTarget, ref.relation,
                 scenario_.target->tuple(ref.relation, ref.row)};
}

const Route& DebugSession::RouteFor(const std::string& fact_text) {
  obs::TraceSpan span("session", "route_for");
  CachePublisher publish(cache_);
  FactRef ref = debugger_->TargetFact(fact_text);
  FactKey key{Side::kTarget, ref.relation,
              scenario_.target->tuple(ref.relation, ref.row)};
  if (const Route* cached = cache_.FindRoute(key)) return *cached;
  SharedRouteCache* shared = options_.shared_route_cache;
  if (shared != nullptr) {
    if (auto route = shared->FindRoute(state_key_, key)) {
      // Install into the local cache so the session behaves identically
      // whether the shared tier was hot or cold (the local entry is what
      // survives later unrelated edits).
      return cache_.PutRoute(key, *route);
    }
  }
  OneRouteResult result = debugger_->OneRoute({ref});
  SPIDER_CHECK(result.found, "no route exists for " + fact_text);
  if (shared != nullptr) shared->PutRoute(state_key_, key, result.route);
  return cache_.PutRoute(key, std::move(result.route));
}

RouteForest& DebugSession::ForestFor(const std::string& fact_text) {
  obs::TraceSpan span("session", "forest_for");
  CachePublisher publish(cache_);
  FactRef ref = debugger_->TargetFact(fact_text);
  FactKey key{Side::kTarget, ref.relation,
              scenario_.target->tuple(ref.relation, ref.row)};
  if (RouteForest* cached = cache_.FindForest(key)) return *cached;
  SharedRouteCache* shared = options_.shared_route_cache;
  if (shared != nullptr) {
    if (auto forest = shared->FindForest(state_key_, key)) {
      return cache_.PutForest(key, std::move(forest));
    }
  }
  auto forest = std::make_shared<RouteForest>(debugger_->AllRoutes({ref}));
  // The cached forest outlives this request; it must not keep polling the
  // request's (soon-dead) cancel token.
  forest->set_cancel(nullptr);
  if (shared != nullptr) shared->PutForest(state_key_, key, forest);
  return cache_.PutForest(key, std::move(forest));
}

}  // namespace spider
