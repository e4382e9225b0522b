#ifndef SPIDER_DEBUGGER_DEBUG_SESSION_H_
#define SPIDER_DEBUGGER_DEBUG_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "debugger/debugger.h"
#include "incremental/delta_chase.h"
#include "incremental/route_cache.h"
#include "incremental/shared_route_cache.h"
#include "incremental/source_delta.h"
#include "mapping/scenario.h"
#include "query/plan_cache.h"
#include "routes/options.h"

namespace spider {

struct DebugSessionOptions {
  /// Knobs for the incremental maintainer. `first_null_id` is ignored — the
  /// session derives it from the scenario's max_null_id.
  IncrementalOptions incremental;
  RouteOptions routes;

  /// Optional process-wide plan tier (spider::serve hands every session the
  /// same bounded PlanCache). Installed into `incremental.eval.plan_cache`
  /// and `routes.eval.plan_cache` unless those already carry a cache. The
  /// owner must outlive the session and Forget() the session's instances
  /// when it dies.
  PlanCache* plan_cache = nullptr;

  /// Optional cross-session route/forest tier, consulted between the local
  /// RouteCache (hit: dependency-validated entry survives edits) and a
  /// fresh computation. Keyed by state_key, so only sessions with an
  /// identical open-plus-edit history ever share an entry.
  SharedRouteCache* shared_route_cache = nullptr;

  /// Fingerprint of the opening scenario content for the shared tiers.
  /// 0 (the default) derives one from WriteScenario(), which is correct but
  /// costs a serialization; servers pass the hash of the scenario text or
  /// workload spec they were asked to open.
  uint64_t state_key = 0;

  /// Optional cooperative-cancellation token for the OPENING chase only: a
  /// create that observes a flipped token throws CancelledError from the
  /// constructor and the half-built session is discarded. Per-request
  /// cancellation after open goes through SetCancel() instead.
  const CancelToken* cancel = nullptr;

  /// When non-empty, tracing starts as the session opens and a Chrome
  /// trace-event JSON file (Perfetto / about:tracing) is written here when
  /// the session is destroyed. The initial chase, every Apply() phase and
  /// every route/forest probe land on the trace.
  std::string trace_path;

  /// When non-empty, the global metrics registry is dumped here (fixed
  /// key order JSON) when the session is destroyed.
  std::string metrics_path;
};

/// The edit/re-debug loop in one object (§6 of the paper): open a scenario,
/// probe facts for routes, apply a source edit, probe again — without
/// re-running the exchange or recomputing unaffected routes.
///
/// Opening chases the source into the scenario's target instance (replacing
/// whatever it held) via the IncrementalChaser; Apply() maintains the target
/// incrementally and feeds the resulting dirty-fact sets to a RouteCache, so
/// RouteFor()/ForestFor() answer from cache whenever the probed fact's
/// routes could not have changed. The wrapped MappingDebugger stays valid
/// across edits because the instances are mutated strictly in place.
class DebugSession {
 public:
  /// Takes ownership of the scenario (mapping and source must be populated;
  /// a missing target instance is created). Throws SpiderError when the
  /// initial chase fails.
  explicit DebugSession(Scenario scenario, DebugSessionOptions options = {});

  /// Flushes the trace/metrics files requested via the options.
  ~DebugSession();

  /// Not movable: the wrapped debugger points at the owned scenario member.
  /// Factory functions still work — returning a prvalue constructs in place.
  DebugSession(const DebugSession&) = delete;
  DebugSession& operator=(const DebugSession&) = delete;

  const Scenario& scenario() const { return scenario_; }
  MappingDebugger& debugger() { return *debugger_; }
  const MappingDebugger& debugger() const { return *debugger_; }

  /// Installs (or clears, with nullptr) the cancellation token polled by
  /// subsequent RouteFor/ForestFor probes and checked at Apply() entry.
  /// Must be serialized with those calls (per-session request serialization
  /// in spider::serve guarantees that); the token must stay alive until
  /// cleared or the session dies.
  void SetCancel(const CancelToken* token);

  /// Applies one source edit batch, bringing the target back to a universal
  /// solution and evicting exactly the cached routes/forests the edit could
  /// have affected. Checks the SetCancel() token at ENTRY only: once the
  /// in-place maintenance starts it always runs to completion, so a
  /// cancelled apply leaves the session byte-identical to never asking.
  ApplyDeltaResult Apply(const SourceDelta& delta);

  /// Content key of a target fact written as `Rel(v1, ...)` (the route
  /// cache's notion of identity). Throws when the fact does not exist.
  FactKey TargetKey(const std::string& fact_text) const;

  /// One route for the fact, served from the cache when the fact's route
  /// dependencies survived every edit since it was computed. Throws
  /// SpiderError when the fact has no route. The reference is valid until
  /// the next Apply().
  const Route& RouteFor(const std::string& fact_text);

  /// The route forest (all routes) for the fact, cached likewise.
  RouteForest& ForestFor(const std::string& fact_text);

  /// Step-through player for a route, honoring the debugger's breakpoints.
  RoutePlayer Play(Route route) const { return debugger_->Play(std::move(route)); }

  bool egd_entangled() const { return chaser_->egd_entangled(); }
  const IncrementalStats& chase_stats() const { return chaser_->stats(); }
  const RouteCacheStats& cache_stats() const { return cache_.stats(); }
  const RouteCache& route_cache() const { return cache_; }

  /// Fingerprint of this session's history: the opening state key chained
  /// with a content hash of every applied delta, in order. Sessions with
  /// equal state keys hold byte-identical scenarios (the engines are
  /// deterministic), which is what makes the shared route tier sound.
  uint64_t state_key() const { return state_key_; }

 private:
  Scenario scenario_;
  DebugSessionOptions options_;
  uint64_t state_key_ = 0;
  const CancelToken* cancel_ = nullptr;  ///< Per-request; see SetCancel().
  std::unique_ptr<IncrementalChaser> chaser_;
  std::unique_ptr<MappingDebugger> debugger_;
  RouteCache cache_;
};

}  // namespace spider

#endif  // SPIDER_DEBUGGER_DEBUG_SESSION_H_
