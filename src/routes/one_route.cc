#include "routes/one_route.h"

#include <unordered_set>

#include "base/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/plan_cache.h"
#include "routes/fact_util.h"
#include "routes/find_hom.h"

namespace spider {

namespace {

/// Folds a FindHomIterator's owned stats into an accumulator at scope
/// exit, covering every early exit from the enumeration loops.
class StatsMerger {
 public:
  StatsMerger(const FindHomIterator* it, RouteStats* total)
      : it_(it), total_(total) {}
  ~StatsMerger() { *total_ += it_->stats(); }

  StatsMerger(const StatsMerger&) = delete;
  StatsMerger& operator=(const StatsMerger&) = delete;

 private:
  const FindHomIterator* it_;
  RouteStats* total_;
};

class OneRouteComputation {
 public:
  OneRouteComputation(const SchemaMapping& mapping, const Instance& source,
                      const Instance& target, const RouteOptions& options)
      : mapping_(mapping),
        source_(source),
        target_(target),
        options_(options) {
    // The DFS probes the same tgds over and over (one findHom per fact per
    // tgd); share one plan memo across all of them unless the caller
    // brought their own.
    if (options_.eval.plan_cache == nullptr) {
      options_.eval.plan_cache = &plan_cache_;
    }
  }

  OneRouteResult Run(const std::vector<FactRef>& js) {
    FindRoute(js);
    OneRouteResult result;
    result.found = true;
    for (const FactRef& f : js) {
      SPIDER_CHECK(f.side == Side::kTarget,
                   "ComputeOneRoute selects target facts");
      if (proven_.count(f) == 0) {
        result.found = false;
        result.unproven.push_back(f);
      }
    }
    result.route = Route(std::move(route_));
    result.stats = stats_;
    return result;
  }

 private:
  struct Triple {
    FactRef fact;
    TgdId tgd;
    Binding h;
    std::vector<FactRef> lhs;
    std::vector<FactRef> rhs;
    bool alive = true;
  };

  bool AllProven(const std::vector<FactRef>& facts) const {
    for (const FactRef& f : facts) {
      if (proven_.count(f) == 0) return false;
    }
    return true;
  }

  void AppendStep(TgdId tgd, const Binding& h) {
    route_.push_back(SatStep{tgd, h});
  }

  /// Seeds for Infer after a successful step: the probed fact, plus — under
  /// the §3.3 optimization — every fact the step produces.
  std::vector<FactRef> SeedsFor(const FactRef& fact,
                                const std::vector<FactRef>& rhs) const {
    std::vector<FactRef> seeds{fact};
    if (options_.propagate_rhs_proven) {
      for (const FactRef& f : rhs) {
        if (f != fact) seeds.push_back(f);
      }
    }
    return seeds;
  }

  /// The Infer procedure (Fig. 8): marks seeds proven and fires every
  /// suspended UNPROVEN triple whose LHS became fully proven, transitively.
  void Infer(std::vector<FactRef> seeds) {
    while (!seeds.empty()) {
      for (const FactRef& f : seeds) proven_.insert(f);
      seeds.clear();
      for (Triple& triple : unproven_) {
        if (!triple.alive || !AllProven(triple.lhs)) continue;
        triple.alive = false;
        ++stats_.infer_fires;
        AppendStep(triple.tgd, triple.h);
        seeds.push_back(triple.fact);
        if (options_.propagate_rhs_proven) {
          for (const FactRef& f : triple.rhs) seeds.push_back(f);
        }
      }
    }
  }

  /// FindRoute (Fig. 7).
  void FindRoute(const std::vector<FactRef>& facts) {
    for (const FactRef& fact : facts) {
      // The findHom pulls below poll the token too; this covers facts whose
      // branches resolve without ever pulling (all cache/Infer hits).
      ThrowIfCancelled(options_.cancel);
      if (active_.count(fact) > 0) continue;
      active_.insert(fact);
      if (proven_.count(fact) > 0) continue;

      // Step 2: s-t tgds — the first assignment of the first matching tgd
      // witnesses the fact directly from the source.
      bool witnessed = false;
      for (TgdId tgd : mapping_.st_tgds()) {
        FindHomIterator it(mapping_, source_, target_, fact, tgd, options_);
        Binding h;
        if (it.Next(&h)) {
          AppendStep(tgd, h);
          Infer(SeedsFor(fact, RhsFacts(mapping_, tgd, h, target_)));
          witnessed = true;
        }
        stats_ += it.stats();
        if (witnessed) break;
      }
      if (witnessed) continue;

      // Step 3: target tgds — enumerate (σ, h) pairs until the fact is
      // proven, suspending on LHS facts that are not proven yet.
      for (TgdId tgd : mapping_.target_tgds()) {
        if (proven_.count(fact) > 0) break;
        FindHomIterator it(mapping_, source_, target_, fact, tgd, options_);
        StatsMerger merge_on_exit(&it, &stats_);
        Binding h;
        while (proven_.count(fact) == 0 && it.Next(&h)) {
          std::vector<FactRef> lhs =
              LhsFacts(mapping_, tgd, h, source_, target_);
          std::vector<FactRef> rhs = RhsFacts(mapping_, tgd, h, target_);
          if (AllProven(lhs)) {
            AppendStep(tgd, h);
            Infer(SeedsFor(fact, rhs));
            break;
          }
          // Step 3(iii)-(v): suspend the triple, search routes for the LHS,
          // then either the triple fired through Infer (fact proven) or we
          // continue with the next (σ, h).
          unproven_.push_back(Triple{fact, tgd, h, lhs, std::move(rhs), true});
          size_t index = unproven_.size() - 1;
          // Recurse on a local copy: the recursion may grow unproven_ and
          // invalidate references into it.
          FindRoute(lhs);
          if (!unproven_[index].alive) break;
        }
      }
    }
  }

  const SchemaMapping& mapping_;
  const Instance& source_;
  const Instance& target_;
  PlanCache plan_cache_;
  RouteOptions options_;
  std::unordered_set<FactRef, FactRefHash> active_;
  std::unordered_set<FactRef, FactRefHash> proven_;
  std::vector<Triple> unproven_;
  std::vector<SatStep> route_;
  RouteStats stats_;
};

}  // namespace

OneRouteResult ComputeOneRoute(const SchemaMapping& mapping,
                               const Instance& source, const Instance& target,
                               const std::vector<FactRef>& js,
                               const RouteOptions& options) {
  obs::TraceSpan span("routes", "one_route");
  span.AddArg("selected", static_cast<int64_t>(js.size()));
  OneRouteResult result = OneRouteComputation(mapping, source, target, options).Run(js);
  if (obs::MetricsEnabled()) {
    obs::Registry& registry = obs::Registry::Global();
    registry.GetCounter("routes.one_route_runs")->Increment();
    result.stats.PublishTo(&registry, "routes.");
  }
  return result;
}

}  // namespace spider
