#ifndef SPIDER_QUERY_EVAL_STATS_H_
#define SPIDER_QUERY_EVAL_STATS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace spider {

/// Counters accumulated by the conjunctive-query evaluator. A MatchIterator
/// owns one; findHom folds its iterators' stats into RouteStats::eval and the
/// chase folds them into ChaseStats::eval, so the cost of the selection
/// queries the paper pushes to DB2 is visible at every level of the stack.
///
/// All counters are deterministic for a fixed input: plans and probe choices
/// are computed from exact index statistics (built on demand per column), so
/// they do not depend on index warm-up order or thread count. Cache counters
/// stay deterministic because PlanCache plans under its lock — a key is built
/// exactly once per (instance, version) no matter how many workers race to it.
struct EvalStats {
  uint64_t tuples_scanned = 0;   ///< Candidate rows fetched and tested.
  uint64_t index_probes = 0;     ///< Posting-list lookups issued.
  uint64_t point_lookups = 0;    ///< Exact-tuple dedup lookups (fully-bound).
  uint64_t levels_entered = 0;   ///< Join levels entered during backtracking.
  uint64_t plans_built = 0;      ///< Join orders computed by the planner.
  uint64_t plan_cache_hits = 0;  ///< Plans served from a PlanCache.

  EvalStats& operator+=(const EvalStats& other) {
    tuples_scanned += other.tuples_scanned;
    index_probes += other.index_probes;
    point_lookups += other.point_lookups;
    levels_entered += other.levels_entered;
    plans_built += other.plans_built;
    plan_cache_hits += other.plan_cache_hits;
    return *this;
  }

  /// The work done since the `since` snapshot of the same accumulator
  /// (every counter of `now` is at least its counterpart in `since`).
  friend EvalStats operator-(const EvalStats& now, const EvalStats& since) {
    EvalStats d;
    d.tuples_scanned = now.tuples_scanned - since.tuples_scanned;
    d.index_probes = now.index_probes - since.index_probes;
    d.point_lookups = now.point_lookups - since.point_lookups;
    d.levels_entered = now.levels_entered - since.levels_entered;
    d.plans_built = now.plans_built - since.plans_built;
    d.plan_cache_hits = now.plan_cache_hits - since.plan_cache_hits;
    return d;
  }

  /// Adds these counters to the registry under `prefix` (e.g.
  /// "chase.eval."). The struct stays the hot-path accumulator — the
  /// registry is the uniform export surface engines publish merged,
  /// deterministic totals into (see spider::obs).
  void PublishTo(obs::Registry* registry, const std::string& prefix) const {
    registry->GetCounter(prefix + "tuples_scanned")->Add(tuples_scanned);
    registry->GetCounter(prefix + "index_probes")->Add(index_probes);
    registry->GetCounter(prefix + "point_lookups")->Add(point_lookups);
    registry->GetCounter(prefix + "levels_entered")->Add(levels_entered);
    registry->GetCounter(prefix + "plans_built")->Add(plans_built);
    registry->GetCounter(prefix + "plan_cache_hits")->Add(plan_cache_hits);
  }

  friend bool operator==(const EvalStats&, const EvalStats&) = default;
};

}  // namespace spider

#endif  // SPIDER_QUERY_EVAL_STATS_H_
