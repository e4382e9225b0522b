#ifndef SPIDER_QUERY_EVAL_STATS_H_
#define SPIDER_QUERY_EVAL_STATS_H_

#include <cstdint>

#include "obs/fields.h"

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
struct EvalStats : obs::FieldStats<EvalStats> {
  uint64_t tuples_scanned = 0;   ///< Candidate rows fetched and tested.
  uint64_t index_probes = 0;     ///< Posting-list lookups issued.
  uint64_t point_lookups = 0;    ///< Exact-tuple dedup lookups (fully-bound).
  uint64_t levels_entered = 0;   ///< Join levels entered during backtracking.
  uint64_t plans_built = 0;      ///< Join orders computed by the planner.
  uint64_t plan_cache_hits = 0;  ///< Plans served from a PlanCache.

  static constexpr std::tuple kFields{
      obs::Field{"tuples_scanned", &EvalStats::tuples_scanned},
      obs::Field{"index_probes", &EvalStats::index_probes},
      obs::Field{"point_lookups", &EvalStats::point_lookups},
      obs::Field{"levels_entered", &EvalStats::levels_entered},
      obs::Field{"plans_built", &EvalStats::plans_built},
      obs::Field{"plan_cache_hits", &EvalStats::plan_cache_hits}};

  bool operator==(const EvalStats&) const = default;
};

}  // namespace spider

#endif  // SPIDER_QUERY_EVAL_STATS_H_
