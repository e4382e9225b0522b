#ifndef SPIDER_ROUTES_OPTIONS_H_
#define SPIDER_ROUTES_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "base/cancel.h"
#include "exec/exec_options.h"
#include "query/eval_stats.h"
#include "query/evaluator.h"

namespace spider {

/// Options shared by the route algorithms.
struct RouteOptions {
  /// Options for the conjunctive queries issued by findHom.
  EvalOptions eval;

  /// When true, findHom materializes every assignment up front instead of
  /// fetching them one at a time. This models the paper's XML setting, where
  /// "all the assignments are fetched at once, since the result produced by
  /// the Saxon engine is stored in memory" (§3.3). The relational default is
  /// lazy, cursor-style fetching.
  bool eager_findhom = false;

  /// §3.3 optimization for ComputeOneRoute: when a findHom step succeeds,
  /// conclude that *all* target tuples produced by the tgd (not only the
  /// probed one) are proven, avoiding redundant findHom calls.
  bool propagate_rhs_proven = true;

  /// Work-stealing runtime knobs. With num_threads > 1 the independent
  /// per-fact work fans out over the shared pool: route-forest node
  /// expansion (ComputeAllRoutes) and the s-t seeding of source routes.
  /// Results and stats are byte-identical for every thread count;
  /// ComputeOneRoute's depth-first search is inherently order-dependent
  /// and always runs sequentially.
  ExecOptions exec;

  /// Optional cooperative-cancellation token, polled (relaxed atomic load)
  /// on every FindHomIterator pull, every forest node expansion, and every
  /// one-route DFS step. When it flips, the route algorithms throw
  /// CancelledError — they are pure reads over the instances, so the
  /// abandoned partial result never escapes. Must outlive the computation.
  const CancelToken* cancel = nullptr;
};

/// Statistics accumulated by the route algorithms. Parallel regions give
/// each task its own RouteStats (FindHomIterator likewise owns one) and
/// merge them at the join in canonical task order, so counters stay exact
/// at every thread count.
struct RouteStats : obs::FieldStats<RouteStats> {
  uint64_t findhom_calls = 0;       ///< findHom invocations (per tgd).
  uint64_t findhom_successes = 0;   ///< Assignments produced.
  uint64_t infer_fires = 0;         ///< UNPROVEN triples fired by Infer.
  uint64_t nodes_expanded = 0;      ///< Route forest nodes expanded.
  uint64_t branches_added = 0;      ///< Route forest branches added.

  /// Evaluator counters for the conjunctive queries findHom issued. These
  /// are deterministic for a fixed scenario and options at every thread
  /// count: plans are value-independent, posting lists enumerate rows in
  /// ascending order regardless of the probe column, and the shared plan
  /// cache builds each plan exactly once under its lock.
  EvalStats eval;

  static constexpr std::tuple kFields{
      obs::Field{"findhom_calls", &RouteStats::findhom_calls},
      obs::Field{"findhom_successes", &RouteStats::findhom_successes},
      obs::Field{"infer_fires", &RouteStats::infer_fires},
      obs::Field{"nodes_expanded", &RouteStats::nodes_expanded},
      obs::Field{"branches_added", &RouteStats::branches_added},
      obs::Field{"eval", &RouteStats::eval}};

  bool operator==(const RouteStats&) const = default;
};

}  // namespace spider

#endif  // SPIDER_ROUTES_OPTIONS_H_
