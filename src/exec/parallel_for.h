#ifndef SPIDER_EXEC_PARALLEL_FOR_H_
#define SPIDER_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "base/cancel.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"

namespace spider {

/// Applies `body(i)` to every index in [begin, end), fanning out over
/// `pool` by recursive range splitting: a task forks its upper half while
/// it keeps narrowing the lower half, until ranges reach `grain` items.
/// Stolen halves are the largest pending ranges (FIFO steals), so load
/// balances without a shared counter.
///
/// With a null pool (or a range of at most `grain` items) the whole range
/// runs inline in index order — the sequential path. In all cases every
/// index is applied exactly once; the caller must make body(i) independent
/// of body(j) (write to per-index slots, merge after).
///
/// `cancel` (optional) makes task bodies cooperative: once the token flips,
/// leaves that have not started yet are skipped (each leaf re-checks before
/// its index loop), so a cancelled fan-out drains in O(running leaves)
/// instead of finishing the whole range. The caller must then treat the
/// per-index results as abandoned — ThrowIfCancelled after the join is the
/// usual pattern.
template <typename F>
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const F& body, const CancelToken* cancel = nullptr) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || end - begin <= grain) {
    for (size_t i = begin; i < end; ++i) {
      if (Cancelled(cancel)) return;
      body(i);
    }
    return;
  }
  // Declared before the group so it outlives the join in ~TaskGroup.
  std::function<void(size_t, size_t)> run;
  TaskGroup group(pool);
  run = [&](size_t lo, size_t hi) {
    while (hi - lo > grain) {
      size_t mid = lo + (hi - lo) / 2;
      group.Run([&run, mid, hi] { run(mid, hi); });
      hi = mid;
    }
    if (Cancelled(cancel)) return;
    for (size_t i = lo; i < hi; ++i) body(i);
  };
  run(begin, end);
  group.Wait();
}

}  // namespace spider

#endif  // SPIDER_EXEC_PARALLEL_FOR_H_
