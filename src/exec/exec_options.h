#ifndef SPIDER_EXEC_EXEC_OPTIONS_H_
#define SPIDER_EXEC_EXEC_OPTIONS_H_

namespace spider {

/// Knobs for the spider::exec work-stealing runtime. Embedded in
/// ChaseOptions and RouteOptions so every parallel call site is controlled
/// by the same switch.
struct ExecOptions {
  /// Number of worker threads parallel regions fan out to.
  ///   1  — (default) every parallel region runs inline on the calling
  ///        thread; this IS the sequential path, not a separate code path.
  ///   0  — resolve to the hardware concurrency.
  ///   n  — use a shared process-wide pool of n workers.
  /// Results are byte-identical for every value: parallel regions buffer
  /// per-task results and merge them in a canonical order.
  int num_threads = 1;
};

/// Maps the ExecOptions convention (0 = hardware concurrency) to a concrete
/// thread count >= 1.
int ResolveNumThreads(int num_threads);

}  // namespace spider

#endif  // SPIDER_EXEC_EXEC_OPTIONS_H_
