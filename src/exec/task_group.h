#ifndef SPIDER_EXEC_TASK_GROUP_H_
#define SPIDER_EXEC_TASK_GROUP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>

#include "exec/thread_pool.h"

namespace spider {

/// Structured fork/join: tasks forked with Run() are guaranteed joined by
/// Wait() (or the destructor), so forked closures may safely capture the
/// enclosing scope by reference.
///
/// With a null pool every Run() executes inline on the calling thread, in
/// submission order — the sequential special case shares this code path.
/// Exceptions thrown by tasks are captured; the first one (in join-time
/// observation order) is rethrown from Wait(). When several tasks fail in
/// the same join, the rethrown message says how many further failures were
/// suppressed (and the count lands on the "exec.task_exceptions_dropped"
/// counter), so multi-failure fan-outs are not mistaken for single faults.
///
/// A thread calling Wait() from inside a pool worker *helps*: it executes
/// pending pool tasks while the group drains, so nested fork/join cannot
/// starve the pool.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  /// Joins outstanding tasks but swallows their exceptions (destructors
  /// must not throw); call Wait() explicitly to observe them.
  ~TaskGroup() {
    try {
      Wait();
    } catch (...) {
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Forks `fn`. With a null pool, runs it inline now.
  template <typename F>
  void Run(F&& fn) {
    if (pool_ == nullptr) {
      try {
        fn();
      } catch (...) {
        RecordError(std::current_exception());
      }
      return;
    }
    pending_.fetch_add(1, std::memory_order_seq_cst);
    pool_->Submit(new GroupTask(this, std::forward<F>(fn)));
  }

  /// Blocks until every forked task has finished, helping the pool run
  /// tasks meanwhile. Rethrows the first captured exception.
  void Wait();

 private:
  class GroupTask : public Task {
   public:
    template <typename F>
    GroupTask(TaskGroup* group, F&& fn)
        : group_(group), fn_(std::forward<F>(fn)) {}

    void Execute() override {
      try {
        fn_();
      } catch (...) {
        group_->RecordError(std::current_exception());
      }
      group_->OnTaskDone();
    }

   private:
    TaskGroup* group_;
    std::function<void()> fn_;
  };

  void RecordError(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_ == nullptr) {
      first_error_ = std::move(error);
    } else {
      ++dropped_errors_;
    }
  }

  void OnTaskDone() {
    // Decrement and notify under the mutex. Wait() may return (and the
    // group die with its stack frame) as soon as it sees the count at zero,
    // but it takes mu_ before returning, so holding mu_ across the
    // decrement keeps the group alive until this worker is done with it.
    // The notify must hold the mutex anyway: Wait() decides to sleep under
    // it, and an unlocked notify could slip between its check and sleep.
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      done_cv_.notify_all();
    }
  }

  ThreadPool* pool_;
  std::atomic<int64_t> pending_{0};
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;  // Guarded by mu_.
  size_t dropped_errors_ = 0;       // Guarded by mu_.
};

}  // namespace spider

#endif  // SPIDER_EXEC_TASK_GROUP_H_
