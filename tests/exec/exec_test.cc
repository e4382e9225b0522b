#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/status.h"
#include "exec/parallel_for.h"
#include "exec/task_group.h"
#include "obs/metrics.h"
#include "exec/thread_pool.h"
#include "exec/work_stealing_queue.h"

namespace spider {
namespace {

class CountingTask : public Task {
 public:
  explicit CountingTask(std::atomic<int>* counter) : counter_(counter) {}
  void Execute() override { counter_->fetch_add(1); }

 private:
  std::atomic<int>* counter_;
};

TEST(WorkStealingDequeTest, OwnerPopsLifo) {
  WorkStealingDeque deque;
  std::atomic<int> counter{0};
  auto a = std::make_unique<CountingTask>(&counter);
  auto b = std::make_unique<CountingTask>(&counter);
  deque.Push(a.get());
  deque.Push(b.get());
  EXPECT_EQ(deque.Pop(), b.get());
  EXPECT_EQ(deque.Pop(), a.get());
  EXPECT_EQ(deque.Pop(), nullptr);
}

TEST(WorkStealingDequeTest, ThiefStealsFifo) {
  WorkStealingDeque deque;
  std::atomic<int> counter{0};
  auto a = std::make_unique<CountingTask>(&counter);
  auto b = std::make_unique<CountingTask>(&counter);
  deque.Push(a.get());
  deque.Push(b.get());
  EXPECT_EQ(deque.Steal(), a.get());
  EXPECT_EQ(deque.Pop(), b.get());
  EXPECT_EQ(deque.Steal(), nullptr);
}

TEST(WorkStealingDequeTest, GrowsPastInitialCapacity) {
  WorkStealingDeque deque(/*initial_capacity=*/2);
  std::atomic<int> counter{0};
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(&counter));
    deque.Push(tasks.back().get());
  }
  // Steal a prefix, pop the rest; every task comes out exactly once.
  for (int i = 0; i < 40; ++i) EXPECT_EQ(deque.Steal(), tasks[i].get());
  for (int i = 99; i >= 40; --i) EXPECT_EQ(deque.Pop(), tasks[i].get());
  EXPECT_TRUE(deque.LooksEmpty());
}

TEST(ResolveNumThreadsTest, MapsZeroToHardware) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(ResolveNumThreads(0), 1);
}

TEST(ThreadPoolTest, ForReturnsNullForSequential) {
  ExecOptions options;
  options.num_threads = 1;
  EXPECT_EQ(ThreadPool::For(options), nullptr);
}

TEST(ThreadPoolTest, ForSharesPoolPerThreadCount) {
  ExecOptions options;
  options.num_threads = 2;
  ThreadPool* first = ThreadPool::For(options);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->num_threads(), 2);
  EXPECT_EQ(ThreadPool::For(options), first);
  options.num_threads = 3;
  EXPECT_NE(ThreadPool::For(options), first);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 1000; ++i) {
    group.Run([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(TaskGroupTest, InlineWithNullPool) {
  std::atomic<int> counter{0};
  TaskGroup group(nullptr);
  for (int i = 0; i < 10; ++i) {
    group.Run([&counter] { counter.fetch_add(1); });
  }
  // Inline groups run eagerly; Wait is a no-op but must be callable.
  EXPECT_EQ(counter.load(), 10);
  group.Wait();
}

TEST(TaskGroupTest, WaitRethrowsFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([] { throw std::runtime_error("task failed"); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // A second Wait does not re-observe the consumed exception.
  group.Wait();
}

TEST(TaskGroupTest, InlineExceptionDeferredToWait) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::runtime_error("inline failure"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

// A single failure rethrows the original exception untouched — no wrapper,
// no suffix — so callers catching specific types keep working.
TEST(TaskGroupTest, SingleFailureRethrownVerbatim) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Run([] { throw std::runtime_error("the only failure"); });
  try {
    group.Wait();
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "the only failure");
  }
}

// Regression: Wait used to rethrow the first exception and silently drop
// the rest. The dropped count must now surface in the rethrown message and
// in the exec.task_exceptions_dropped counter.
TEST(TaskGroupTest, DroppedFailuresSurfaceInMessageAndCounter) {
  obs::SetMetricsEnabled(true);
  obs::Counter* dropped_counter =
      obs::Registry::Global().GetCounter("exec.task_exceptions_dropped");
  uint64_t before = dropped_counter->value();

  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([i] { throw std::runtime_error("task " + std::to_string(i)); });
  }
  try {
    group.Wait();
    FAIL() << "expected SpiderError";
  } catch (const SpiderError& e) {
    std::string message = e.what();
    // Which task loses the race to be "first" is scheduling-dependent; the
    // suppressed count is not.
    EXPECT_NE(message.find("task "), std::string::npos) << message;
    EXPECT_NE(message.find("(+7 more task failures suppressed)"),
              std::string::npos)
        << message;
  }
  EXPECT_EQ(dropped_counter->value(), before + 7);

  // The drop state is consumed: a second Wait observes nothing.
  group.Wait();
  EXPECT_EQ(dropped_counter->value(), before + 7);
}

TEST(TaskGroupTest, TwoInlineFailuresReportOneSuppressed) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::runtime_error("first"); });
  group.Run([] { throw std::runtime_error("second"); });
  try {
    group.Wait();
    FAIL() << "expected SpiderError";
  } catch (const SpiderError& e) {
    // Inline groups run eagerly, so "first" is deterministically first and
    // the singular form is exercised.
    EXPECT_NE(std::string(e.what()).find(
                  "first (+1 more task failure suppressed)"),
              std::string::npos)
        << e.what();
  }
}

TEST(TaskGroupTest, NestedForkJoin) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 16; ++i) {
    outer.Run([&pool, &counter] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 16; ++j) {
        inner.Run([&counter] { counter.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(counter.load(), 16 * 16);
}

TEST(TaskGroupTest, ShortLivedStackGroupsOutliveTheirLastTask) {
  // The last task to finish signals the joiner. Wait() may return as soon
  // as it sees the group drained, and the group then dies with the stack
  // frame, so the worker must be done with the group's mutex and condvar
  // by the time the pending count can read zero. Many tiny groups in a row
  // make the window between "count hit zero" and "notify returned" likely
  // to be hit (TSan reports it as a use of a destroyed mutex).
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kGroups = 5000;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group(&pool);
    group.Run([&counter] { counter.fetch_add(1); });
    group.Run([&counter] { counter.fetch_add(1); });
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 2 * kGroups);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (size_t grain : {1u, 7u, 64u, 10000u}) {
      ExecOptions options;
      options.num_threads = threads;
      std::vector<std::atomic<int>> hits(1237);
      ParallelFor(ThreadPool::For(options), 0, hits.size(), grain,
                  [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at threads="
                                     << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ExecOptions options;
  options.num_threads = 4;
  std::atomic<int> counter{0};
  ThreadPool* pool = ThreadPool::For(options);
  ParallelFor(pool, 5, 5, 1, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  ParallelFor(pool, 5, 6, 1, [&](size_t i) {
    EXPECT_EQ(i, 5u);
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelForTest, HelpingWorkerCanRunNestedParallelFor) {
  ExecOptions options;
  options.num_threads = 3;
  ThreadPool* pool = ThreadPool::For(options);
  std::atomic<int> counter{0};
  ParallelFor(pool, 0, 8, 1, [&](size_t) {
    ParallelFor(pool, 0, 8, 1, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace spider
