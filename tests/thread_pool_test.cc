// ThreadPool growth semantics: `EnsureThreads` grows the pool IN PLACE —
// existing workers keep running and are reused — and never shrinks.
// Regression for the serving layer's alternating-batch-size workloads,
// where a larger worker count used to join and re-spawn the whole pool.

#include "util/thread_pool.h"

#include <atomic>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/cancel.h"
#include "util/sync.h"

namespace xpv {
namespace {

/// Runs `n` tasks that rendezvous (all must be running simultaneously
/// before any finishes), proving `n` distinct live workers; returns their
/// thread ids.
std::set<std::thread::id> RendezvousWorkerIds(ThreadPool* pool, int n) {
  Mutex mu;
  CondVar cv;
  int arrived = 0;
  std::set<std::thread::id> ids;
  for (int i = 0; i < n; ++i) {
    pool->Submit([&mu, &cv, &arrived, &ids, n] {
      MutexLock lock(mu);
      ids.insert(std::this_thread::get_id());
      ++arrived;
      cv.NotifyAll();
      while (arrived < n) cv.Wait(mu);
    });
  }
  pool->Wait();
  return ids;
}

TEST(ThreadPoolTest, EnsureThreadsGrowsInPlaceAndReusesWorkers) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  const std::set<std::thread::id> before = RendezvousWorkerIds(&pool, 2);
  ASSERT_EQ(before.size(), 2u);

  pool.EnsureThreads(8);
  EXPECT_EQ(pool.num_threads(), 8);
  // Alternating small requests never shrink the pool.
  pool.EnsureThreads(2);
  EXPECT_EQ(pool.num_threads(), 8);

  // An 8-way rendezvous requires all 8 workers alive at once; the two
  // original workers are among them — they were reused, not joined and
  // re-spawned.
  const std::set<std::thread::id> after = RendezvousWorkerIds(&pool, 8);
  ASSERT_EQ(after.size(), 8u);
  for (std::thread::id id : before) {
    EXPECT_EQ(after.count(id), 1u) << "original worker was not reused";
  }
}

TEST(ThreadPoolTest, EnsureThreadsIsSafeWhileTasksRun) {
  ThreadPool pool(1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  pool.Submit([&] {
    MutexLock lock(mu);
    while (!release) cv.Wait(mu);
  });
  // Grow while the single worker is blocked inside a task.
  pool.EnsureThreads(3);
  EXPECT_EQ(pool.num_threads(), 3);
  // The new workers drain the queue even though the first is busy.
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  while (done.load() < 4) std::this_thread::yield();
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.NotifyAll();
  pool.Wait();
  EXPECT_EQ(done.load(), 4);
}

// --------------------------------------------- task-exception safety

TEST(ThreadPoolTest, TaskGroupCapturesExceptionInsteadOfTerminating) {
  // A throwing task must fail the group STRUCTURALLY: the worker survives,
  // Wait() returns, ok() flips, and RethrowIfFailed() re-raises the
  // ORIGINAL exception type on the awaiting thread.
  ThreadPool pool(2);
  ThreadPool::TaskGroup group(&pool);
  group.Submit([] { throw std::runtime_error("task boom"); });
  group.Wait();
  EXPECT_FALSE(group.ok());
  try {
    group.RethrowIfFailed();
    FAIL() << "expected the task's exception to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  // The pool is intact: a fresh group still runs to completion.
  std::atomic<int> ran{0};
  ThreadPool::TaskGroup after(&pool);
  after.Submit([&ran] { ran.fetch_add(1); });
  after.Wait();
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, TaskGroupFailureCancelsQueuedSiblings) {
  // After one task fails, queued siblings are SKIPPED (they count as
  // complete without running) — a failed batch stops burning CPU on work
  // whose result will be thrown away.
  ThreadPool pool(1);  // Single worker: strict queue order.
  Mutex mu;
  CondVar cv;
  bool release = false;
  ThreadPool::TaskGroup group(&pool);
  group.Submit([&] {
    MutexLock lock(mu);
    while (!release) cv.Wait(mu);
    throw std::runtime_error("first fails");
  });
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.Submit([&ran] { ran.fetch_add(1); });
  }
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.NotifyAll();
  group.Wait();
  EXPECT_FALSE(group.ok());
  EXPECT_EQ(ran.load(), 0);       // All siblings were queued behind it...
  EXPECT_EQ(group.skipped(), 8u); // ...and skipped after the failure.
}

TEST(ThreadPoolTest, TaskGroupExternalCancelSkipsTasks) {
  ThreadPool pool(1);
  CancelToken cancel = CancelToken::Cancellable();
  cancel.Cancel();  // Dead before any task starts.
  std::atomic<int> ran{0};
  {
    CancelScope scope(cancel);
    ThreadPool::TaskGroup group(&pool, CancelScope::Current());
    for (int i = 0; i < 4; ++i) {
      group.Submit([&ran] { ran.fetch_add(1); });
    }
    group.Wait();
    EXPECT_TRUE(group.ok());  // Cancellation is not a task failure.
    EXPECT_EQ(group.skipped(), 4u);
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, RawSubmitEscapeeIsCountedNotFatal) {
  // Raw Submit (no group) has nowhere to deliver an exception; the worker
  // must swallow and count it rather than std::terminate the process.
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("escapee"); });
  pool.Wait();
  EXPECT_EQ(pool.uncaught_task_exceptions(), 1u);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });  // Worker still alive.
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

// --------------------------------------------------- bounded admission

TEST(ThreadPoolTest, BoundedQueueRefusesWithoutConsumingTheTask) {
  ThreadPool pool(1, /*max_queue=*/2);
  Mutex mu;
  CondVar cv;
  bool release = false;
  // Wedge the single worker so submissions pile into the queue — and WAIT
  // until the worker holds the wedge, so it no longer occupies a queue
  // slot (otherwise the fill below races the dequeue).
  std::atomic<bool> wedged{false};
  pool.Submit([&] {
    MutexLock lock(mu);
    wedged.store(true);
    cv.NotifyAll();
    while (!release) cv.Wait(mu);
  });
  {
    MutexLock lock(mu);
    while (!wedged.load()) cv.Wait(mu);
  }
  // Fill the bounded queue, then overflow it.
  std::atomic<int> ran{0};
  auto count = [&ran] { ran.fetch_add(1); };
  std::function<void()> task = count;
  ASSERT_TRUE(pool.TrySubmit(task));
  task = count;
  ASSERT_TRUE(pool.TrySubmit(task));
  task = count;
  EXPECT_FALSE(pool.TrySubmit(task));
  ASSERT_NE(task, nullptr);  // Refusal does NOT consume the task...
  task();                    // ...so the caller can run it inline.
  EXPECT_EQ(pool.queue_rejections(), 1u);
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.NotifyAll();
  pool.Wait();
  EXPECT_EQ(ran.load(), 3);  // 2 pooled + 1 inline.
}

TEST(ThreadPoolTest, TaskGroupDegradesToInlineOnFullQueue) {
  // TaskGroup::Submit over a full queue runs the chunk on the SUBMITTING
  // thread (caller-pays backpressure): every task still completes exactly
  // once and the group drains normally.
  ThreadPool pool(1, /*max_queue=*/1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  std::atomic<bool> wedged{false};
  pool.Submit([&] {
    MutexLock lock(mu);
    wedged.store(true);
    cv.NotifyAll();
    while (!release) cv.Wait(mu);
  });
  {
    MutexLock lock(mu);
    while (!wedged.load()) cv.Wait(mu);
  }
  std::atomic<int> ran{0};
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<int> inline_runs{0};
  ThreadPool::TaskGroup group(&pool);
  for (int i = 0; i < 6; ++i) {
    group.Submit([&ran, &inline_runs, submitter] {
      ran.fetch_add(1);
      if (std::this_thread::get_id() == submitter) inline_runs.fetch_add(1);
    });
  }
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.NotifyAll();
  group.Wait();
  EXPECT_TRUE(group.ok());
  EXPECT_EQ(ran.load(), 6);
  EXPECT_GE(inline_runs.load(), 1);  // The overflow ran caller-side.
  EXPECT_GE(pool.queue_rejections(), 1u);
}

TEST(ThreadPoolTest, RunsAllTasksAcrossWaitCycles) {
  ThreadPool pool(4);
  std::vector<int> results(64, 0);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&results, i] { results[static_cast<size_t>(i)] += i; });
    }
    pool.Wait();
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], 3 * i);
  }
}

}  // namespace
}  // namespace xpv
