#ifndef XPV_UTIL_THREAD_POOL_H_
#define XPV_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/sync.h"

namespace xpv {

/// A small fixed-size worker pool: `num_threads` std::threads draining a
/// FIFO work queue. Built for batch pipelines (`ViewCache::Execute`) that
/// submit a handful of chunk tasks and then barrier on `Wait`.
///
/// Semantics:
///  - `Submit` enqueues a task; any worker may pick it up.
///  - `TrySubmit` is the bounded flavor: when the pool was built with a
///    queue bound and the queue is full, it refuses (returns false)
///    instead of growing the backlog — the backpressure primitive the
///    serving layer's admission control sits on. The caller runs the task
///    inline or sheds it; `Submit` ignores the bound (internal callers
///    that must not be refused).
///  - `Wait` blocks until the queue is empty AND no task is running, so
///    after it returns every effect of every submitted task is visible to
///    the caller (the mutex hand-off orders the memory).
///  - Tasks must not submit to the pool they run on. A task that throws
///    no longer terminates the process: the pool catches the escapee and
///    counts it (`uncaught_task_exceptions`) — but raw-`Submit` tasks
///    have nowhere to report, so prefer `TaskGroup`, which captures the
///    exception and rethrows it to the awaiting owner.
///
/// The pool is reusable: Submit/Wait cycles can repeat, and the threads
/// park on the condition variable between batches. Destruction joins all
/// workers (outstanding tasks finish first).
///
/// `Submit`, `TrySubmit`, `Wait`, `EnsureThreads` and `num_threads` are
/// safe to call from multiple threads; note that `Wait` blocks until the
/// whole queue is drained, including tasks submitted by other callers.
class ThreadPool {
 public:
  /// `max_queue` == 0 leaves the queue unbounded; otherwise `TrySubmit`
  /// refuses once `max_queue` tasks are waiting (running tasks don't
  /// count — the bound is on backlog, not concurrency).
  explicit ThreadPool(int num_threads, size_t max_queue = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Bounded enqueue: false when the queue bound is configured and
  /// reached (the task is NOT consumed — the caller still owns running
  /// or shedding it). Rejections are counted in `queue_rejections()`.
  [[nodiscard]] bool TrySubmit(std::function<void()>& task);

  /// Blocks until all submitted tasks have finished — including tasks
  /// submitted by OTHER callers sharing this pool. Single-owner batches
  /// only; concurrent callers should await a `TaskGroup` instead.
  void Wait();

  /// A set of tasks that can be awaited independently of other callers'
  /// submissions to the same pool: `Wait` returns when THIS group's tasks
  /// have finished, no matter how busy the shared pool is — a batch
  /// cannot be starved by other batches' sustained submissions.
  ///
  /// Overload safety:
  ///  - A `cancel` token makes the group cooperative: tasks still queued
  ///    when the token expires are *skipped* (they complete without
  ///    running their body), so a cancelled batch stops consuming workers
  ///    instead of grinding through a dead backlog.
  ///  - An exception escaping a task body *fails the group*: the first
  ///    escapee is captured, the group's token is cancelled (draining the
  ///    remaining queued tasks as skips), and `RethrowIfFailed` rethrows
  ///    it on the awaiting thread — a structured error for the owner, not
  ///    `std::terminate` on a worker.
  ///  - When the pool's bounded queue refuses a submission, the task runs
  ///    inline on the submitting thread — backpressure degrades to
  ///    caller-pays, never to loss or deadlock.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool* pool, CancelToken cancel = {})
        : pool_(pool), cancel_(std::move(cancel)) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    /// Drains the group: submitted task wrappers touch this object after
    /// running, so destruction (including exception unwind between
    /// Submit calls) must wait them out rather than dangle.
    ~TaskGroup() { Wait(); }

    void Submit(std::function<void()> task);

    /// Blocks until every task submitted through this group has finished
    /// (ran, was skipped by cancellation, or failed). The usual pool
    /// memory-ordering guarantee applies to the group.
    void Wait();

    /// After `Wait`: true when no task body threw.
    [[nodiscard]] bool ok() const;

    /// After `Wait`: rethrows the first captured task exception, if any —
    /// the group's failure surfaces on the awaiting thread with its
    /// original type (`CancelledError`, `FaultInjectedError`, ...).
    void RethrowIfFailed();

    /// Tasks whose bodies were skipped because the group was cancelled
    /// (or had already failed) before they ran.
    [[nodiscard]] uint64_t skipped() const;

   private:
    /// Runs one task body under the group's protocol (skip / capture).
    void RunTask(const std::function<void()>& task);
    void Finish();  // Decrements pending_, notifies the waiter.

    ThreadPool* pool_;
    CancelToken cancel_;
    mutable Mutex mu_;
    CondVar cv_;
    int pending_ XPV_GUARDED_BY(mu_) = 0;
    uint64_t skipped_ XPV_GUARDED_BY(mu_) = 0;
    std::exception_ptr error_ XPV_GUARDED_BY(mu_);  // First task-body escapee.
  };

  /// Grows the pool *in place* to at least `num_threads` workers: existing
  /// workers keep running (and keep their queued tasks); only the missing
  /// ones are spawned. Never shrinks. Safe while tasks are in flight —
  /// this is how the serving layer adapts to alternating batch sizes
  /// without joining and re-spawning a live pool.
  void EnsureThreads(int num_threads);

  int num_threads() const;

  /// Tasks currently waiting in the queue (racy snapshot; telemetry).
  size_t queue_depth() const;

  /// `TrySubmit` refusals since construction.
  uint64_t queue_rejections() const {
    return queue_rejections_.load(std::memory_order_relaxed);
  }

  /// Exceptions that escaped raw-`Submit` task bodies (caught by the
  /// worker's safety net; `TaskGroup` tasks capture their own and never
  /// reach it).
  uint64_t uncaught_task_exceptions() const {
    return uncaught_task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar work_cv_;  // Signals workers: work or stop.
  CondVar idle_cv_;  // Signals Wait: queue drained.
  std::deque<std::function<void()>> queue_ XPV_GUARDED_BY(mu_);
  const size_t max_queue_;  // 0 = unbounded.
  int active_ XPV_GUARDED_BY(mu_) = 0;  // Tasks currently executing.
  bool stopping_ XPV_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ XPV_GUARDED_BY(mu_);
  std::atomic<uint64_t> queue_rejections_{0};
  std::atomic<uint64_t> uncaught_task_exceptions_{0};
};

}  // namespace xpv

#endif  // XPV_UTIL_THREAD_POOL_H_
