#pragma once
// A small fixed-size thread pool used for embarrassingly parallel work:
// Monte Carlo packet simulation batches, the designer's rounding attempts,
// and per-seed experiment sweeps (core::DesignSweep).  Library code
// normally reaches the pool through a util::ExecutionContext handle (one
// shared pool per process, dynamic chunking) rather than constructing
// pools directly.
//
// Design notes (following the hpc-parallel guides):
//  - workers are created once and joined in the destructor (RAII);
//  - parallel_for is the one way to run work, so every queued closure
//    belongs to some waiter's batch;
//  - parallel_for hands each worker a contiguous index range, so shared
//    inputs are read-only and each worker writes only to its own slot —
//    no locks on the hot path;
//  - every parallel_for call tracks completion through its own Batch, so
//    overlapping calls from multiple threads (or nested calls from inside
//    a task) never cross-talk: each waiter blocks only on its own chunks
//    and help-runs queued tasks while it waits, which also makes nested
//    parallel_for deadlock-free on a saturated pool;
//  - chunk exceptions are captured and rethrown to the parallel_for
//    caller, never std::terminate;
//  - the pool degrades gracefully to inline execution when hardware
//    concurrency is 1 (as on single-core CI machines).

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "omn/util/thread_annotations.hpp"

namespace omn::util {

class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Splits [0, count) into `parts = min(count, size() + 1)` contiguous
  /// chunks and runs body(begin, end, chunk_index) with chunk_index in
  /// [0, parts) — so scratch arrays may be sized by the chunk count.  The
  /// calling thread runs the first chunk (as chunk_index parts - 1) and
  /// help-runs queued tasks while waiting, so concurrent and nested calls
  /// are safe.  Rethrows the first exception a chunk raised.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t begin, std::size_t end,
                                             std::size_t chunk)>& body);

 private:
  /// Per-parallel_for completion state; lives on the waiter's stack.  Its
  /// fields are protected by the pool's mutex_ (a nested struct cannot
  /// name the enclosing instance's mutex in OMN_GUARDED_BY, but every
  /// access site also touches annotated members, so the analysis checks
  /// the same locked regions).
  struct Batch {
    std::size_t pending = 0;
    std::exception_ptr error;
  };

  void worker_loop();
  /// Runs one queued closure (queue must be non-empty).  Drops the mutex
  /// around the closure itself and reacquires it before returning; the
  /// closures are self-contained and never throw.
  void run_one() OMN_REQUIRES(mutex_);
  /// Blocks until batch.pending == 0, executing queued tasks while waiting.
  void help_until_done(Batch& batch);

  Mutex mutex_;
  std::queue<std::function<void()>> queue_ OMN_GUARDED_BY(mutex_);
  CondVar cv_task_;   // workers: queue non-empty or stopping
  CondVar cv_batch_;  // batch waiters: done or stealable work
  bool stopping_ OMN_GUARDED_BY(mutex_) = false;
  /// Written only by the constructor and destructor, when no other thread
  /// may call in (workers never touch it), so reads need no lock.
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace omn::util
