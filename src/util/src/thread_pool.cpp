#include "omn/util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace omn::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Construction is single-threaded by definition; the analysis does not
  // require mutex_ here (the object is not yet shared), and the worker
  // threads only observe workers_ through their own entry point.
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  // Claim the worker handles under the lock, then join outside it: the
  // workers themselves need mutex_ to drain the queue and exit.
  std::vector<std::thread> claimed;
  {
    LockGuard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    claimed.swap(workers_);
  }
  cv_task_.notify_all();
  for (auto& worker : claimed) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // The queued closure owns its whole lifecycle: run, capture the first
  // exception for wait_idle(), and retire from the in-flight count.  That
  // way worker_loop and help_until_done can execute any queued closure
  // without knowing whether it came from submit() or parallel_for().
  auto wrapped = [this, t = std::move(task)] {
    std::exception_ptr err;
    try {
      t();
    } catch (...) {
      err = std::current_exception();
    }
    LockGuard lock(mutex_);
    if (err && !error_) error_ = err;
    --in_flight_;
    if (in_flight_ == 0) cv_idle_.notify_all();
  };
  {
    LockGuard lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit called after stop()");
    }
    queue_.push(std::move(wrapped));
    ++in_flight_;
  }
  cv_task_.notify_one();
  cv_batch_.notify_all();
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  {
    LockGuard lock(mutex_);
    while (in_flight_ != 0) cv_idle_.wait(mutex_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = size();
  const std::size_t chunk =
      (count + workers) / (workers + 1);  // ceil(count / (workers + 1))
  const std::size_t parts = (count + chunk - 1) / chunk;  // non-empty chunks

  Batch batch;
  batch.pending = parts;
  {
    LockGuard lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::parallel_for called after stop()");
    }
    for (std::size_t p = 1; p < parts; ++p) {
      const std::size_t begin = p * chunk;
      const std::size_t end = std::min(count, begin + chunk);
      queue_.push([this, &body, &batch, begin, end, p] {
        std::exception_ptr err;
        try {
          body(begin, end, p - 1);
        } catch (...) {
          err = std::current_exception();
        }
        LockGuard inner(mutex_);
        if (err && !batch.error) batch.error = err;
        --batch.pending;
        --in_flight_;
        if (in_flight_ == 0) cv_idle_.notify_all();
        cv_batch_.notify_all();
      });
      ++in_flight_;
    }
  }
  cv_task_.notify_all();
  cv_batch_.notify_all();

  // The calling thread runs the first chunk (as the last chunk index, so
  // pool-side chunks keep the stable indices 0..parts-2), then helps drain
  // the queue until its own batch has finished.
  {
    std::exception_ptr err;
    try {
      body(0, std::min(chunk, count), parts - 1);
    } catch (...) {
      err = std::current_exception();
    }
    LockGuard lock(mutex_);
    if (err && !batch.error) batch.error = err;
    --batch.pending;
  }
  cv_batch_.notify_all();
  help_until_done(batch);
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::worker_loop() {
  LockGuard lock(mutex_);
  for (;;) {
    while (!stopping_ && queue_.empty()) cv_task_.wait(mutex_);
    if (queue_.empty()) return;  // stopping_ and drained
    run_one();
  }
}

void ThreadPool::run_one() {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop();
  mutex_.unlock();
  task();  // self-contained: never throws, does its own accounting
  mutex_.lock();
}

void ThreadPool::help_until_done(Batch& batch) {
  LockGuard lock(mutex_);
  for (;;) {
    if (batch.pending == 0) return;
    if (!queue_.empty()) {
      run_one();
      continue;
    }
    // Woken by batch completion or newly stealable work; loop re-checks.
    cv_batch_.wait(mutex_);
  }
}

}  // namespace omn::util
