#include "omn/util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace omn::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  // Join outside the lock: the workers need mutex_ to drain the queue and
  // exit.
  for (auto& worker : workers_) worker.join();
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
        cv_batch_.notify_all();
      });
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
