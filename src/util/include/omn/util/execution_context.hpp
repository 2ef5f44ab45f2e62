#pragma once
// ExecutionContext: the process's one scheduler handle.
//
// Every parallel stage of the pipeline — the designer's Monte Carlo
// rounding attempts, DesignSweep experiment grids, the packet simulator's
// batches — used to construct its own ThreadPool per call.  That wastes
// thread startup on hot loops (adaptive_redesign re-designs every epoch)
// and oversubscribes the machine when stages nest (a sweep cell fanning
// out its own attempts).  An ExecutionContext fixes both: it is a cheap,
// copyable handle to one shared ThreadPool that callers pass down through
// the layers, so nested parallel stages feed the same queue instead of
// spawning rival pools.
//
// Ownership rules:
//  - `ExecutionContext::global()` is the process-wide default (hardware
//    concurrency), constructed race-free on first use and reused by every
//    caller that does not inject its own context.  It is handed out as a
//    const reference and carries no services: copy it to attach one;
//  - `ExecutionContext(n)` owns a fresh pool of n - 1 workers; copies of
//    the handle share it, and the pool is joined when the last copy dies;
//  - `ExecutionContext::serial()` has no pool at all — every parallel_for
//    runs inline on the calling thread (useful for baselines and tests).
//
// Scheduling: parallel_for uses *dynamic* scheduling — claimants pull
// one index at a time off a shared atomic counter — so skewed
// per-item workloads (e.g. color-constrained design cells next to plain
// ones) balance instead of straggling behind a static partition.  For
// callers whose determinism depends on the partition itself (the packet
// simulator assigns one RNG stream per chunk), parallel_for_chunks fixes
// the partition as a pure function of (count, width) and only the
// *execution order* of chunks is dynamic.
//
// Nested and concurrent calls are safe: the underlying ThreadPool batches
// track their own completion and waiters help-run queued work, so an item
// body may itself call parallel_for on the same context.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <typeindex>
#include <utility>

#include "omn/util/thread_pool.hpp"

namespace omn::util {

class ExecutionContext {
 public:
  /// `threads` is the total number of threads the context may use, the
  /// calling thread included: 0 = hardware_concurrency(), 1 = serial
  /// (no pool).  A context constructed with n > 1 owns a pool of n - 1
  /// workers shared by all copies of the handle.
  explicit ExecutionContext(std::size_t threads = 0);

  /// The process-wide default context (hardware concurrency, no
  /// services).  The underlying pool is constructed on first use
  /// (thread-safe, C++ magic static) and lives for the rest of the
  /// process.
  static const ExecutionContext& global();

  /// A context with no pool: all work runs inline on the calling thread.
  static ExecutionContext serial();

  /// Total threads available to this context, calling thread included.
  std::size_t concurrency() const { return pool_ ? pool_->size() + 1 : 1; }

  struct ForOptions {
    /// Cap on the number of threads concurrently claiming items
    /// (0 = the context's full concurrency).  The cap bounds *this call's*
    /// claimants only; the shared pool is never resized.
    std::size_t max_parallelism = 0;
  };

  /// Runs body(i) for every i in [0, count) with dynamic scheduling:
  /// claimants pull one index at a time from an atomic counter, so
  /// expensive items never straggle behind a static partition.  The
  /// calling thread participates and help-runs unrelated queued work while
  /// waiting; nested and concurrent calls are safe.  Rethrows the first
  /// exception a body raised (remaining unclaimed items are abandoned).
  /// Item execution order is unspecified — bodies must be independent.
  /// (Two overloads instead of a defaulted ForOptions argument: a nested
  /// class with member initializers cannot be defaulted in-class.)
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t index)>& body) const;
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t index)>& body,
                    ForOptions options) const;

  /// Splits [0, count) into chunk_count(count, width) contiguous chunks —
  /// a pure function of (count, width), never of the pool size — and runs
  /// body(begin, end, chunk) once per chunk, dynamically scheduled.  Use
  /// this when per-chunk state (e.g. one RNG stream per chunk) must stay
  /// deterministic for a given width while still sharing the pool.
  /// `width` = 0 selects concurrency().
  void parallel_for_chunks(
      std::size_t count, std::size_t width,
      const std::function<void(std::size_t begin, std::size_t end,
                               std::size_t chunk)>& body) const;

  /// Number of chunks parallel_for_chunks uses for (count, width): at most
  /// min(count, width), every chunk non-empty, 0 when count == 0.
  static std::size_t chunk_count(std::size_t count, std::size_t width);

  /// The wrapped pool, or nullptr for a serial context.
  ThreadPool* pool() const { return pool_.get(); }

  // ---- services -----------------------------------------------------------
  //
  // A context also carries a type-erased map of *services*: state that
  // wants the same plumbing as the pool (e.g. core::LpCache, whose
  // in-memory tier must be shared by every layer a sweep fans out
  // through).  The map is part of the handle's value: a copy starts with
  // the services its source had at copy time, and set_service on one
  // handle never changes another.  The service objects themselves are
  // shared, so every copy that holds a cache talks to the same cache.
  // global() carries none, so no caller can install a service for the
  // whole process.  Set services before handing the context to other
  // threads: find_service is a plain read, safe concurrently with other
  // reads, not with set_service on the same handle.

  /// The service of type T installed on this handle, or nullptr.
  template <typename T>
  std::shared_ptr<T> find_service() const {
    const auto it = services_.find(std::type_index(typeid(T)));
    return it != services_.end() ? std::static_pointer_cast<T>(it->second)
                                 : nullptr;
  }

  /// Installs (or, with nullptr, removes) the service of type T on this
  /// handle.  The handle and its later copies keep the object alive.
  template <typename T>
  void set_service(std::shared_ptr<T> service) {
    if (service == nullptr) {
      services_.erase(std::type_index(typeid(T)));
    } else {
      services_[std::type_index(typeid(T))] = std::move(service);
    }
  }

 private:
  /// nullptr = serial context.
  std::shared_ptr<ThreadPool> pool_;
  std::map<std::type_index, std::shared_ptr<void>> services_;
};

}  // namespace omn::util
