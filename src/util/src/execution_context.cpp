#include "omn/util/execution_context.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "omn/util/trace.hpp"

namespace omn::util {

ExecutionContext::ExecutionContext(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads > 1) {
    pool_ = std::make_shared<ThreadPool>(threads - 1);
  }
}

const ExecutionContext& ExecutionContext::global() {
  // Magic static: initialization is race-free even when the first callers
  // are concurrent, and every caller gets the same pool.  Const: nobody
  // can attach a service to it.
  static const ExecutionContext context(0);
  return context;
}

ExecutionContext ExecutionContext::serial() { return ExecutionContext(1); }

void ExecutionContext::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  parallel_for(count, body, ForOptions{});
}

void ExecutionContext::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body,
    ForOptions options) const {
  if (count == 0) return;
  std::size_t width = concurrency();
  if (options.max_parallelism > 0) {
    width = std::min(width, options.max_parallelism);
  }
  // One claimant slot per thread that could usefully participate.
  const std::size_t slots = std::min(width, count);
  if (pool_ == nullptr || slots <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Each slot loops claiming the next index off the shared counter until
  // the range is exhausted — work-stealing by construction, so a slot
  // stuck on an expensive item simply stops claiming while the others
  // drain the rest.  The pool-level parallel_for supplies the batch
  // tracking (the caller runs one slot itself and help-runs queued work
  // while waiting) and rethrows the first exception.
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(slots, [&](std::size_t, std::size_t, std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      // One span per claimed item: in a trace, the claim spans on each
      // worker lane show exactly how the dynamic partition balanced (or
      // didn't).  The name is built lazily — untraced runs skip it.
      OMN_TRACE_SPAN([&] { return "ctx.item " + std::to_string(i); });
      try {
        body(i);
      } catch (...) {
        // Abandon unclaimed items so sibling slots wind down promptly.
        next.store(count, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

void ExecutionContext::parallel_for_chunks(
    std::size_t count, std::size_t width,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body)
    const {
  if (count == 0) return;
  if (width == 0) width = concurrency();
  // chunk_count is the single source of truth for the partition (callers
  // size per-chunk state with it); the chunk size follows from it.
  const std::size_t parts = chunk_count(count, width);
  const std::size_t chunk = (count + parts - 1) / parts;
  const auto run_chunk = [&](std::size_t p) {
    body(p * chunk, std::min(count, (p + 1) * chunk), p);
  };
  if (pool_ == nullptr || parts <= 1) {
    for (std::size_t p = 0; p < parts; ++p) run_chunk(p);
    return;
  }
  parallel_for(parts, run_chunk);
}

std::size_t ExecutionContext::chunk_count(std::size_t count,
                                          std::size_t width) {
  if (count == 0) return 0;
  // Chunk size is ceil(count / min(count, width)); the chunk count is then
  // however many such chunks the range needs, so every chunk is non-empty
  // (e.g. count 9, width 4 -> chunks of 3 -> 3 chunks, not 4).
  const std::size_t cap = std::min(count, std::max<std::size_t>(1, width));
  const std::size_t chunk = (count + cap - 1) / cap;
  return (count + chunk - 1) / chunk;
}

}  // namespace omn::util
