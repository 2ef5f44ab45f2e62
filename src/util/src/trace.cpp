#include "omn/util/trace.hpp"

#include <array>
#include <chrono>
#include <memory>

#include "omn/util/thread_annotations.hpp"

namespace omn::util {
namespace {

constexpr std::size_t kChunkSize = 1024;

/// Fixed-size block of event slots.  Chunks are allocated once and never
/// move or shrink, so the owner thread can write into a slot while other
/// chunks are being read — the committed-count handshake below is the
/// only synchronization the slots need.
struct Chunk {
  std::array<TraceEvent, kChunkSize> slots;
};

/// One thread's append-only event buffer.
///
/// Writer protocol (owner thread only): grow if at capacity (cold, takes
/// mutex_ to publish the new chunk to readers), write the event into the
/// next slot through the writer-private chunk list, then release-store
/// the committed count.  No lock on the steady-state path.
///
/// Reader protocol (drain, any thread): take mutex_ (serializes drains
/// and pins the shared chunk list against growth), acquire-load the
/// committed count, and move out slots [drained_, committed).  The
/// acquire pairs with the writer's release, so every slot below the
/// loaded count is fully written.
class ThreadBuffer {
 public:
  explicit ThreadBuffer(std::uint32_t tid) : tid_(tid) {}

  std::uint32_t tid() const { return tid_; }

  /// Owner thread only.
  void append(TraceEvent event) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n == writer_chunks_.size() * kChunkSize) grow();
    writer_chunks_[n / kChunkSize]->slots[n % kChunkSize] = std::move(event);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Owner thread only: the next per-thread sequence number.
  std::uint64_t next_tick() { return tick_++; }

  /// Any thread.  Returns events recorded since the previous drain.
  std::vector<TraceEvent> drain() {
    LockGuard lock(mutex_);
    const std::size_t committed = count_.load(std::memory_order_acquire);
    std::vector<TraceEvent> out;
    out.reserve(committed - drained_);
    for (std::size_t n = drained_; n < committed; ++n) {
      out.push_back(std::move(chunks_[n / kChunkSize]->slots[n % kChunkSize]));
    }
    drained_ = committed;
    return out;
  }

 private:
  void grow() {
    auto chunk = std::make_unique<Chunk>();
    writer_chunks_.push_back(chunk.get());
    LockGuard lock(mutex_);
    chunks_.push_back(std::move(chunk));
  }

  const std::uint32_t tid_;

  // Writer-private state: only the owner thread touches these.
  std::vector<Chunk*> writer_chunks_;
  std::uint64_t tick_ = 0;

  // The committed-count handshake between writer and drain.
  std::atomic<std::size_t> count_{0};

  Mutex mutex_;
  std::vector<std::unique_ptr<Chunk>> chunks_ OMN_GUARDED_BY(mutex_);
  std::size_t drained_ OMN_GUARDED_BY(mutex_) = 0;
};

/// Process-wide buffer registry.  Leaked singleton: worker threads may
/// outlive main()'s statics, and drained buffers must survive the
/// threads that filled them.
class Registry {
 public:
  static Registry& instance() {
    static Registry* registry = new Registry;
    return *registry;
  }

  /// The calling thread's buffer, registering it on first use with a
  /// dense tid assigned in first-record order.
  ThreadBuffer& local() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      LockGuard lock(mutex_);
      auto owned =
          std::make_unique<ThreadBuffer>(static_cast<std::uint32_t>(
              buffers_.size()));
      buffer = owned.get();
      buffers_.push_back(std::move(owned));
    }
    return *buffer;
  }

  std::vector<ThreadTrace> drain_all() {
    std::vector<ThreadBuffer*> buffers;
    {
      LockGuard lock(mutex_);
      for (const auto& buffer : buffers_) buffers.push_back(buffer.get());
    }
    std::vector<ThreadTrace> out;
    for (ThreadBuffer* buffer : buffers) {
      ThreadTrace thread;
      thread.tid = buffer->tid();
      thread.events = buffer->drain();
      if (!thread.events.empty()) out.push_back(std::move(thread));
    }
    return out;
  }

 private:
  Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ OMN_GUARDED_BY(mutex_);
};

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void record(TraceEvent::Kind kind, std::string name, double value) {
  ThreadBuffer& buffer = Registry::instance().local();
  TraceEvent event;
  event.kind = kind;
  event.name = std::move(name);
  event.tick = buffer.next_tick();
  event.micros = Trace::now_micros();
  event.value = value;
  buffer.append(std::move(event));
}

}  // namespace

void Trace::set_enabled(bool on) {
  // Touch the epoch before enabling so the first traced event never
  // races epoch initialization against now_micros() readers.
  trace_epoch();
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t Trace::now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

void Trace::instant(std::string name) {
  record(TraceEvent::Kind::kInstant, std::move(name), 0.0);
}

void Trace::sample(std::string name, double value) {
  record(TraceEvent::Kind::kCounter, std::move(name), value);
}

std::vector<ThreadTrace> Trace::drain() {
  return Registry::instance().drain_all();
}

void Trace::begin_span(std::string name) {
  record(TraceEvent::Kind::kBegin, std::move(name), 0.0);
}

void Trace::end_span(std::string name) {
  record(TraceEvent::Kind::kEnd, std::move(name), 0.0);
}

}  // namespace omn::util
