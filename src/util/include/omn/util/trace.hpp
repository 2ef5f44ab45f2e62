#pragma once
// Tracing core: hierarchical spans, instants and counter samples.
//
// This is the recording half of omn::obs (the export half — Chrome
// trace-event JSON — lives in src/obs, which depends on this header,
// never the other way around; the core sits in util so every layer down
// to ExecutionContext can record).
//
// Design:
//   - Spans/instants/counter samples are recorded into PER-THREAD
//     append-only buffers.  The hot path takes no lock: the owner
//     thread writes the event into a pre-grown chunk slot and
//     release-publishes a committed count; drain() acquires the count
//     and reads only committed slots.  A mutex exists per buffer but is
//     touched only on chunk growth (once per 1024 events) and at drain.
//   - Recording is compiled in but OFF by default.  Every macro guards
//     on Trace::enabled() (one relaxed atomic load), so an untraced run
//     pays a branch per site and nothing else.  Enabling tracing must
//     never change WORK — spans only observe; the perf gate runs with
//     --trace on to enforce exactly that.
//   - Determinism: every event carries a per-thread `tick` (incremented
//     at span begin AND end), giving a total order per thread that does
//     not depend on the clock.  The golden structural-trace test
//     serializes with tick-normalized timestamps so its bytes are
//     machine-independent; real exports use steady-clock microseconds
//     since the process trace epoch.
//   - Work counts are not kept here.  Each has one owner
//     (lp::Solution / core::LpWork, core::LpCacheStats,
//     serve::ServeStats), so two runs in one process never read each
//     other's numbers; OMN_TRACE_SAMPLE only records a traced sample.
//
// Buffers are append-only for the life of the process: drain() hands
// out events recorded since the previous drain but never frees chunks,
// so a traced run's memory grows with its event count.  That is the
// deliberate trade for a lock-free hot path; tracing is an opt-in
// diagnostic mode, not a production default.

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace omn::util {

/// One recorded trace event.  `tick` orders events within a thread;
/// `micros` is steady-clock time since the process trace epoch.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kBegin = 0,    ///< span opened (Chrome "B")
    kEnd = 1,      ///< span closed (Chrome "E")
    kInstant = 2,  ///< point event, e.g. a basis refactorization ("i")
    kCounter = 3,  ///< counter-track sample ("C"), value in `value`
  };

  Kind kind = Kind::kBegin;
  std::string name;
  std::uint64_t tick = 0;
  std::uint64_t micros = 0;
  double value = 0.0;
};

/// All events drained from one thread, in tick order.
struct ThreadTrace {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

namespace detail {
/// Global enable flag; inline so Trace::enabled() is a single relaxed
/// load at every call site.
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// Static facade over the per-thread buffer registry.
class Trace {
 public:
  /// Whether recording is on.  Relaxed: a site that races an enable
  /// toggle merely records or skips one event.
  static bool enabled() {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Turns recording on/off process-wide.
  static void set_enabled(bool on);

  /// Steady-clock microseconds since the process trace epoch (the first
  /// call into the trace layer).  Monotonic, never wall-clock.
  static std::uint64_t now_micros();

  /// Records a point event on the calling thread.  Callers normally go
  /// through OMN_TRACE_INSTANT, which guards on enabled() first.
  static void instant(std::string name);

  /// Records a counter-track sample on the calling thread (e.g. the
  /// pivot count at a refactorization boundary).
  static void sample(std::string name, double value);

  /// Moves out every event recorded since the previous drain, across
  /// all threads that ever recorded, in stable tid order.  Threads are
  /// assigned dense tids (0, 1, ...) in first-record order.  Safe to
  /// call while other threads record: only committed events are taken.
  static std::vector<ThreadTrace> drain();

 private:
  friend class TraceSpan;
  static void begin_span(std::string name);
  static void end_span(std::string name);
};

/// RAII span.  Construction records kBegin (when tracing is enabled),
/// destruction records the matching kEnd on the same thread — proper
/// nesting is structural, not a protocol the call sites can get wrong.
class TraceSpan {
 public:
  /// Static-name span: OMN_TRACE_SPAN("lp.solve").
  explicit TraceSpan(const char* name) {
    if (Trace::enabled()) open(name);
  }

  /// Lazy-name span for names with a dynamic part; the callable runs
  /// only when tracing is enabled, so the untraced path never builds
  /// the string: OMN_TRACE_SPAN([&] { return "cell " + ...; }).
  template <typename NameFn,
            typename = std::enable_if_t<std::is_invocable_r_v<
                std::string, NameFn&>>>
  explicit TraceSpan(NameFn&& name_fn) {
    if (Trace::enabled()) open(name_fn());
  }

  ~TraceSpan() {
    if (open_) Trace::end_span(std::move(name_));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(std::string name) {
    open_ = true;
    name_ = name;
    Trace::begin_span(std::move(name));
  }

  bool open_ = false;
  std::string name_;
};

}  // namespace omn::util

#define OMN_TRACE_CONCAT_INNER(a, b) a##b
#define OMN_TRACE_CONCAT(a, b) OMN_TRACE_CONCAT_INNER(a, b)

/// Opens a span for the rest of the enclosing scope.  Takes either a
/// string literal or a lazy callable returning std::string.
#define OMN_TRACE_SPAN(...)                                       \
  ::omn::util::TraceSpan OMN_TRACE_CONCAT(omn_trace_span_,        \
                                          __LINE__)(__VA_ARGS__)

/// Records a point event (when tracing is enabled).
#define OMN_TRACE_INSTANT(name)                                   \
  do {                                                            \
    if (::omn::util::Trace::enabled()) {                          \
      ::omn::util::Trace::instant(name);                          \
    }                                                             \
  } while (0)

/// Records a counter-track sample (when tracing is enabled).
#define OMN_TRACE_SAMPLE(name, sample_value)                      \
  do {                                                            \
    if (::omn::util::Trace::enabled()) {                          \
      ::omn::util::Trace::sample(                                 \
          name, static_cast<double>(sample_value));               \
    }                                                             \
  } while (0)
