#pragma once
// ServeSession: the long-lived incremental-redesign daemon behind
// `omn_design serve`.
//
// A session owns a core::DesignState (instance + warm solver state) and
// an optional Journal, and speaks the line protocol of
// omn/serve/event.hpp on an istream/ostream pair (stdin/stdout in the
// CLI).  Lifecycle of one mutation event:
//
//   parse -> apply to the DesignState -> journal append + flush
//         -> redesign (warm where the config allows) -> "ok ..." ack
//
// Apply precedes journal so only successfully applied events are ever
// recorded (a rejected event must not poison replay); journal precedes
// the ack so an acknowledged event survives SIGKILL.  A crash between
// apply and the ack loses at most that unacknowledged event — the
// consistency model a line client expects.
//
// Responses are single lines:
//   ok <seq> <kind> status=<s> cost=<c> pivots=<p> warm=<0|1>
//      cache=<0|1> wall_us=<n>          (mutations)
//   ok <seq> design status=<s> cost=<c> reflectors=<n> digest=<hex32>
//                                        (query)
//   ok <seq> stats events=<n> redesigns=<n> replayed=<n> pivots=<n>
//      refactorizations=<n> warm_hits=<n> cache_hits=<n> cache_misses=<n>
//      cache_disk_reads=<n> cache_disk_writes=<n> journal_seq=<seq>
//      uptime_us=<n>                      (stats — this session's live
//                                         counters, no state change,
//                                         never journaled)
//   ok <seq> snapshot journal=<path|none>
//   ok <seq> bye                         (quit; EOF behaves like quit)
//   err parse: <why> | err apply: <why>  (the session keeps running)
// The stats cache_* fields read the session's own LpCache (all 0 without
// one, so in every warm session): cache_disk_reads is its disk hits,
// cache_disk_writes its insertions when it has a directory.
// run() additionally opens with `ok <seq> ready status=<s> cost=<c>
// reflectors=<built> replayed=<k> digest=<hex32>` (the same design
// fields a query would answer; <seq> = <k> after a resume) so a
// supervisor can see a resumed session converge before sending anything.
//
// Threading: one session is confined to one thread (the redesigns fan
// out on the session's ExecutionContext; a cold session's shared LpCache
// service may be used concurrently by other threads).

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "omn/core/design_state.hpp"
#include "omn/core/lp_work.hpp"
#include "omn/serve/event.hpp"
#include "omn/serve/journal.hpp"
#include "omn/util/json.hpp"
#include "omn/util/timer.hpp"

namespace omn::serve {

/// Applies one mutation event to a DesignState (throws
/// std::invalid_argument on a protocol violation, std::logic_error for
/// non-mutations).  Shared by ServeSession and the differential tests so
/// "what an event means" has exactly one home.
void apply_event(core::DesignState& state, const Event& event);

struct ServeOptions {
  core::DesignerConfig config;
  /// Journal file ("" = run without crash durability).
  std::string journal_path;
  /// Metrics JSON file written at quit/EOF ("" = none).
  std::string metrics_path;
};

struct ServeStats {
  std::size_t events = 0;        ///< mutations accepted this session
  std::size_t redesigns = 0;     ///< designer runs (initial + per event)
  std::size_t replayed = 0;      ///< journal events re-applied on resume
  std::size_t parse_errors = 0;
  std::size_t apply_errors = 0;
  std::size_t snapshots = 0;
  /// LP work summed over redesigns (core::LpWork's rule, as in sweeps).
  core::LpWork lp;
  /// Wall seconds of each redesign, in order (p50/p99 in the metrics).
  std::vector<double> redesign_seconds;
};

/// One redesign-loop metrics record: `label`, events, redesigns, the LP
/// work (LpWork::Keys::kSession), redesign_wall_p50/p99 and the summed
/// wall_seconds.  E15 records one per churn variant; metrics_json() adds
/// the session-only counters (replayed, parse/apply errors, snapshots).
util::Json to_json(const ServeStats& stats, std::string label);

class ServeSession {
 public:
  /// Fresh session over `base`: runs the initial design and — when
  /// options.journal_path is set — writes a new journal (overwriting any
  /// existing file).
  ServeSession(net::OverlayInstance base, ServeOptions options,
               util::ExecutionContext context);

  /// Resumes from options.journal_path: decodes the journal (JournalError
  /// on corruption or a DesignerConfig digest mismatch), rebuilds the
  /// snapshot base, re-applies every journaled event — redesigning after
  /// each, so the warm-start trajectory matches the killed session's —
  /// and reopens the journal for appending (torn tail rewritten away).
  static ServeSession resume(const ServeOptions& options,
                             util::ExecutionContext context);

  /// Handles one input line; returns the response line ("" for blank or
  /// comment input, which gets no response).  Protocol errors come back
  /// as `err ...` responses; journal I/O failures throw (state and
  /// journal could diverge past that point, so the session must die).
  std::string handle_line(const std::string& line);

  /// True once quit was handled; handle_line must not be called again.
  bool done() const { return done_; }

  /// The `ok <seq> ready ...` line run() opens with.
  std::string ready_line() const;

  /// Drives the full loop: ready line, then one handle_line per input
  /// line until quit or EOF (EOF behaves like quit).  Returns 0.
  int run(std::istream& in, std::ostream& out);

  core::DesignState& state() { return state_; }
  const core::DesignState& state() const { return state_; }
  const ServeStats& stats() const { return stats_; }

  /// The "omn-metrics-v1" envelope for this session (events, redesigns,
  /// pivot totals, warm/cache hits, p50/p99 redesign wall).
  util::Json metrics_json() const;
  /// Writes metrics_json() to options.metrics_path (no-op when unset).
  void write_metrics() const;

 private:
  ServeSession(net::OverlayInstance base, ServeOptions options,
               util::ExecutionContext context, bool fresh_journal);
  /// The journal header describing the CURRENT state (compaction base).
  JournalHeader current_header() const;
  /// The `ok <seq> stats ...` live-counter response.
  std::string stats_line() const;
  /// Applies one mutation, then redesign(&event).
  const core::DesignResult& apply_and_redesign(const Event& event);
  /// Redesigns the current state and accounts the run in stats_: one
  /// redesign, its wall time and its LP work.  `event` is the mutation
  /// that triggered it, or nullptr for the initial design.
  const core::DesignResult& redesign(const Event* event);
  std::string ack_mutation(const Event& event,
                           const core::DesignResult& result,
                           double wall_seconds) const;
  std::uint64_t seq() const { return stats_.replayed + stats_.events; }

  ServeOptions options_;
  core::DesignState state_;
  std::optional<Journal> journal_;
  ServeStats stats_;
  /// Session uptime reported by the `stats` event (starts at
  /// construction, so a resumed session's uptime includes its replay).
  util::Timer uptime_;
  bool done_ = false;
};

}  // namespace omn::serve
