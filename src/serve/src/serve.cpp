#include "omn/serve/serve.hpp"

#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>

#include "omn/core/lp_cache.hpp"
#include "omn/net/serialize.hpp"
#include "omn/util/stats.hpp"
#include "omn/util/table.hpp"
#include "omn/util/timer.hpp"
#include "omn/util/trace.hpp"

namespace omn::serve {

void apply_event(core::DesignState& state, const Event& event) {
  switch (event.kind) {
    case EventKind::kNodeAdd:
      state.add_reflector(event.a, event.build_cost, event.fanout,
                          event.color, event.edge_cost, event.edge_loss);
      return;
    case EventKind::kNodeRemove:
      state.remove_reflector(event.a);
      return;
    case EventKind::kEdgeFail:
      state.fail_edge(event.rd, event.a, event.b);
      return;
    case EventKind::kEdgeRestore:
      state.restore_edge(event.rd, event.a, event.b);
      return;
    case EventKind::kCapacitySet:
      state.set_fanout(event.a, event.fanout);
      return;
    case EventKind::kQuery:
    case EventKind::kStats:
    case EventKind::kSnapshot:
    case EventKind::kQuit:
      break;
  }
  throw std::logic_error("apply_event: '" + to_string(event.kind) +
                         "' is not a mutation");
}

ServeSession::ServeSession(net::OverlayInstance base, ServeOptions options,
                           util::ExecutionContext context)
    : ServeSession(std::move(base), std::move(options), std::move(context),
                   /*fresh_journal=*/true) {}

ServeSession::ServeSession(net::OverlayInstance base, ServeOptions options,
                           util::ExecutionContext context, bool fresh_journal)
    : options_(std::move(options)),
      state_(std::move(base), options_.config, std::move(context)) {
  (void)redesign(nullptr);
  if (fresh_journal && !options_.journal_path.empty()) {
    journal_ = Journal::rewrite(options_.journal_path, current_header(), {});
  }
}

ServeSession ServeSession::resume(const ServeOptions& options,
                                  util::ExecutionContext context) {
  const JournalContents contents = Journal::load(options.journal_path);
  if (contents.header.config_digest != config_digest(options.config)) {
    throw JournalError(
        "journal: designer config mismatch (the journal was written under "
        "different design knobs; replaying it would converge to a different "
        "design)");
  }
  net::OverlayInstance base = net::from_text(contents.header.instance_text);
  ServeSession session(std::move(base), options, std::move(context),
                       /*fresh_journal=*/false);
  session.state_.adopt_failed_edges(contents.header.failed);
  for (const Event& event : contents.events) {
    // A journaled event applied cleanly once, to this same state sequence,
    // so it applies cleanly again; apply_and_redesign keeps the warm-start
    // trajectory identical to the killed session's.
    (void)session.apply_and_redesign(event);
    --session.stats_.events;  // re-applied, not new
    ++session.stats_.replayed;
  }
  // Reopen for appending: rewriting the decoded prefix drops any torn
  // final record, so the on-disk bytes are canonical again.
  session.journal_ =
      Journal::rewrite(options.journal_path, contents.header, contents.events);
  return session;
}

JournalHeader ServeSession::current_header() const {
  JournalHeader header;
  header.config_digest = config_digest(options_.config);
  header.instance_text = net::to_text(state_.instance());
  header.failed = state_.failed_edges();
  return header;
}

const core::DesignResult& ServeSession::apply_and_redesign(
    const Event& event) {
  apply_event(state_, event);
  ++stats_.events;
  return redesign(&event);
}

const core::DesignResult& ServeSession::redesign(const Event* event) {
  const util::Timer redesign_timer;
  const core::DesignResult* result = nullptr;
  {
    OMN_TRACE_SPAN([&] {
      return event == nullptr ? std::string("serve.initial_design")
                              : "serve.redesign " + to_string(event->kind);
    });
    result = &state_.redesign();
  }
  ++stats_.redesigns;
  stats_.redesign_seconds.push_back(redesign_timer.seconds());
  stats_.lp += core::LpWork::of(
      *result, state_.context().find_service<core::LpCache>() != nullptr);
  return *result;
}

std::string ServeSession::ack_mutation(const Event& event,
                                       const core::DesignResult& result,
                                       double wall_seconds) const {
  const int pivots_worked = result.lp_cache_hit ? 0 : result.lp_iterations;
  return "ok " + std::to_string(seq()) + " " + to_string(event.kind) +
         " status=" + core::to_string(result.status) +
         " cost=" + util::format_double(result.evaluation.total_cost, 2) +
         " pivots=" + std::to_string(pivots_worked) +
         " warm=" + (result.lp_warm_start ? "1" : "0") +
         " cache=" + (result.lp_cache_hit ? "1" : "0") + " wall_us=" +
         std::to_string(static_cast<long long>(1e6 * wall_seconds));
}

std::string ServeSession::stats_line() const {
  // Session tallies come from stats_; cache traffic comes from this
  // session's own LpCache (all zero without one).  Every insertion into a
  // cache with a directory is one disk write.
  const std::shared_ptr<core::LpCache> cache =
      state_.context().find_service<core::LpCache>();
  const core::LpCacheStats cache_stats =
      cache != nullptr ? cache->stats() : core::LpCacheStats{};
  const std::size_t disk_writes =
      cache != nullptr && !cache->directory().empty() ? cache_stats.insertions
                                                      : 0;
  return "ok " + std::to_string(seq()) + " stats events=" +
         std::to_string(stats_.events) +
         " redesigns=" + std::to_string(stats_.redesigns) +
         " replayed=" + std::to_string(stats_.replayed) +
         " pivots=" + std::to_string(stats_.lp.iterations) +
         " refactorizations=" + std::to_string(stats_.lp.refactorizations) +
         " warm_hits=" + std::to_string(stats_.lp.warm_start_hits) +
         " cache_hits=" + std::to_string(cache_stats.hits) +
         " cache_misses=" + std::to_string(cache_stats.misses) +
         " cache_disk_reads=" + std::to_string(cache_stats.disk_hits) +
         " cache_disk_writes=" + std::to_string(disk_writes) +
         " journal_seq=" + std::to_string(seq()) + " uptime_us=" +
         std::to_string(static_cast<long long>(uptime_.microseconds()));
}

std::string ServeSession::ready_line() const {
  const core::DesignResult& result = state_.last();
  return "ok " + std::to_string(seq()) +
         " ready status=" + core::to_string(result.status) +
         " cost=" + util::format_double(result.evaluation.total_cost, 2) +
         " reflectors=" +
         std::to_string(result.evaluation.reflectors_built) +
         " replayed=" + std::to_string(stats_.replayed) +
         " digest=" + state_.design_digest().hex();
}

std::string ServeSession::handle_line(const std::string& line) {
  std::string error;
  const std::optional<Event> event = parse_event(line, &error);
  if (!event.has_value()) {
    if (error.empty()) return "";  // blank or comment: no response
    ++stats_.parse_errors;
    return "err parse: " + error;
  }
  if (event->is_mutation()) {
    const util::Timer event_timer;
    const core::DesignResult* result = nullptr;
    try {
      result = &apply_and_redesign(*event);
    } catch (const std::invalid_argument& ex) {
      ++stats_.apply_errors;
      return std::string("err apply: ") + ex.what();
    }
    // Journal AFTER a clean apply (rejected events must not poison the
    // replay) and BEFORE the ack (an acknowledged event must survive a
    // SIGKILL).  append() flushes; its exceptions propagate — past a
    // journal write failure the ack would lie.
    if (journal_.has_value()) journal_->append(*event);
    return ack_mutation(*event, *result, event_timer.seconds());
  }
  switch (event->kind) {
    case EventKind::kQuery: {
      const core::DesignResult& result = state_.last();
      return "ok " + std::to_string(seq()) +
             " design status=" + core::to_string(result.status) +
             " cost=" + util::format_double(result.evaluation.total_cost, 2) +
             " reflectors=" +
             std::to_string(result.evaluation.reflectors_built) +
             " digest=" + state_.design_digest().hex();
    }
    case EventKind::kStats:
      return stats_line();
    case EventKind::kSnapshot: {
      ++stats_.snapshots;
      if (journal_.has_value()) {
        journal_ =
            Journal::rewrite(options_.journal_path, current_header(), {});
      }
      return "ok " + std::to_string(seq()) + " snapshot journal=" +
             (journal_.has_value() ? options_.journal_path : "none");
    }
    case EventKind::kQuit:
      done_ = true;
      write_metrics();
      return "ok " + std::to_string(seq()) + " bye";
    default:
      break;
  }
  return "err parse: unhandled event";  // unreachable
}

int ServeSession::run(std::istream& in, std::ostream& out) {
  out << ready_line() << "\n" << std::flush;
  for (std::string line; !done_ && std::getline(in, line);) {
    const std::string response = handle_line(line);
    if (!response.empty()) out << response << "\n" << std::flush;
  }
  if (!done_) {
    // EOF without quit: a clean shutdown, metrics included.
    done_ = true;
    write_metrics();
  }
  return 0;
}

util::Json to_json(const ServeStats& stats, std::string label) {
  util::Json record = util::Json::object();
  record.set("label", std::move(label));
  record.set("events", stats.events);
  record.set("redesigns", stats.redesigns);
  stats.lp.write_json(record, core::LpWork::Keys::kSession);
  record.set("redesign_wall_p50",
             util::percentile(stats.redesign_seconds, 0.50));
  record.set("redesign_wall_p99",
             util::percentile(stats.redesign_seconds, 0.99));
  record.set("wall_seconds",
             std::accumulate(stats.redesign_seconds.begin(),
                             stats.redesign_seconds.end(), 0.0));
  return record;
}

util::Json ServeSession::metrics_json() const {
  util::Json record = to_json(stats_, "serve");
  record.set("replayed", stats_.replayed);
  record.set("parse_errors", stats_.parse_errors);
  record.set("apply_errors", stats_.apply_errors);
  record.set("snapshots", stats_.snapshots);

  util::Json envelope = util::Json::object();
  envelope.set("schema", "omn-metrics-v1");
  envelope.set("tool", "omn_design serve");
  envelope.set("lp_cache", std::string());
  util::Json sweeps = util::Json::array();
  sweeps.push(std::move(record));
  envelope.set("sweeps", std::move(sweeps));
  return envelope;
}

void ServeSession::write_metrics() const {
  if (options_.metrics_path.empty()) return;
  std::ofstream out(options_.metrics_path, std::ios::trunc);
  out << metrics_json().dump(2) << "\n";
  if (!out.good()) {
    throw std::runtime_error("serve: cannot write --metrics file " +
                             options_.metrics_path);
  }
}

}  // namespace omn::serve
