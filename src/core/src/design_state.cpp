#include "omn/core/design_state.hpp"

#include <stdexcept>
#include <utility>

#include "omn/core/lp_cache.hpp"

namespace omn::core {

namespace {

const char* layer_name(bool rd) { return rd ? "rd" : "sr"; }

}  // namespace

DesignState::DesignState(net::OverlayInstance base, DesignerConfig config,
                         util::ExecutionContext context)
    : instance_(std::move(base)),
      config_(config),
      context_(std::move(context)) {
  instance_.validate();
  // The LP cache holds cold solves only; a warm state's copy has none.
  if (config_.lp_warm_start) context_.set_service<LpCache>(nullptr);
}

int DesignState::find_source(const std::string& name) const {
  for (int k = 0; k < instance_.num_sources(); ++k) {
    if (instance_.source(k).name == name) return k;
  }
  return -1;
}

int DesignState::find_reflector(const std::string& name) const {
  for (int i = 0; i < instance_.num_reflectors(); ++i) {
    if (instance_.reflector(i).name == name) return i;
  }
  return -1;
}

int DesignState::find_sink(const std::string& name) const {
  for (int j = 0; j < instance_.num_sinks(); ++j) {
    if (instance_.sink(j).name == name) return j;
  }
  return -1;
}

int DesignState::find_failed(bool rd, const std::string& a,
                             const std::string& b) const {
  for (std::size_t n = 0; n < failed_.size(); ++n) {
    if (failed_[n].rd == rd && failed_[n].a == a && failed_[n].b == b) {
      return static_cast<int>(n);
    }
  }
  return -1;
}

int DesignState::resolve_edge(bool rd, const std::string& a,
                              const std::string& b) const {
  if (rd) {
    const int i = find_reflector(a);
    if (i < 0) throw std::invalid_argument("unknown reflector '" + a + "'");
    const int j = find_sink(b);
    if (j < 0) throw std::invalid_argument("unknown sink '" + b + "'");
    const int id = instance_.find_rd_edge(i, j);
    if (id < 0) {
      throw std::invalid_argument("no rd edge " + a + " -> " + b);
    }
    return id;
  }
  const int k = find_source(a);
  if (k < 0) throw std::invalid_argument("unknown source '" + a + "'");
  const int i = find_reflector(b);
  if (i < 0) throw std::invalid_argument("unknown reflector '" + b + "'");
  const int id = instance_.find_sr_edge(k, i);
  if (id < 0) {
    throw std::invalid_argument("no sr edge " + a + " -> " + b);
  }
  return id;
}

void DesignState::fail_edge(bool rd, const std::string& a,
                            const std::string& b) {
  const int id = resolve_edge(rd, a, b);
  if (find_failed(rd, a, b) >= 0) {
    throw std::invalid_argument(std::string(layer_name(rd)) + " edge " + a +
                                " -> " + b + " is already failed");
  }
  const double original =
      rd ? instance_.rd_edge(id).loss : instance_.sr_edge(id).loss;
  failed_.push_back(FailedEdge{rd, a, b, original});
  if (rd) {
    instance_.rd_edge(id).loss = kFailedEdgeLoss;
  } else {
    instance_.sr_edge(id).loss = kFailedEdgeLoss;
  }
}

void DesignState::restore_edge(bool rd, const std::string& a,
                               const std::string& b) {
  const int id = resolve_edge(rd, a, b);
  const int at = find_failed(rd, a, b);
  if (at < 0) {
    throw std::invalid_argument(std::string(layer_name(rd)) + " edge " + a +
                                " -> " + b + " is not failed");
  }
  const double original = failed_[static_cast<std::size_t>(at)].original_loss;
  if (rd) {
    instance_.rd_edge(id).loss = original;
  } else {
    instance_.sr_edge(id).loss = original;
  }
  failed_.erase(failed_.begin() + at);
}

void DesignState::set_fanout(const std::string& reflector, double fanout) {
  const int i = find_reflector(reflector);
  if (i < 0) {
    throw std::invalid_argument("unknown reflector '" + reflector + "'");
  }
  if (!(fanout > 0.0)) {
    throw std::invalid_argument("fanout must be positive");
  }
  instance_.reflector(i).fanout = fanout;
}

void DesignState::add_reflector(const std::string& name, double build_cost,
                                double fanout, int color, double edge_cost,
                                double edge_loss) {
  if (find_reflector(name) >= 0) {
    throw std::invalid_argument("reflector '" + name + "' already exists");
  }
  if (!(build_cost >= 0.0)) {
    throw std::invalid_argument("build cost must be non-negative");
  }
  if (!(fanout > 0.0)) throw std::invalid_argument("fanout must be positive");
  if (color < 0) throw std::invalid_argument("color must be non-negative");
  if (!(edge_cost >= 0.0)) {
    throw std::invalid_argument("edge cost must be non-negative");
  }
  if (!(edge_loss >= 0.0 && edge_loss < 1.0)) {
    throw std::invalid_argument("edge loss must lie in [0, 1)");
  }
  note_shape_change();
  const int i = instance_.add_reflector(
      net::Reflector{name, build_cost, fanout, color, std::nullopt});
  for (int k = 0; k < instance_.num_sources(); ++k) {
    instance_.add_source_reflector_edge(
        net::SourceReflectorEdge{k, i, edge_cost, edge_loss, 0.0});
  }
  for (int j = 0; j < instance_.num_sinks(); ++j) {
    instance_.add_reflector_sink_edge(
        net::ReflectorSinkEdge{i, j, edge_cost, edge_loss, std::nullopt, 0.0});
  }
}

void DesignState::remove_reflector(const std::string& name) {
  const int removed = find_reflector(name);
  if (removed < 0) {
    throw std::invalid_argument("unknown reflector '" + name + "'");
  }
  if (instance_.num_reflectors() <= 1) {
    throw std::invalid_argument("cannot remove the last reflector");
  }
  // Rebuild without the reflector: edge ids and reflector indices shift,
  // which is exactly why the failed-edge registry is keyed by names.
  net::OverlayInstance next;
  for (int k = 0; k < instance_.num_sources(); ++k) {
    next.add_source(instance_.source(k));
  }
  for (int i = 0; i < instance_.num_reflectors(); ++i) {
    if (i != removed) next.add_reflector(instance_.reflector(i));
  }
  for (int j = 0; j < instance_.num_sinks(); ++j) {
    next.add_sink(instance_.sink(j));
  }
  for (const net::SourceReflectorEdge& edge : instance_.sr_edges()) {
    if (edge.reflector == removed) continue;
    net::SourceReflectorEdge copy = edge;
    if (copy.reflector > removed) --copy.reflector;
    next.add_source_reflector_edge(copy);
  }
  for (const net::ReflectorSinkEdge& edge : instance_.rd_edges()) {
    if (edge.reflector == removed) continue;
    net::ReflectorSinkEdge copy = edge;
    if (copy.reflector > removed) --copy.reflector;
    next.add_reflector_sink_edge(copy);
  }
  next.validate();

  std::vector<FailedEdge> kept;
  for (const FailedEdge& record : failed_) {
    const std::string& reflector = record.rd ? record.a : record.b;
    if (reflector != name) kept.push_back(record);
  }
  note_shape_change();
  instance_ = std::move(next);
  failed_ = std::move(kept);
}

lp::BasisKeys DesignState::lp_keys() const {
  return lp::BasisKeys::of(
      build_overlay_lp(instance_, lp_build_options(config_)).model);
}

void DesignState::note_shape_change() {
  if (config_.lp_warm_start && last_.lp_basis && !basis_keys_) {
    basis_keys_ = lp_keys();
  }
}

void DesignState::apply(
    const std::function<void(net::OverlayInstance&)>& mutate) {
  mutate(instance_);
  instance_.validate();
}

const DesignResult& DesignState::redesign() {
  // Warm redesigns start from the basis the previous one exported; with
  // none (first redesign, or a solve that exported none) the solve is cold.
  // After a node event the basis is carried over to the new LP by key.
  DesignerConfig config = config_;
  if (config_.lp_warm_start) {
    std::optional<lp::Basis> basis = last_.lp_basis;
    if (basis && basis_keys_) {
      // An apply() between the redesign and the node event may have
      // reshaped the LP already; the solver then gets the basis as is.
      const lp::BasisKeys& from = *basis_keys_;
      if (basis->state.size() == from.columns.size() + from.rows.size() &&
          basis->basic.size() == from.rows.size()) {
        basis = lp::remap_basis(*basis, from, lp_keys());
      }
    }
    config.lp_options.warm_start_basis = std::move(basis);
  }
  basis_keys_.reset();
  last_ = OverlayDesigner(config).design(instance_, context_);
  has_design_ = true;
  return last_;
}

const DesignResult& DesignState::last() const {
  if (!has_design_) {
    throw std::logic_error("DesignState::last() before the first redesign()");
  }
  return last_;
}

util::Digest128 DesignState::design_digest() const {
  const Design& design = last().design;
  util::Hasher hasher;
  hasher.str("omn-design-digest-v1");
  hasher.u64(design.z.size());
  for (std::uint8_t bit : design.z) hasher.u8(bit);
  hasher.u64(design.y.size());
  for (std::uint8_t bit : design.y) hasher.u8(bit);
  hasher.u64(design.x.size());
  for (std::uint8_t bit : design.x) hasher.u8(bit);
  return hasher.digest();
}

void DesignState::adopt_failed_edges(std::vector<FailedEdge> failed) {
  for (const FailedEdge& record : failed) {
    (void)resolve_edge(record.rd, record.a, record.b);  // must exist
  }
  failed_ = std::move(failed);
}

}  // namespace omn::core
