#include "omn/net/instance.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace omn::net {

int OverlayInstance::add_source(Source source) {
  sources_.push_back(std::move(source));
  source_out_.emplace_back();
  sr_lookup_.emplace_back(reflectors_.size(), -1);
  return static_cast<int>(sources_.size()) - 1;
}

int OverlayInstance::add_reflector(Reflector reflector) {
  reflectors_.push_back(std::move(reflector));
  reflector_out_.emplace_back();
  for (std::vector<int>& row : sr_lookup_) row.push_back(-1);
  return static_cast<int>(reflectors_.size()) - 1;
}

int OverlayInstance::add_sink(Sink sink) {
  sinks_.push_back(std::move(sink));
  sink_in_.emplace_back();
  return static_cast<int>(sinks_.size()) - 1;
}

int OverlayInstance::add_source_reflector_edge(SourceReflectorEdge edge) {
  if (edge.source < 0 || edge.source >= num_sources() ||
      edge.reflector < 0 || edge.reflector >= num_reflectors()) {
    throw std::invalid_argument("OverlayInstance: dangling SR edge");
  }
  const int id = static_cast<int>(sr_edges_.size());
  sr_edges_.push_back(edge);
  source_out_[static_cast<std::size_t>(edge.source)].push_back(id);
  sr_lookup_[static_cast<std::size_t>(edge.source)]
            [static_cast<std::size_t>(edge.reflector)] = id;
  return id;
}

int OverlayInstance::add_reflector_sink_edge(ReflectorSinkEdge edge) {
  if (edge.reflector < 0 || edge.reflector >= num_reflectors() ||
      edge.sink < 0 || edge.sink >= num_sinks()) {
    throw std::invalid_argument("OverlayInstance: dangling RD edge");
  }
  const int id = static_cast<int>(rd_edges_.size());
  rd_edges_.push_back(edge);
  reflector_out_[static_cast<std::size_t>(edge.reflector)].push_back(id);
  sink_in_[static_cast<std::size_t>(edge.sink)].push_back(id);
  return id;
}

int OverlayInstance::num_colors() const {
  int colors = 0;
  for (const Reflector& r : reflectors_) colors = std::max(colors, r.color + 1);
  return colors;
}

int OverlayInstance::find_sr_edge(int source, int reflector) const {
  if (source < 0 || source >= num_sources() || reflector < 0 ||
      reflector >= num_reflectors()) {
    return -1;
  }
  return sr_lookup_[static_cast<std::size_t>(source)]
                   [static_cast<std::size_t>(reflector)];
}

int OverlayInstance::find_rd_edge(int reflector, int sink) const {
  if (reflector < 0 || reflector >= num_reflectors()) return -1;
  for (int id : reflector_out_[static_cast<std::size_t>(reflector)]) {
    if (rd_edges_[static_cast<std::size_t>(id)].sink == sink) return id;
  }
  return -1;
}

const std::vector<int>& OverlayInstance::reflector_out(int reflector) const {
  return reflector_out_.at(static_cast<std::size_t>(reflector));
}

const std::vector<int>& OverlayInstance::sink_in(int sink) const {
  return sink_in_.at(static_cast<std::size_t>(sink));
}

const std::vector<int>& OverlayInstance::source_out(int source) const {
  return source_out_.at(static_cast<std::size_t>(source));
}

void OverlayInstance::validate() const {
  auto check_prob = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(std::string("OverlayInstance: ") + what +
                                  " not in [0,1]");
    }
  };
  for (const Source& s : sources_) {
    if (!(s.bandwidth > 0.0)) {
      throw std::invalid_argument("OverlayInstance: non-positive bandwidth");
    }
  }
  for (const Reflector& r : reflectors_) {
    if (!(r.fanout > 0.0)) {
      throw std::invalid_argument("OverlayInstance: non-positive fanout");
    }
    if (r.build_cost < 0.0) {
      throw std::invalid_argument("OverlayInstance: negative build cost");
    }
    if (r.color < 0) {
      throw std::invalid_argument("OverlayInstance: negative color");
    }
    if (r.stream_capacity && !(*r.stream_capacity > 0.0)) {
      throw std::invalid_argument(
          "OverlayInstance: non-positive stream capacity");
    }
  }
  for (const Sink& d : sinks_) {
    if (d.commodity < 0 || d.commodity >= num_sources()) {
      throw std::invalid_argument("OverlayInstance: sink demands unknown commodity");
    }
    if (!(d.threshold > 0.0 && d.threshold < 1.0)) {
      throw std::invalid_argument("OverlayInstance: threshold not in (0,1)");
    }
  }
  std::set<std::pair<int, int>> seen_sr;
  for (const SourceReflectorEdge& e : sr_edges_) {
    if (e.cost < 0.0) throw std::invalid_argument("OverlayInstance: negative SR cost");
    check_prob(e.loss, "SR loss");
    if (!(e.delay_ms >= 0.0)) {
      throw std::invalid_argument("OverlayInstance: negative SR delay");
    }
    if (!seen_sr.emplace(e.source, e.reflector).second) {
      throw std::invalid_argument("OverlayInstance: duplicate SR edge");
    }
  }
  std::set<std::pair<int, int>> seen_rd;
  for (const ReflectorSinkEdge& e : rd_edges_) {
    if (e.cost < 0.0) throw std::invalid_argument("OverlayInstance: negative RD cost");
    check_prob(e.loss, "RD loss");
    if (!(e.delay_ms >= 0.0)) {
      throw std::invalid_argument("OverlayInstance: negative RD delay");
    }
    if (e.capacity && !(*e.capacity >= 0.0)) {
      throw std::invalid_argument("OverlayInstance: negative RD capacity");
    }
    if (!seen_rd.emplace(e.reflector, e.sink).second) {
      throw std::invalid_argument("OverlayInstance: duplicate RD edge");
    }
  }
}

double OverlayInstance::path_failure(double loss_sr, double loss_rd) {
  return loss_sr + loss_rd - loss_sr * loss_rd;
}

double OverlayInstance::path_weight(double loss_sr, double loss_rd) {
  const double failure = std::max(path_failure(loss_sr, loss_rd), kMinFailure);
  return -std::log(failure);
}

double OverlayInstance::demand_weight(double threshold) {
  return -std::log(1.0 - threshold);
}

std::optional<double> OverlayInstance::weight(int reflector, int sink) const {
  const int rd = find_rd_edge(reflector, sink);
  if (rd < 0) return std::nullopt;
  const int k = this->sink(sink).commodity;
  const int sr = find_sr_edge(k, reflector);
  if (sr < 0) return std::nullopt;
  return path_weight(sr_edge(sr).loss, rd_edge(rd).loss);
}

double OverlayInstance::sink_demand_weight(int sink) const {
  return demand_weight(this->sink(sink).threshold);
}

double OverlayInstance::total_demand_weight() const {
  double total = 0.0;
  for (const Sink& d : sinks_) total += demand_weight(d.threshold);
  return total;
}

OverlayInstance OverlayInstance::expand_multi_demand(
    const OverlayInstance& multi,
    const std::vector<std::vector<std::pair<int, double>>>& demands) {
  if (static_cast<int>(demands.size()) != multi.num_sinks()) {
    throw std::invalid_argument("expand_multi_demand: demand list size mismatch");
  }
  OverlayInstance out;
  for (int k = 0; k < multi.num_sources(); ++k) out.add_source(multi.source(k));
  for (int i = 0; i < multi.num_reflectors(); ++i) {
    out.add_reflector(multi.reflector(i));
  }
  for (const SourceReflectorEdge& e : multi.sr_edges()) {
    out.add_source_reflector_edge(e);
  }
  for (int j = 0; j < multi.num_sinks(); ++j) {
    for (const auto& [commodity, threshold] : demands[static_cast<std::size_t>(j)]) {
      Sink copy = multi.sink(j);
      copy.name += "#" + std::to_string(commodity);
      copy.commodity = commodity;
      copy.threshold = threshold;
      const int jj = out.add_sink(copy);
      for (int id : multi.sink_in(j)) {
        ReflectorSinkEdge edge = multi.rd_edge(id);
        edge.sink = jj;
        out.add_reflector_sink_edge(edge);
      }
    }
  }
  return out;
}

}  // namespace omn::net
