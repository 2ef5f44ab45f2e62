#include "omn/core/lp_builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace omn::core {

namespace {

/// A column or row key: its kind and the names of the entities it joins,
/// '|'-separated.  Names, unlike indices, survive node add/remove, so
/// lp::remap_basis can carry a basis across them.
std::string key(std::string_view kind, std::string_view a,
                std::string_view b = {}) {
  std::string out;
  out.reserve(kind.size() + a.size() + b.size() + 2);
  out.append(kind).append("|").append(a);
  if (!b.empty()) out.append("|").append(b);
  return out;
}

}  // namespace

OverlayLp build_overlay_lp(const net::OverlayInstance& inst,
                           const LpBuildOptions& options) {
  inst.validate();
  OverlayLp out;
  out.options = options;
  lp::Model& m = out.model;

  const int S = inst.num_sources();
  const int R = inst.num_reflectors();
  const int D = inst.num_sinks();

  // ---- variables ----------------------------------------------------------
  out.z_var.assign(static_cast<std::size_t>(R), -1);
  for (int i = 0; i < R; ++i) {
    out.z_var[static_cast<std::size_t>(i)] = m.add_variable(
        0.0, 1.0, inst.reflector(i).build_cost, key("z", inst.reflector(i).name));
  }

  out.y_var.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(R), -1);
  for (const net::SourceReflectorEdge& e : inst.sr_edges()) {
    out.y_var[y_index(inst, e.source, e.reflector)] =
        m.add_variable(0.0, 1.0, e.cost,
                       key("y", inst.source(e.source).name,
                           inst.reflector(e.reflector).name));
  }

  out.x_var.assign(inst.rd_edges().size(), -1);
  out.x_weight.assign(inst.rd_edges().size(), 0.0);
  out.sink_demand.assign(static_cast<std::size_t>(D), 0.0);
  for (int j = 0; j < D; ++j) {
    out.sink_demand[static_cast<std::size_t>(j)] = inst.sink_demand_weight(j);
  }
  for (std::size_t id = 0; id < inst.rd_edges().size(); ++id) {
    const net::ReflectorSinkEdge& e = inst.rd_edges()[id];
    const int k = inst.sink(e.sink).commodity;
    const int sr = inst.find_sr_edge(k, e.reflector);
    if (sr < 0) continue;  // no source path: x^k_ij cannot exist
    const double upper =
        options.rd_capacities && e.capacity ? std::min(1.0, *e.capacity) : 1.0;
    out.x_var[id] = m.add_variable(0.0, upper, e.cost,
                                   key("x", inst.reflector(e.reflector).name,
                                       inst.sink(e.sink).name));
    const double w =
        net::OverlayInstance::path_weight(inst.sr_edge(sr).loss, e.loss);
    out.x_weight[id] =
        std::min(w, out.sink_demand[static_cast<std::size_t>(e.sink)]);
  }

  // ---- (1) y <= z ----------------------------------------------------------
  for (const net::SourceReflectorEdge& e : inst.sr_edges()) {
    const int yv = out.y_var[y_index(inst, e.source, e.reflector)];
    const int row = m.add_row(lp::RowSense::kLessEqual, 0.0,
                              key("yz", inst.source(e.source).name,
                                  inst.reflector(e.reflector).name));
    m.add_coefficient(row, yv, 1.0);
    m.add_coefficient(row, out.z_var[static_cast<std::size_t>(e.reflector)], -1.0);
  }

  // ---- (2) x <= y ----------------------------------------------------------
  for (std::size_t id = 0; id < inst.rd_edges().size(); ++id) {
    const int xv = out.x_var[id];
    if (xv < 0) continue;
    const net::ReflectorSinkEdge& e = inst.rd_edges()[id];
    const int k = inst.sink(e.sink).commodity;
    const int yv = out.y_var[y_index(inst, k, e.reflector)];
    const int row = m.add_row(lp::RowSense::kLessEqual, 0.0,
                              key("xy", inst.reflector(e.reflector).name,
                                  inst.sink(e.sink).name));
    m.add_coefficient(row, xv, 1.0);
    m.add_coefficient(row, yv, -1.0);
  }

  // ---- (3) fanout vs z and (4) fanout vs y --------------------------------
  std::vector<int> fanout_row(static_cast<std::size_t>(R), -1);
  for (int i = 0; i < R; ++i) {
    fanout_row[static_cast<std::size_t>(i)] = m.add_row(
        lp::RowSense::kLessEqual, 0.0, key("fanout", inst.reflector(i).name));
    m.add_coefficient(fanout_row[static_cast<std::size_t>(i)],
                      out.z_var[static_cast<std::size_t>(i)],
                      -inst.reflector(i).fanout);
  }
  std::vector<int> cut_row;
  if (options.cutting_plane) {
    cut_row.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(R), -1);
    for (const net::SourceReflectorEdge& e : inst.sr_edges()) {
      const std::size_t slot = y_index(inst, e.source, e.reflector);
      cut_row[slot] = m.add_row(lp::RowSense::kLessEqual, 0.0,
                                key("cut", inst.source(e.source).name,
                                    inst.reflector(e.reflector).name));
      m.add_coefficient(cut_row[slot], out.y_var[slot],
                        -inst.reflector(e.reflector).fanout);
    }
  }
  for (std::size_t id = 0; id < inst.rd_edges().size(); ++id) {
    const int xv = out.x_var[id];
    if (xv < 0) continue;
    const net::ReflectorSinkEdge& e = inst.rd_edges()[id];
    const int k = inst.sink(e.sink).commodity;
    const double usage =
        options.bandwidth_extension ? inst.source(k).bandwidth : 1.0;
    m.add_coefficient(fanout_row[static_cast<std::size_t>(e.reflector)], xv,
                      usage);
    if (options.cutting_plane) {
      m.add_coefficient(cut_row[y_index(inst, k, e.reflector)], xv, usage);
    }
  }

  // ---- (5) weight demands --------------------------------------------------
  for (int j = 0; j < D; ++j) {
    const int row =
        m.add_row(lp::RowSense::kGreaterEqual,
                  out.sink_demand[static_cast<std::size_t>(j)],
                  key("demand", inst.sink(j).name));
    bool any = false;
    for (int id : inst.sink_in(j)) {
      const int xv = out.x_var[static_cast<std::size_t>(id)];
      if (xv < 0) continue;
      m.add_coefficient(row, xv, out.x_weight[static_cast<std::size_t>(id)]);
      any = true;
    }
    if (!any) {
      // The sink has no usable path at all: the LP is trivially infeasible;
      // keep the row so the solver reports it.
    }
  }

  // ---- (8) reflector stream-ingest capacities (extension 6.2) --------------
  if (options.reflector_stream_capacities) {
    std::vector<int> cap_row(static_cast<std::size_t>(R), -1);
    for (int i = 0; i < R; ++i) {
      if (!inst.reflector(i).stream_capacity) continue;
      cap_row[static_cast<std::size_t>(i)] =
          m.add_row(lp::RowSense::kLessEqual, *inst.reflector(i).stream_capacity,
                    key("ycap", inst.reflector(i).name));
    }
    for (const net::SourceReflectorEdge& e : inst.sr_edges()) {
      const int row = cap_row[static_cast<std::size_t>(e.reflector)];
      if (row < 0) continue;
      m.add_coefficient(row, out.y_var[y_index(inst, e.source, e.reflector)],
                        1.0);
    }
  }

  // ---- (9) color constraints ------------------------------------------------
  if (options.color_constraints) {
    const int colors = inst.num_colors();
    for (int j = 0; j < D; ++j) {
      // One row per (sink, color) that actually has candidate edges.
      std::vector<int> row_of_color(static_cast<std::size_t>(colors), -1);
      for (int id : inst.sink_in(j)) {
        const int xv = out.x_var[static_cast<std::size_t>(id)];
        if (xv < 0) continue;
        const int color =
            inst.reflector(inst.rd_edges()[static_cast<std::size_t>(id)].reflector)
                .color;
        int& row = row_of_color[static_cast<std::size_t>(color)];
        if (row < 0) {
          row = m.add_row(lp::RowSense::kLessEqual, 1.0,
                          key("color", inst.sink(j).name,
                              std::to_string(color)));
        }
        m.add_coefficient(row, xv, 1.0);
      }
    }
  }

  return out;
}

FractionalDesign OverlayLp::extract(const net::OverlayInstance& inst,
                                    const std::vector<double>& point) const {
  FractionalDesign d = FractionalDesign::zeros(inst);
  for (std::size_t i = 0; i < z_var.size(); ++i) {
    if (z_var[i] >= 0) d.z[i] = point.at(static_cast<std::size_t>(z_var[i]));
  }
  for (std::size_t s = 0; s < y_var.size(); ++s) {
    if (y_var[s] >= 0) d.y[s] = point.at(static_cast<std::size_t>(y_var[s]));
  }
  for (std::size_t e = 0; e < x_var.size(); ++e) {
    if (x_var[e] >= 0) d.x[e] = point.at(static_cast<std::size_t>(x_var[e]));
  }
  return d;
}

}  // namespace omn::core
