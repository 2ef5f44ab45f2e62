#include "omn/dist/wire.hpp"

#include <exception>

#include "omn/net/serialize.hpp"
#include "omn/util/bytes.hpp"

namespace omn::dist {

namespace {

using util::ByteReader;
using util::ByteWriter;

// ---- DesignerConfig ------------------------------------------------------
// Field-by-field, fixed order.  Adding a designer knob MUST extend both
// sides (and bump kFrameVersion in frame.hpp): the codec carries every
// field that can change a cell's result.  Warm-start fields never cross
// the wire: DesignSweep::add_config rejects warm configs, so a grid is
// cold by construction.

void encode_solve_options(ByteWriter& w, const lp::SolveOptions& o) {
  w.i32(o.max_iterations);
  w.f64(o.optimality_tol);
  w.f64(o.feasibility_tol);
  w.f64(o.pivot_tol);
  w.i32(o.degenerate_switch);
  w.u8(static_cast<std::uint8_t>(o.pricing));
  w.i32(o.refactor_interval);
}

bool decode_solve_options(ByteReader& r, lp::SolveOptions& o) {
  std::uint8_t pricing = 0;
  if (!(r.i32(o.max_iterations) && r.f64(o.optimality_tol) &&
        r.f64(o.feasibility_tol) && r.f64(o.pivot_tol) &&
        r.i32(o.degenerate_switch) && r.u8(pricing) &&
        pricing <= static_cast<std::uint8_t>(lp::Pricing::kSteepestEdge) &&
        r.i32(o.refactor_interval))) {
    return false;
  }
  o.pricing = static_cast<lp::Pricing>(pricing);
  return true;
}

void encode_box_options(ByteWriter& w, const core::BoxNetworkOptions& o) {
  w.boolean(o.keep_lone_partial_box);
  w.f64(o.x_epsilon);
}

bool decode_box_options(ByteReader& r, core::BoxNetworkOptions& o) {
  return r.boolean(o.keep_lone_partial_box) && r.f64(o.x_epsilon);
}

void encode_config(ByteWriter& w, const core::DesignerConfig& c) {
  w.f64(c.c);
  w.u64(c.seed);
  w.i32(c.rounding_attempts);
  w.i32(c.threads);
  w.boolean(c.color_constraints);
  w.boolean(c.bandwidth_extension);
  w.boolean(c.rd_capacities);
  w.boolean(c.reflector_stream_capacities);
  w.boolean(c.prune_unused);
  w.boolean(c.cutting_plane);
  encode_solve_options(w, c.lp_options);
  w.i64(c.color_options.color_capacity_scaled);
  w.f64(c.color_options.cost_drop_factor);
  w.i32(c.color_options.relax_retries);
  w.u64(c.color_options.seed);
  encode_box_options(w, c.color_options.box_options);
  encode_solve_options(w, c.color_options.lp_options);
  encode_box_options(w, c.box_options);
}

bool decode_config(ByteReader& r, core::DesignerConfig& c) {
  return r.f64(c.c) && r.u64(c.seed) && r.i32(c.rounding_attempts) &&
         r.i32(c.threads) && r.boolean(c.color_constraints) &&
         r.boolean(c.bandwidth_extension) && r.boolean(c.rd_capacities) &&
         r.boolean(c.reflector_stream_capacities) &&
         r.boolean(c.prune_unused) && r.boolean(c.cutting_plane) &&
         decode_solve_options(r, c.lp_options) &&
         r.i64(c.color_options.color_capacity_scaled) &&
         r.f64(c.color_options.cost_drop_factor) &&
         r.i32(c.color_options.relax_retries) &&
         r.u64(c.color_options.seed) &&
         decode_box_options(r, c.color_options.box_options) &&
         decode_solve_options(r, c.color_options.lp_options) &&
         decode_box_options(r, c.box_options);
}

// ---- Design / Evaluation / DesignResult ----------------------------------

void encode_u8_vec(ByteWriter& w, const std::vector<std::uint8_t>& v) {
  w.u64(v.size());
  for (std::uint8_t b : v) w.u8(b);
}

bool decode_u8_vec(ByteReader& r, std::vector<std::uint8_t>& v) {
  std::uint64_t count = 0;
  if (!r.vec_size(count, 1)) return false;
  v.resize(static_cast<std::size_t>(count));
  for (std::uint8_t& b : v) {
    if (!r.u8(b)) return false;
  }
  return true;
}

void encode_f64_vec(ByteWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (double d : v) w.f64(d);
}

bool decode_f64_vec(ByteReader& r, std::vector<double>& v) {
  std::uint64_t count = 0;
  if (!r.vec_size(count, 8)) return false;
  v.resize(static_cast<std::size_t>(count));
  for (double& d : v) {
    if (!r.f64(d)) return false;
  }
  return true;
}

void encode_i32_vec(ByteWriter& w, const std::vector<int>& v) {
  w.u64(v.size());
  for (int i : v) w.i32(i);
}

bool decode_i32_vec(ByteReader& r, std::vector<int>& v) {
  std::uint64_t count = 0;
  if (!r.vec_size(count, 4)) return false;
  v.resize(static_cast<std::size_t>(count));
  for (int& i : v) {
    if (!r.i32(i)) return false;
  }
  return true;
}

void encode_evaluation(ByteWriter& w, const core::Evaluation& e) {
  w.f64(e.total_cost);
  w.f64(e.reflector_cost);
  w.f64(e.sr_edge_cost);
  w.f64(e.rd_edge_cost);
  w.i32(e.reflectors_built);
  w.i32(e.streams_delivered);
  encode_f64_vec(w, e.fanout_utilization);
  w.f64(e.max_fanout_utilization);
  w.f64(e.min_weight_ratio);
  w.f64(e.mean_weight_ratio);
  w.i32(e.sinks_total);
  w.i32(e.sinks_meeting_demand);
  w.i32(e.sinks_meeting_quarter);
  w.i32(e.sinks_unserved);
  w.i32(e.max_color_copies);
  w.boolean(e.consistent);
  w.u64(e.sinks.size());
  for (const core::SinkEvaluation& s : e.sinks) {
    w.i32(s.sink);
    w.f64(s.demand_weight);
    w.f64(s.delivered_weight);
    w.f64(s.weight_ratio);
    w.f64(s.delivery_probability);
    w.f64(s.threshold);
    w.i32(s.copies);
    encode_i32_vec(w, s.copies_per_color);
  }
}

bool decode_evaluation(ByteReader& r, core::Evaluation& e) {
  if (!(r.f64(e.total_cost) && r.f64(e.reflector_cost) &&
        r.f64(e.sr_edge_cost) && r.f64(e.rd_edge_cost) &&
        r.i32(e.reflectors_built) && r.i32(e.streams_delivered) &&
        decode_f64_vec(r, e.fanout_utilization) &&
        r.f64(e.max_fanout_utilization) && r.f64(e.min_weight_ratio) &&
        r.f64(e.mean_weight_ratio) && r.i32(e.sinks_total) &&
        r.i32(e.sinks_meeting_demand) && r.i32(e.sinks_meeting_quarter) &&
        r.i32(e.sinks_unserved) && r.i32(e.max_color_copies) &&
        r.boolean(e.consistent))) {
    return false;
  }
  std::uint64_t count = 0;
  // Each sink row is at least 7 fixed fields + one vec length.
  if (!r.vec_size(count, 4 + 5 * 8 + 4 + 8)) return false;
  e.sinks.resize(static_cast<std::size_t>(count));
  for (core::SinkEvaluation& s : e.sinks) {
    if (!(r.i32(s.sink) && r.f64(s.demand_weight) &&
          r.f64(s.delivered_weight) && r.f64(s.weight_ratio) &&
          r.f64(s.delivery_probability) && r.f64(s.threshold) &&
          r.i32(s.copies) && decode_i32_vec(r, s.copies_per_color))) {
      return false;
    }
  }
  return true;
}

void encode_design_result(ByteWriter& w, const core::DesignResult& d) {
  w.u32(static_cast<std::uint32_t>(d.status));
  encode_u8_vec(w, d.design.z);
  encode_u8_vec(w, d.design.y);
  encode_u8_vec(w, d.design.x);
  encode_evaluation(w, d.evaluation);
  encode_f64_vec(w, d.lp_design.z);
  encode_f64_vec(w, d.lp_design.y);
  encode_f64_vec(w, d.lp_design.x);
  w.f64(d.lp_objective);
  w.i32(d.lp_iterations);
  w.i32(d.lp_phase1_iterations);
  w.i32(d.lp_refactorizations);
  w.f64(d.cost_ratio);
  w.i32(d.winning_attempt);
  w.i32(d.attempts_made);
  w.f64(d.lp_seconds);
  w.f64(d.rounding_seconds);
  w.boolean(d.lp_cache_hit);
  w.boolean(d.lp_warm_start);
}

bool decode_design_result(ByteReader& r, core::DesignResult& d) {
  std::uint32_t status = 0;
  if (!r.u32(status) ||
      status > static_cast<std::uint32_t>(
                   core::DesignStatus::kLpIterationLimit)) {
    return false;
  }
  d.status = static_cast<core::DesignStatus>(status);
  return decode_u8_vec(r, d.design.z) && decode_u8_vec(r, d.design.y) &&
         decode_u8_vec(r, d.design.x) && decode_evaluation(r, d.evaluation) &&
         decode_f64_vec(r, d.lp_design.z) && decode_f64_vec(r, d.lp_design.y) &&
         decode_f64_vec(r, d.lp_design.x) && r.f64(d.lp_objective) &&
         r.i32(d.lp_iterations) && r.i32(d.lp_phase1_iterations) &&
         r.i32(d.lp_refactorizations) && r.f64(d.cost_ratio) &&
         r.i32(d.winning_attempt) && r.i32(d.attempts_made) &&
         r.f64(d.lp_seconds) && r.f64(d.rounding_seconds) &&
         r.boolean(d.lp_cache_hit) && r.boolean(d.lp_warm_start);
}

void encode_report(ByteWriter& w, const core::SweepReport& report) {
  w.u64(report.num_instances);
  w.u64(report.num_configs);
  w.u64(report.lp_configs);
  report.lp.encode(w);
  w.f64(report.wall_seconds);
  w.f64(report.cpu_seconds);
  w.u64(report.cells.size());
  for (const core::SweepCell& cell : report.cells) {
    w.u64(cell.instance_index);
    w.u64(cell.config_index);
    w.str(cell.instance_label);
    w.str(cell.config_label);
    w.f64(cell.seconds);
    encode_design_result(w, cell.result);
  }
}

bool decode_report(ByteReader& r, core::SweepReport& report) {
  std::uint64_t num_instances = 0;
  std::uint64_t num_configs = 0;
  std::uint64_t lp_configs = 0;
  if (!(r.u64(num_instances) && r.u64(num_configs) && r.u64(lp_configs) &&
        report.lp.decode(r) && r.f64(report.wall_seconds) &&
        r.f64(report.cpu_seconds))) {
    return false;
  }
  report.num_instances = static_cast<std::size_t>(num_instances);
  report.num_configs = static_cast<std::size_t>(num_configs);
  report.lp_configs = static_cast<std::size_t>(lp_configs);
  std::uint64_t count = 0;
  // A cell is at least: two u64 indices, two str lengths, seconds, and
  // the result's fixed fields — bound the count well before allocating.
  if (!r.vec_size(count, 2 * 8 + 2 * 8 + 8 + 16)) return false;
  report.cells.resize(static_cast<std::size_t>(count));
  for (core::SweepCell& cell : report.cells) {
    std::uint64_t instance_index = 0;
    std::uint64_t config_index = 0;
    if (!(r.u64(instance_index) && r.u64(config_index) &&
          r.str(cell.instance_label) && r.str(cell.config_label) &&
          r.f64(cell.seconds) && decode_design_result(r, cell.result))) {
      return false;
    }
    cell.instance_index = static_cast<std::size_t>(instance_index);
    cell.config_index = static_cast<std::size_t>(config_index);
  }
  return true;
}

void encode_options(ByteWriter& w, const core::SweepOptions& options) {
  w.u64(options.threads);
  w.boolean(options.reseed_per_instance);
}

bool decode_options(ByteReader& r, core::SweepOptions& options) {
  std::uint64_t threads = 0;
  if (!r.u64(threads) || !r.boolean(options.reseed_per_instance)) {
    return false;
  }
  options.threads = static_cast<std::size_t>(threads);
  return true;
}

}  // namespace

std::string encode_grid(const core::DesignSweep& sweep,
                        const core::SweepOptions& options) {
  ByteWriter w;
  encode_options(w, options);
  w.u64(sweep.num_instances());
  for (std::size_t i = 0; i < sweep.num_instances(); ++i) {
    w.str(sweep.instance_label(i));
    w.str(net::to_text(sweep.instance(i)));
  }
  w.u64(sweep.num_configs());
  for (std::size_t c = 0; c < sweep.num_configs(); ++c) {
    w.str(sweep.config_label(c));
    encode_config(w, sweep.config(c));
  }
  return w.bytes();
}

bool decode_grid(std::string_view payload, WireGrid& out) {
  ByteReader r(payload);
  if (!decode_options(r, out.options)) return false;
  std::uint64_t num_instances = 0;
  if (!r.vec_size(num_instances, 16)) return false;
  for (std::uint64_t i = 0; i < num_instances; ++i) {
    std::string label;
    std::string text;
    if (!r.str(label) || !r.str(text)) return false;
    try {
      out.sweep.add_instance(std::move(label), net::from_text(text));
    } catch (const std::exception&) {
      return false;  // malformed instance text is corruption, not a throw
    }
  }
  std::uint64_t num_configs = 0;
  if (!r.vec_size(num_configs, 8)) return false;
  for (std::uint64_t c = 0; c < num_configs; ++c) {
    std::string label;
    core::DesignerConfig config;
    if (!r.str(label) || !decode_config(r, config)) return false;
    out.sweep.add_config(std::move(label), config);
  }
  return r.remaining() == 0;
}

std::string encode_shard(const WireShard& shard) {
  ByteWriter w;
  w.u64(shard.shard_index);
  w.u64(shard.begin);
  w.u64(shard.end);
  return w.bytes();
}

bool decode_shard(std::string_view payload, WireShard& out) {
  ByteReader r(payload);
  return r.u64(out.shard_index) && r.u64(out.begin) && r.u64(out.end) &&
         out.begin <= out.end && r.remaining() == 0;
}

std::string encode_result(const WireResult& result) {
  ByteWriter w;
  w.u64(result.shard_index);
  encode_report(w, result.report);
  w.str(result.trace);  // v3: trailing span-buffer blob (may be empty)
  return w.bytes();
}

bool decode_result(std::string_view payload, WireResult& out) {
  ByteReader r(payload);
  return r.u64(out.shard_index) && decode_report(r, out.report) &&
         r.str(out.trace) && r.remaining() == 0;
}

util::Digest128 grid_digest(const core::DesignSweep& sweep,
                            const core::SweepOptions& options,
                            std::size_t num_shards) {
  // The digest hashes the grid payload with threads zeroed: the thread
  // cap never changes results, so a resume with a different --threads
  // still reuses checkpoints.  The shard count IS part of the identity —
  // a different plan produces different shard ranges.
  core::SweepOptions canonical = options;
  canonical.threads = 0;
  const std::string payload = encode_grid(sweep, canonical);
  util::Hasher h;
  h.str("omn-dist-grid-v1");
  h.bytes(payload.data(), payload.size());
  h.u64(num_shards);
  return h.digest();
}

}  // namespace omn::dist
