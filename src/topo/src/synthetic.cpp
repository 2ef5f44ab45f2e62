#include "omn/topo/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "omn/util/rng.hpp"

namespace omn::topo {

net::OverlayInstance make_uniform_random(const UniformConfig& cfg) {
  if (cfg.num_sources < 1 || cfg.num_reflectors < 1 || cfg.num_sinks < 1) {
    throw std::invalid_argument("make_uniform_random: empty stage");
  }
  util::Rng rng(cfg.seed);
  net::OverlayInstance inst;

  for (int k = 0; k < cfg.num_sources; ++k) {
    inst.add_source(net::Source{"s" + std::to_string(k), 1.0});
  }
  for (int i = 0; i < cfg.num_reflectors; ++i) {
    net::Reflector r;
    r.name = "r" + std::to_string(i);
    r.build_cost = rng.uniform(cfg.reflector_cost_min, cfg.reflector_cost_max);
    r.fanout = std::floor(rng.uniform(cfg.fanout_min, cfg.fanout_max + 1.0));
    r.color = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(std::max(1, cfg.num_colors))));
    inst.add_reflector(std::move(r));
  }
  // sr_loss[k * R + i]: the sink loop reads source->reflector losses here,
  // not through the instance, whose lookup index every added edge clears.
  const std::size_t num_refl = static_cast<std::size_t>(cfg.num_reflectors);
  std::vector<double> sr_loss(static_cast<std::size_t>(cfg.num_sources) *
                              num_refl);
  for (int k = 0; k < cfg.num_sources; ++k) {
    for (int i = 0; i < cfg.num_reflectors; ++i) {
      net::SourceReflectorEdge e;
      e.source = k;
      e.reflector = i;
      e.loss = rng.uniform(cfg.loss_min, cfg.loss_max);
      e.cost = rng.uniform(cfg.cost_min, cfg.cost_max);
      sr_loss[static_cast<std::size_t>(k) * num_refl +
              static_cast<std::size_t>(i)] = e.loss;
      inst.add_source_reflector_edge(e);
    }
  }
  for (int j = 0; j < cfg.num_sinks; ++j) {
    net::Sink d;
    d.name = "d" + std::to_string(j);
    d.commodity = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(cfg.num_sources)));
    d.threshold = rng.uniform(cfg.threshold_min, cfg.threshold_max);
    const int jj = inst.add_sink(std::move(d));
    const int k = inst.sink(jj).commodity;
    const double demand =
        net::OverlayInstance::demand_weight(inst.sink(jj).threshold);

    std::vector<int> order(static_cast<std::size_t>(cfg.num_reflectors));
    std::iota(order.begin(), order.end(), 0);
    // Shuffle so repair edges are unbiased.
    for (std::size_t a = order.size(); a > 1; --a) {
      std::swap(order[a - 1], order[rng.uniform_index(a)]);
    }
    double weight_sum = 0.0;
    for (int i : order) {
      const bool want = rng.bernoulli(cfg.rd_edge_density);
      const bool repair = weight_sum < cfg.weight_margin * demand;
      if (!want && !repair) continue;
      net::ReflectorSinkEdge e;
      e.reflector = i;
      e.sink = jj;
      e.loss = rng.uniform(cfg.loss_min, cfg.loss_max);
      e.cost = rng.uniform(cfg.cost_min, cfg.cost_max);
      inst.add_reflector_sink_edge(e);
      weight_sum += net::OverlayInstance::path_weight(
          sr_loss[static_cast<std::size_t>(k) * num_refl +
                  static_cast<std::size_t>(i)],
          e.loss);
    }
    if (weight_sum < demand) {
      // All reflectors connected yet demand unmet: relax threshold.
      const double margin = std::max(cfg.weight_margin, 1.0);
      inst.sink(jj).threshold = std::clamp(
          1.0 - std::exp(-weight_sum / margin), 0.5, 0.9999);
    }
  }
  inst.validate();
  // Hand back the lookup indexes built, so threads that share the result
  // only read them (their lazy build is not thread-safe).
  inst.freeze();
  return inst;
}

SetCoverInstance make_set_cover(const std::vector<std::vector<int>>& sets,
                                int num_elements) {
  if (num_elements <= 0) {
    throw std::invalid_argument("make_set_cover: need elements");
  }
  SetCoverInstance out;
  out.sets = sets;
  out.num_elements = num_elements;
  net::OverlayInstance& inst = out.network;

  inst.add_source(net::Source{"stream", 1.0});

  // Loss chosen so one covering reflector meets the threshold exactly:
  // threshold 0.9 needs success 0.9; a path with failure 0.05 gives 0.95.
  constexpr double kThreshold = 0.9;
  constexpr double kPathLoss = 0.05;

  for (std::size_t s = 0; s < sets.size(); ++s) {
    net::Reflector r;
    r.name = "set" + std::to_string(s);
    r.build_cost = 1.0;  // unit cost: design cost == cover size
    r.fanout = static_cast<double>(num_elements);  // uncapacitated
    inst.add_reflector(std::move(r));
    net::SourceReflectorEdge e;
    e.source = 0;
    e.reflector = static_cast<int>(s);
    e.cost = 0.0;
    e.loss = 0.0;  // failure comes entirely from the RD hop
    inst.add_source_reflector_edge(e);
  }
  for (int el = 0; el < num_elements; ++el) {
    net::Sink d;
    d.name = "elem" + std::to_string(el);
    d.commodity = 0;
    d.threshold = kThreshold;
    inst.add_sink(std::move(d));
  }
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (int el : sets[s]) {
      if (el < 0 || el >= num_elements) {
        throw std::invalid_argument("make_set_cover: element out of range");
      }
      net::ReflectorSinkEdge e;
      e.reflector = static_cast<int>(s);
      e.sink = el;
      e.cost = 0.0;
      e.loss = kPathLoss;
      inst.add_reflector_sink_edge(e);
    }
  }
  inst.validate();
  return out;
}

SetCoverInstance make_random_set_cover(int num_elements, int num_sets,
                                       double membership_probability,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<int>> sets(static_cast<std::size_t>(num_sets));
  std::vector<bool> covered(static_cast<std::size_t>(num_elements), false);
  for (int s = 0; s < num_sets; ++s) {
    for (int el = 0; el < num_elements; ++el) {
      if (rng.bernoulli(membership_probability)) {
        sets[static_cast<std::size_t>(s)].push_back(el);
        covered[static_cast<std::size_t>(el)] = true;
      }
    }
  }
  // Guarantee coverage: drop uncovered elements into random sets.
  for (int el = 0; el < num_elements; ++el) {
    if (!covered[static_cast<std::size_t>(el)]) {
      sets[rng.uniform_index(static_cast<std::uint64_t>(num_sets))].push_back(el);
    }
  }
  return make_set_cover(sets, num_elements);
}

}  // namespace omn::topo
