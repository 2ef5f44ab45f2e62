#include "omn/topo/akamai.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "omn/util/rng.hpp"

namespace omn::topo {

namespace {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

net::OverlayInstance make_akamai_like(const AkamaiLikeConfig& cfg) {
  if (cfg.num_sources < 1 || cfg.num_reflectors < 1 || cfg.num_sinks < 1) {
    throw std::invalid_argument("make_akamai_like: empty stage");
  }
  if (cfg.num_metros < 1 || cfg.num_isps < 1) {
    throw std::invalid_argument("make_akamai_like: need metros and ISPs");
  }
  util::Rng rng(cfg.seed);
  net::OverlayInstance inst;

  // Metros on the unit square.  The "focus" region is the left half; the
  // focus_fraction of sinks lands there (EU-heavy events set it high).
  std::vector<Point> metros(static_cast<std::size_t>(cfg.num_metros));
  for (auto& m : metros) m = {rng.uniform(), rng.uniform()};

  auto place_near_metro = [&](const Point& metro) {
    return Point{metro.x + rng.normal(0.0, 0.03), metro.y + rng.normal(0.0, 0.03)};
  };
  auto pick_metro = [&](bool focus) -> const Point& {
    // Try a few times to hit the requested half; metros are random so a
    // side can be empty — fall back to any metro.
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto& m = metros[rng.uniform_index(metros.size())];
      if (focus == (m.x < 0.5)) return m;
    }
    return metros[rng.uniform_index(metros.size())];
  };

  // ISP quality: loss multiplier per ISP, and a per-ISP contract base rate.
  std::vector<double> isp_loss_factor(static_cast<std::size_t>(cfg.num_isps));
  std::vector<double> isp_price(static_cast<std::size_t>(cfg.num_isps));
  for (int g = 0; g < cfg.num_isps; ++g) {
    isp_loss_factor[static_cast<std::size_t>(g)] = rng.uniform(0.7, 1.5);
    isp_price[static_cast<std::size_t>(g)] = rng.uniform(0.6, 1.8);
  }

  // Sources (entrypoints): near a metro, one commodity each.
  std::vector<Point> src_pos;
  for (int k = 0; k < cfg.num_sources; ++k) {
    src_pos.push_back(place_near_metro(pick_metro(rng.bernoulli(0.5))));
    inst.add_source(net::Source{"src" + std::to_string(k), 1.0});
  }

  // Reflectors: round-robin over ISPs so colors partition evenly.
  std::vector<Point> refl_pos;
  std::vector<int> refl_isp;
  for (int i = 0; i < cfg.num_reflectors; ++i) {
    const int isp = i % cfg.num_isps;
    refl_pos.push_back(place_near_metro(pick_metro(rng.bernoulli(0.5))));
    refl_isp.push_back(isp);
    net::Reflector r;
    r.name = "refl" + std::to_string(i);
    r.color = isp;
    r.fanout = std::floor(rng.uniform(cfg.fanout_min, cfg.fanout_max + 1.0));
    // Build-out cost: colo in a pricey ISP costs more.
    r.build_cost = cfg.reflector_cost_scale *
                   isp_price[static_cast<std::size_t>(isp)] *
                   rng.uniform(0.6, 1.4);
    inst.add_reflector(std::move(r));
  }

  // Loss & price of a link between two points via an ISP.
  auto link_loss = [&](const Point& a, const Point& b, int isp) {
    const double jitter = std::exp(rng.normal(0.0, cfg.loss_jitter));
    const double raw =
        (cfg.base_loss + cfg.loss_per_unit_distance * distance(a, b)) *
        isp_loss_factor[static_cast<std::size_t>(isp)] * jitter;
    return std::clamp(raw, 1e-4, cfg.max_loss);
  };
  auto link_price = [&](const Point& a, const Point& b, int isp) {
    const double dist = distance(a, b);
    return cfg.edge_cost_scale * isp_price[static_cast<std::size_t>(isp)] *
           (0.25 + dist) * rng.pareto(1.0, cfg.price_pareto_shape);
  };
  // Propagation delay: the unit square spans ~120 ms of one-way latency
  // (a transatlantic-scale overlay), plus a small queueing jitter floor.
  auto link_delay = [&](const Point& a, const Point& b) {
    return 2.0 + 120.0 * distance(a, b) * rng.uniform(0.9, 1.3);
  };

  // Source -> reflector edges: dense (|S| is small in practice; the
  // entrypoint must be able to reach any reflector).  Their losses are kept
  // in sr_loss[k * R + i] so the sink loop below never asks the instance,
  // whose lookup index every added edge invalidates.
  const std::size_t num_refl = static_cast<std::size_t>(cfg.num_reflectors);
  std::vector<double> sr_loss(static_cast<std::size_t>(cfg.num_sources) *
                              num_refl);
  for (int k = 0; k < cfg.num_sources; ++k) {
    for (int i = 0; i < cfg.num_reflectors; ++i) {
      net::SourceReflectorEdge e;
      e.source = k;
      e.reflector = i;
      e.loss = link_loss(src_pos[static_cast<std::size_t>(k)],
                         refl_pos[static_cast<std::size_t>(i)],
                         refl_isp[static_cast<std::size_t>(i)]);
      e.cost = link_price(src_pos[static_cast<std::size_t>(k)],
                          refl_pos[static_cast<std::size_t>(i)],
                          refl_isp[static_cast<std::size_t>(i)]);
      e.delay_ms = link_delay(src_pos[static_cast<std::size_t>(k)],
                              refl_pos[static_cast<std::size_t>(i)]);
      sr_loss[static_cast<std::size_t>(k) * num_refl +
              static_cast<std::size_t>(i)] = e.loss;
      inst.add_source_reflector_edge(e);
    }
  }

  // Sinks (edgeservers) with candidate reflector lists.
  const int cand = cfg.candidates_per_sink <= 0
                       ? cfg.num_reflectors
                       : std::min(cfg.candidates_per_sink, cfg.num_reflectors);
  for (int j = 0; j < cfg.num_sinks; ++j) {
    const bool focus = rng.bernoulli(cfg.focus_fraction);
    const Point pos = place_near_metro(pick_metro(focus));
    net::Sink d;
    d.name = "edge" + std::to_string(j);
    d.commodity = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(cfg.num_sources)));
    d.threshold = rng.uniform(cfg.threshold_min, cfg.threshold_max);
    const int jj = inst.add_sink(std::move(d));

    // Closest reflectors by distance.
    std::vector<int> order(static_cast<std::size_t>(cfg.num_reflectors));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return distance(pos, refl_pos[static_cast<std::size_t>(a)]) <
             distance(pos, refl_pos[static_cast<std::size_t>(b)]);
    });
    const int k = inst.sink(jj).commodity;
    const double demand = net::OverlayInstance::demand_weight(
        inst.sink(jj).threshold);
    double weight_sum = 0.0;
    int added = 0;
    for (int rank = 0; rank < cfg.num_reflectors; ++rank) {
      const bool within_candidates = added < cand;
      const bool needs_repair = weight_sum < cfg.weight_margin * demand;
      if (!within_candidates && !needs_repair) break;
      const int i = order[static_cast<std::size_t>(rank)];
      net::ReflectorSinkEdge e;
      e.reflector = i;
      e.sink = jj;
      e.loss = link_loss(refl_pos[static_cast<std::size_t>(i)], pos,
                         refl_isp[static_cast<std::size_t>(i)]);
      e.cost = link_price(refl_pos[static_cast<std::size_t>(i)], pos,
                          refl_isp[static_cast<std::size_t>(i)]);
      e.delay_ms = link_delay(refl_pos[static_cast<std::size_t>(i)], pos);
      inst.add_reflector_sink_edge(e);
      ++added;
      weight_sum += net::OverlayInstance::path_weight(
          sr_loss[static_cast<std::size_t>(k) * num_refl +
                  static_cast<std::size_t>(i)],
          e.loss);
    }
    // Last-resort repair: if even all reflectors cannot meet the demand
    // with margin, relax the sink's threshold to what the network supports.
    if (weight_sum < cfg.weight_margin * demand) {
      const double affordable = weight_sum / std::max(cfg.weight_margin, 1.0);
      // W = -log(1 - phi)  =>  phi = 1 - exp(-W)
      inst.sink(jj).threshold = std::clamp(
          1.0 - std::exp(-affordable) - 1e-6, 0.5, 0.9999);
    }
  }

  inst.validate();
  return inst;
}

AkamaiLikeConfig global_event_config(int sinks, std::uint64_t seed) {
  AkamaiLikeConfig cfg;
  cfg.num_sinks = sinks;
  cfg.num_reflectors = std::max(8, sinks / 4);
  cfg.num_metros = std::max(6, sinks / 8);
  cfg.num_sources = 2;
  cfg.focus_fraction = 0.5;
  cfg.seed = seed;
  return cfg;
}

AkamaiLikeConfig eu_heavy_event_config(int sinks, std::uint64_t seed) {
  AkamaiLikeConfig cfg = global_event_config(sinks, seed);
  cfg.num_sources = 1;
  cfg.focus_fraction = 0.85;  // most edgeservers in the focus (EU) region
  return cfg;
}

}  // namespace omn::topo
