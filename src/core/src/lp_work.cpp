#include "omn/core/lp_work.hpp"

#include <span>

#include "omn/core/designer.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/util/json.hpp"

namespace omn::core {

namespace {

struct Counter {
  const char* key;
  std::size_t LpWork::*field;
};

// Every counter, in the kSweep key order.
constexpr Counter kCounters[] = {
    {"lp_solves", &LpWork::solves},
    {"lp_cache_hits", &LpWork::cache_hits},
    {"lp_cache_misses", &LpWork::cache_misses},
    {"lp_iterations", &LpWork::iterations},
    {"lp_phase1_iterations", &LpWork::phase1_iterations},
    {"lp_refactorizations", &LpWork::refactorizations},
    {"lp_warm_start_hits", &LpWork::warm_start_hits},
};

// Redesign-loop records carry no solve/miss counts and list the cache
// hits last.
constexpr Counter kSessionCounters[] = {
    {"lp_iterations", &LpWork::iterations},
    {"lp_phase1_iterations", &LpWork::phase1_iterations},
    {"lp_refactorizations", &LpWork::refactorizations},
    {"lp_warm_start_hits", &LpWork::warm_start_hits},
    {"lp_cache_hits", &LpWork::cache_hits},
};

LpWork one_lp(bool cache_hit, bool cache_consulted, int iterations,
              int phase1_iterations, int refactorizations, bool warm_started) {
  LpWork work;
  if (cache_hit) {
    work.cache_hits = 1;
  } else {
    work.solves = 1;
    work.cache_misses = cache_consulted ? 1 : 0;
    work.iterations = static_cast<std::size_t>(iterations);
    work.phase1_iterations = static_cast<std::size_t>(phase1_iterations);
    work.refactorizations = static_cast<std::size_t>(refactorizations);
  }
  work.warm_start_hits = warm_started ? 1 : 0;
  return work;
}

}  // namespace

LpWork LpWork::of(const lp::Solution& solution, bool cache_hit,
                  bool cache_consulted) {
  return one_lp(cache_hit, cache_consulted, solution.iterations,
                solution.phase1_iterations, solution.refactorizations,
                solution.warm_started);
}

LpWork LpWork::of(const DesignResult& result, bool cache_consulted) {
  return one_lp(result.lp_cache_hit, cache_consulted, result.lp_iterations,
                result.lp_phase1_iterations, result.lp_refactorizations,
                result.lp_warm_start);
}

LpWork& LpWork::operator+=(const LpWork& other) {
  for (const Counter& c : kCounters) this->*c.field += other.*c.field;
  return *this;
}

void LpWork::write_json(util::Json& record, Keys keys) const {
  const std::span<const Counter> counters =
      keys == Keys::kSweep ? std::span<const Counter>(kCounters)
                           : std::span<const Counter>(kSessionCounters);
  for (const Counter& c : counters) record.set(c.key, this->*c.field);
}

}  // namespace omn::core
