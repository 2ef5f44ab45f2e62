#include "omn/core/lp_cache.hpp"

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "omn/util/atomic_file.hpp"
#include "omn/util/bytes.hpp"
#include "omn/util/trace.hpp"

namespace omn::core {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4F4C5043u;

// Version 2: the Markowitz/hypersparse BasisLu and the row-wise pivot row
// (version 1 was the left-looking dense-scan kernel).
constexpr std::uint32_t kSolverKernelVersion = 2;

// The entry format must be byte-identical across platforms (the directory
// tier is shared between processes and potentially machines), so every
// field goes through util::ByteWriter/ByteReader, never raw struct writes.
using util::ByteReader;
using util::ByteWriter;

void hash_build_options(util::Hasher& h, const LpBuildOptions& o) {
  h.boolean(o.cutting_plane);
  h.boolean(o.bandwidth_extension);
  h.boolean(o.rd_capacities);
  h.boolean(o.reflector_stream_capacities);
  h.boolean(o.color_constraints);
}

void hash_solve_options(util::Hasher& h, const lp::SolveOptions& o) {
  h.i32(o.max_iterations);
  h.f64(lp::kOptimalityTol);
  h.f64(lp::kFeasibilityTol);
  h.f64(lp::kPivotTol);
  h.i32(lp::kDegenerateSwitch);
  // The retired simplex-core selector, hashed as its only value (0 =
  // revised) so keys, and .lpsol files written before its removal, stay.
  h.u32(0);
  // The retired pricing selector, hashed as its only value (1 = steepest
  // edge) for the same reason.
  h.u32(1);
  h.i32(o.refactor_interval);
  // The solver kernel's numerics: a kernel that rounds differently may
  // return a different (equally optimal) point, so an entry written by an
  // older kernel must miss.  Bump on any such change.
  h.u32(kSolverKernelVersion);
  // warm_start_basis is excluded: solves offered one bypass the cache
  // (solve_overlay_lp_cached), so every key names a cold solve.
}

}  // namespace

util::Digest128 lp_instance_digest(const net::OverlayInstance& instance) {
  util::Hasher h;
  h.str("omn-lp-instance-v1");
  h.i32(instance.num_sources());
  h.i32(instance.num_reflectors());
  h.i32(instance.num_sinks());
  h.u64(instance.sr_edges().size());
  h.u64(instance.rd_edges().size());
  for (int k = 0; k < instance.num_sources(); ++k) {
    h.f64(instance.source(k).bandwidth);
  }
  for (int i = 0; i < instance.num_reflectors(); ++i) {
    const net::Reflector& r = instance.reflector(i);
    h.f64(r.build_cost);
    h.f64(r.fanout);
    h.i32(r.color);
    h.opt_f64(r.stream_capacity);
  }
  for (int j = 0; j < instance.num_sinks(); ++j) {
    const net::Sink& s = instance.sink(j);
    h.i32(s.commodity);
    h.f64(s.threshold);
  }
  // Edge lists in id order: the order defines the LP's variable indexing,
  // so it is part of the content.  delay_ms is sim-only, never hashed.
  for (const net::SourceReflectorEdge& e : instance.sr_edges()) {
    h.i32(e.source);
    h.i32(e.reflector);
    h.f64(e.cost);
    h.f64(e.loss);
  }
  for (const net::ReflectorSinkEdge& e : instance.rd_edges()) {
    h.i32(e.reflector);
    h.i32(e.sink);
    h.f64(e.cost);
    h.f64(e.loss);
    h.opt_f64(e.capacity);
  }
  return h.digest();
}

util::Digest128 LpCache::key(const net::OverlayInstance& instance,
                             const LpBuildOptions& build,
                             const lp::SolveOptions& solve) {
  util::Hasher h;
  h.str("omn-lp-solve-v1");
  const util::Digest128 inst = lp_instance_digest(instance);
  h.u64(inst.hi);
  h.u64(inst.lo);
  hash_build_options(h, build);
  hash_solve_options(h, solve);
  return h.digest();
}

LpCache::LpCache(std::string directory) : directory_(std::move(directory)) {
  fs::create_directories(directory_);
}

std::optional<lp::Solution> LpCache::find(const util::Digest128& key) {
  OMN_TRACE_SPAN("cache.find");
  if (!directory_.empty()) return load_from_disk(key);
  const util::LockGuard lock(mutex_);
  const auto it = memory_.find(key);
  if (it == memory_.end()) {
    ++stats_.misses;
    OMN_TRACE_INSTANT("cache.miss");
    return std::nullopt;
  }
  ++stats_.hits;
  OMN_TRACE_INSTANT("cache.hit_memory");
  return it->second;
}

void LpCache::insert(const util::Digest128& key, const lp::Solution& solution) {
  if (!directory_.empty()) store_to_disk(key, solution);
  const util::LockGuard lock(mutex_);
  if (directory_.empty()) memory_[key] = solution;
  ++stats_.insertions;
}

LpCacheStats LpCache::stats() const {
  const util::LockGuard lock(mutex_);
  return stats_;
}

std::string LpCache::path_for(const util::Digest128& key) const {
  return (fs::path(directory_) / (key.hex() + ".lpsol")).string();
}

std::optional<lp::Solution> LpCache::load_from_disk(
    const util::Digest128& key) {
  OMN_TRACE_SPAN("cache.disk_read");
  std::optional<lp::Solution> entry;
  bool rejected = false;
  {
    std::ifstream in(path_for(key), std::ios::binary);
    if (in.good()) {
      entry = read_entry(in, key);
      // An unreadable-but-present file is a corrupt entry, not a miss.
      rejected = !entry.has_value();
    }
  }
  const util::LockGuard lock(mutex_);
  if (!entry.has_value()) {
    ++stats_.misses;
    if (rejected) ++stats_.rejected;
    OMN_TRACE_INSTANT("cache.miss");
    return std::nullopt;
  }
  ++stats_.hits;
  ++stats_.disk_hits;
  OMN_TRACE_INSTANT("cache.hit_disk");
  return entry;
}

void LpCache::store_to_disk(const util::Digest128& key,
                            const lp::Solution& solution) {
  OMN_TRACE_SPAN("cache.disk_write");
  // Readers (this process or another sharing the directory) only ever
  // observe complete entries; the tier is advisory, so a failed store —
  // write_file_atomic returns false — must never fail the solve.
  std::ostringstream buffer;
  write_entry(buffer, key, solution);
  util::write_file_atomic(path_for(key), buffer.str());
}

void LpCache::write_entry(std::ostream& os, const util::Digest128& key,
                          const lp::Solution& solution) {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u64(key.hi);
  w.u64(key.lo);
  w.u32(static_cast<std::uint32_t>(solution.status));
  w.i32(solution.iterations);
  w.i32(solution.phase1_iterations);
  w.f64(solution.objective);
  w.f64(solution.max_violation);
  w.u64(solution.x.size());
  for (double v : solution.x) w.f64(v);
  w.i32(solution.refactorizations);
  w.u8(solution.warm_started ? 1 : 0);
  w.u8(solution.basis.has_value() ? 1 : 0);
  if (solution.basis.has_value()) {
    w.u64(solution.basis->state.size());
    for (lp::VarStatus s : solution.basis->state) {
      w.u8(static_cast<std::uint8_t>(s));
    }
    w.u64(solution.basis->basic.size());
    for (std::int32_t row : solution.basis->basic) w.i32(row);
  }
  const std::uint64_t checksum = util::content_checksum(w.bytes());
  w.u64(checksum);
  os.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
}

std::optional<lp::Solution> LpCache::read_entry(std::istream& is,
                                                const util::Digest128& key) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string data = buffer.str();
  ByteReader r(data);

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  util::Digest128 stored;
  if (!r.u32(magic) || magic != kMagic) return std::nullopt;
  if (!r.u32(version) || version != kFormatVersion) return std::nullopt;
  if (!r.u64(stored.hi) || !r.u64(stored.lo) || !(stored == key)) {
    return std::nullopt;
  }

  lp::Solution solution;
  std::uint32_t status = 0;
  std::uint64_t count = 0;
  if (!r.u32(status) || status > static_cast<std::uint32_t>(
                                     lp::SolveStatus::kIterationLimit)) {
    return std::nullopt;
  }
  solution.status = static_cast<lp::SolveStatus>(status);
  if (!r.i32(solution.iterations) || !r.i32(solution.phase1_iterations) ||
      !r.f64(solution.objective) || !r.f64(solution.max_violation) ||
      !r.u64(count)) {
    return std::nullopt;
  }
  // A truncated x array must fail before allocation, not throw bad_alloc
  // on a garbage count.
  if (r.remaining() < 8 || (r.remaining() - 8) / 8 < count) return std::nullopt;
  solution.x.resize(static_cast<std::size_t>(count));
  for (double& v : solution.x) {
    if (!r.f64(v)) return std::nullopt;
  }

  std::uint8_t warm = 0;
  std::uint8_t has_basis = 0;
  if (!r.i32(solution.refactorizations) || !r.u8(warm) || warm > 1 ||
      !r.u8(has_basis) || has_basis > 1) {
    return std::nullopt;
  }
  solution.warm_started = warm != 0;
  if (has_basis != 0) {
    lp::Basis basis;
    std::uint64_t num_states = 0;
    if (!r.vec_size(num_states, 1)) return std::nullopt;
    basis.state.resize(static_cast<std::size_t>(num_states));
    for (lp::VarStatus& s : basis.state) {
      std::uint8_t raw = 0;
      if (!r.u8(raw) ||
          raw > static_cast<std::uint8_t>(lp::VarStatus::kBasic)) {
        return std::nullopt;
      }
      s = static_cast<lp::VarStatus>(raw);
    }
    std::uint64_t num_basic = 0;
    if (!r.vec_size(num_basic, 4)) return std::nullopt;
    basis.basic.resize(static_cast<std::size_t>(num_basic));
    for (std::int32_t& row : basis.basic) {
      // Basic entries index into state[]; anything outside is corruption.
      if (!r.i32(row) || row < 0 ||
          static_cast<std::uint64_t>(row) >= num_states) {
        return std::nullopt;
      }
    }
    solution.basis = std::move(basis);
  }

  const std::size_t payload_size = r.position();
  std::uint64_t checksum = 0;
  if (!r.u64(checksum) || r.remaining() != 0) return std::nullopt;
  if (checksum != util::content_checksum(
                      std::string_view(data).substr(0, payload_size))) {
    return std::nullopt;
  }
  return solution;
}

CachedLp solve_overlay_lp_cached(const net::OverlayInstance& instance,
                                 const LpBuildOptions& build,
                                 const lp::SolveOptions& solve,
                                 LpCache* cache) {
  CachedLp out;
  {
    OMN_TRACE_SPAN("lp.build");
    out.lp = build_overlay_lp(instance, build);
  }
  // A warm solve may stop at another optimal vertex: it bypasses the cache.
  if (cache == nullptr || solve.warm_start_basis.has_value()) {
    OMN_TRACE_SPAN("lp.solve");
    out.solution = lp::SimplexSolver().solve(out.lp.model, solve);
    return out;
  }
  const util::Digest128 key = LpCache::key(instance, build, solve);
  if (std::optional<lp::Solution> hit = cache->find(key)) {
    // Structural backstop against a (vanishingly unlikely) digest
    // collision or a foreign file dropped into the cache directory: an
    // optimal point must match the rebuilt model's dimension.  Non-optimal
    // statuses carry no point that downstream code reads.
    if (hit->status != lp::SolveStatus::kOptimal ||
        hit->x.size() == static_cast<std::size_t>(out.lp.model.num_variables())) {
      out.solution = std::move(*hit);
      out.cache_hit = true;
      return out;
    }
  }
  {
    OMN_TRACE_SPAN("lp.solve");
    out.solution = lp::SimplexSolver().solve(out.lp.model, solve);
  }
  cache->insert(key, out.solution);
  return out;
}

}  // namespace omn::core
