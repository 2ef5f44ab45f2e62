// Golden round-trip regression tests for the persisted formats:
//   net/serialize  (omn-instance v1, text)
//   core/design_io (omn-design v1, text)
//   core/lp_cache  (LP cache entry v2, binary; v1 must be rejected)
//
// Each golden file under tests/data/ was produced by the writers
// themselves and committed; the tests check
//   1. the golden bytes still load,
//   2. re-serializing the loaded value reproduces the golden bytes
//      exactly (so any format change must update the goldens, i.e. is
//      an explicit, reviewed decision), and
//   3. write -> read round-trips deep-equal for a freshly built value.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "omn/core/design.hpp"
#include "omn/core/design_io.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/net/instance.hpp"
#include "omn/net/serialize.hpp"
#include "omn/util/hash.hpp"

namespace {

std::string data_path(const std::string& file) {
  const char* dir = std::getenv("OMN_TEST_DATA_DIR");
  return (dir != nullptr ? std::string(dir) : std::string("tests/data")) +
         "/" + file;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_deep_equal(const omn::net::OverlayInstance& a,
                       const omn::net::OverlayInstance& b) {
  ASSERT_EQ(a.num_sources(), b.num_sources());
  ASSERT_EQ(a.num_reflectors(), b.num_reflectors());
  ASSERT_EQ(a.num_sinks(), b.num_sinks());
  ASSERT_EQ(a.sr_edges().size(), b.sr_edges().size());
  ASSERT_EQ(a.rd_edges().size(), b.rd_edges().size());
  for (int k = 0; k < a.num_sources(); ++k) {
    EXPECT_EQ(a.source(k).name, b.source(k).name);
    EXPECT_DOUBLE_EQ(a.source(k).bandwidth, b.source(k).bandwidth);
  }
  for (int i = 0; i < a.num_reflectors(); ++i) {
    EXPECT_EQ(a.reflector(i).name, b.reflector(i).name);
    EXPECT_DOUBLE_EQ(a.reflector(i).build_cost, b.reflector(i).build_cost);
    EXPECT_DOUBLE_EQ(a.reflector(i).fanout, b.reflector(i).fanout);
    EXPECT_EQ(a.reflector(i).color, b.reflector(i).color);
    EXPECT_EQ(a.reflector(i).stream_capacity.has_value(),
              b.reflector(i).stream_capacity.has_value());
    if (a.reflector(i).stream_capacity && b.reflector(i).stream_capacity) {
      EXPECT_DOUBLE_EQ(*a.reflector(i).stream_capacity,
                       *b.reflector(i).stream_capacity);
    }
  }
  for (int j = 0; j < a.num_sinks(); ++j) {
    EXPECT_EQ(a.sink(j).name, b.sink(j).name);
    EXPECT_EQ(a.sink(j).commodity, b.sink(j).commodity);
    EXPECT_DOUBLE_EQ(a.sink(j).threshold, b.sink(j).threshold);
  }
  for (std::size_t e = 0; e < a.sr_edges().size(); ++e) {
    EXPECT_EQ(a.sr_edges()[e].source, b.sr_edges()[e].source);
    EXPECT_EQ(a.sr_edges()[e].reflector, b.sr_edges()[e].reflector);
    EXPECT_DOUBLE_EQ(a.sr_edges()[e].cost, b.sr_edges()[e].cost);
    EXPECT_DOUBLE_EQ(a.sr_edges()[e].loss, b.sr_edges()[e].loss);
  }
  for (std::size_t e = 0; e < a.rd_edges().size(); ++e) {
    EXPECT_EQ(a.rd_edges()[e].reflector, b.rd_edges()[e].reflector);
    EXPECT_EQ(a.rd_edges()[e].sink, b.rd_edges()[e].sink);
    EXPECT_DOUBLE_EQ(a.rd_edges()[e].cost, b.rd_edges()[e].cost);
    EXPECT_DOUBLE_EQ(a.rd_edges()[e].loss, b.rd_edges()[e].loss);
    EXPECT_EQ(a.rd_edges()[e].capacity.has_value(),
              b.rd_edges()[e].capacity.has_value());
    if (a.rd_edges()[e].capacity && b.rd_edges()[e].capacity) {
      EXPECT_DOUBLE_EQ(*a.rd_edges()[e].capacity, *b.rd_edges()[e].capacity);
    }
  }
}

void expect_deep_equal(const omn::core::Design& a, const omn::core::Design& b) {
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.x, b.x);
}

omn::net::OverlayInstance make_sample_instance() {
  using namespace omn;
  net::OverlayInstance inst;
  inst.add_source(net::Source{"src-a", 1.0});
  inst.add_source(net::Source{"src-b", 2.5});
  net::Reflector capped{"refl-capped", 12.0, 4.0, 1, {}};
  capped.stream_capacity = 1.0;
  inst.add_reflector(net::Reflector{"refl-open", 10.0, 6.0, 0, {}});
  inst.add_reflector(capped);
  inst.add_sink(net::Sink{"sink-0", 0, 0.95});
  inst.add_sink(net::Sink{"sink-1", 1, 0.99});
  inst.add_source_reflector_edge({0, 0, 1.5, 0.02, 0.0});
  inst.add_source_reflector_edge({0, 1, 2.0, 0.01, 0.0});
  inst.add_source_reflector_edge({1, 0, 1.0, 0.05, 0.0});
  inst.add_source_reflector_edge({1, 1, 2.5, 0.03, 0.0});
  net::ReflectorSinkEdge capped_edge{0, 1, 1.25, 0.04, {}, 0.0};
  capped_edge.capacity = 2.0;
  inst.add_reflector_sink_edge({0, 0, 0.75, 0.02, {}, 0.0});
  inst.add_reflector_sink_edge({1, 0, 0.5, 0.03, {}, 0.0});
  inst.add_reflector_sink_edge(capped_edge);
  inst.add_reflector_sink_edge({1, 1, 1.0, 0.01, {}, 0.0});
  return inst;
}

TEST(GoldenInstance, LoadsAndReserializesByteExact) {
  const std::string golden = slurp(data_path("golden_instance.txt"));
  ASSERT_FALSE(golden.empty());
  const omn::net::OverlayInstance inst = omn::net::from_text(golden);
  inst.validate();
  EXPECT_EQ(omn::net::to_text(inst), golden);
}

TEST(GoldenInstance, GoldenMatchesProgrammaticSample) {
  const omn::net::OverlayInstance golden =
      omn::net::load_file(data_path("golden_instance.txt"));
  expect_deep_equal(golden, make_sample_instance());
}

TEST(GoldenInstance, WriteReadDeepEqual) {
  const omn::net::OverlayInstance inst = make_sample_instance();
  const omn::net::OverlayInstance reloaded =
      omn::net::from_text(omn::net::to_text(inst));
  expect_deep_equal(inst, reloaded);
}

TEST(GoldenDesign, LoadsAndReserializesByteExact) {
  const omn::net::OverlayInstance inst =
      omn::net::load_file(data_path("golden_instance.txt"));
  const std::string golden = slurp(data_path("golden_design.txt"));
  ASSERT_FALSE(golden.empty());
  const omn::core::Design design = omn::core::design_from_text(golden, inst);
  EXPECT_EQ(omn::core::design_to_text(design), golden);
}

TEST(GoldenDesign, WriteReadDeepEqual) {
  const omn::net::OverlayInstance inst = make_sample_instance();
  omn::core::Design design = omn::core::Design::zeros(inst);
  // Serve sink-0 via refl-open and sink-1 via refl-capped.
  design.x[0] = 1;
  design.x[3] = 1;
  design.close_upward(inst);
  const omn::core::Design reloaded =
      omn::core::design_from_text(omn::core::design_to_text(design), inst);
  expect_deep_equal(design, reloaded);
}

// ---- LP cache entry (binary v2; v1 kept as a rejection input) ------------

/// The fixed (key, solution) pair the golden entries were generated from.
omn::util::Digest128 golden_cache_key() {
  return {0x0123456789abcdefull, 0xfedcba9876543210ull};
}

omn::lp::Solution golden_cache_solution() {
  omn::lp::Solution s;
  s.status = omn::lp::SolveStatus::kOptimal;
  s.objective = 42.5;
  s.iterations = 17;
  s.phase1_iterations = 5;
  s.max_violation = 1e-9;
  s.x = {0.0, 1.0, 0.25, 0.75, 2.5};
  return s;
}

/// The v2 golden extends the v1 value with the basis block.
omn::lp::Solution golden_cache_solution_v2() {
  using omn::lp::VarStatus;
  omn::lp::Solution s = golden_cache_solution();
  s.refactorizations = 3;
  s.warm_started = true;
  omn::lp::Basis basis;
  basis.state = {VarStatus::kAtLower, VarStatus::kBasic, VarStatus::kAtUpper,
                 VarStatus::kBasic, VarStatus::kAtLower};
  basis.basic = {1, 3};
  s.basis = std::move(basis);
  return s;
}

TEST(GoldenLpCacheEntry, LoadsAndReserializesByteExact) {
  const std::string golden = slurp(data_path("lp_cache_entry_v2.bin"));
  ASSERT_FALSE(golden.empty());

  std::istringstream in(golden);
  const std::optional<omn::lp::Solution> loaded =
      omn::core::LpCache::read_entry(in, golden_cache_key());
  ASSERT_TRUE(loaded.has_value());
  const omn::lp::Solution expected = golden_cache_solution_v2();
  EXPECT_EQ(loaded->status, expected.status);
  EXPECT_EQ(loaded->objective, expected.objective);
  EXPECT_EQ(loaded->iterations, expected.iterations);
  EXPECT_EQ(loaded->phase1_iterations, expected.phase1_iterations);
  EXPECT_EQ(loaded->max_violation, expected.max_violation);
  EXPECT_EQ(loaded->x, expected.x);
  EXPECT_EQ(loaded->refactorizations, expected.refactorizations);
  EXPECT_EQ(loaded->warm_started, expected.warm_started);
  ASSERT_TRUE(loaded->basis.has_value());
  EXPECT_TRUE(*loaded->basis == *expected.basis);

  std::ostringstream out;
  omn::core::LpCache::write_entry(out, golden_cache_key(), *loaded);
  EXPECT_EQ(out.str(), golden);
}

TEST(GoldenLpCacheEntry, RejectsLegacyV1Entries) {
  // A v1 (pre-basis) file in a cache directory is a stale entry:
  // read_entry refuses it, so the disk tier counts it as rejected and the
  // caller re-solves.
  const std::string golden = slurp(data_path("lp_cache_entry_v1.bin"));
  ASSERT_FALSE(golden.empty());

  std::istringstream in(golden);
  EXPECT_FALSE(omn::core::LpCache::read_entry(in, golden_cache_key())
                   .has_value());

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "omn-golden-lpsol-v1";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / (golden_cache_key().hex() + ".lpsol"),
                      std::ios::binary);
    out << golden;
  }
  omn::core::LpCache cache(dir.string());
  EXPECT_FALSE(cache.find(golden_cache_key()).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
}

TEST(GoldenLpCacheEntry, WriteReadRoundTripsExactly) {
  // Bit patterns must survive, including -0.0 and denormals.
  omn::lp::Solution s = golden_cache_solution_v2();
  s.x.push_back(-0.0);
  s.x.push_back(5e-324);
  std::ostringstream out;
  omn::core::LpCache::write_entry(out, golden_cache_key(), s);
  std::istringstream in(out.str());
  const std::optional<omn::lp::Solution> loaded =
      omn::core::LpCache::read_entry(in, golden_cache_key());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->x.size(), s.x.size());
  for (std::size_t n = 0; n < s.x.size(); ++n) {
    EXPECT_EQ(std::signbit(loaded->x[n]), std::signbit(s.x[n]));
    EXPECT_EQ(loaded->x[n], s.x[n]);
  }
}

TEST(GoldenLpCacheEntry, TruncatedEntryRejected) {
  // Every proper prefix of both format versions must be rejected — no
  // partial-read acceptance.
  for (const char* file : {"lp_cache_entry_v1.bin", "lp_cache_entry_v2.bin"}) {
    const std::string golden = slurp(data_path(file));
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{24}, golden.size() - 8,
          golden.size() - 1}) {
      std::istringstream in(golden.substr(0, keep));
      EXPECT_FALSE(
          omn::core::LpCache::read_entry(in, golden_cache_key()).has_value())
          << file << ": prefix of " << keep << " bytes was accepted";
    }
    // ... and so must trailing garbage.
    std::istringstream padded(golden + "x");
    EXPECT_FALSE(
        omn::core::LpCache::read_entry(padded, golden_cache_key()).has_value())
        << file;
  }
}

TEST(GoldenLpCacheEntry, VersionMismatchRejected) {
  // v2 is the only version read_entry accepts; anything older or newer
  // (or zero) is a stale/foreign file.  Patching the version also breaks
  // the checksum, but the version gate must reject first — a future v3
  // writer shares the magic, not the layout.
  for (const std::uint8_t version :
       {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{3}}) {
    std::string golden = slurp(data_path("lp_cache_entry_v2.bin"));
    ASSERT_GT(golden.size(), 8u);
    golden[4] = static_cast<char>(version);  // little-endian u32 after magic
    std::istringstream in(golden);
    EXPECT_FALSE(
        omn::core::LpCache::read_entry(in, golden_cache_key()).has_value());
  }
}

TEST(GoldenLpCacheEntry, ChecksumMismatchRejected) {
  std::string golden = slurp(data_path("lp_cache_entry_v2.bin"));
  ASSERT_GT(golden.size(), 48u);
  golden[40] = static_cast<char>(golden[40] ^ 0x01);  // a payload byte
  std::istringstream in(golden);
  EXPECT_FALSE(
      omn::core::LpCache::read_entry(in, golden_cache_key()).has_value());
}

TEST(GoldenLpCacheEntry, KeyMismatchRejected) {
  for (const char* file : {"lp_cache_entry_v1.bin", "lp_cache_entry_v2.bin"}) {
    const std::string golden = slurp(data_path(file));
    omn::util::Digest128 other = golden_cache_key();
    other.lo ^= 1;
    std::istringstream in(golden);
    EXPECT_FALSE(omn::core::LpCache::read_entry(in, other).has_value()) << file;
  }
}

}  // namespace
