// util::Json / util::parse_count / metrics serialization.
//
// The metrics layer's contract is the serialized bytes: the committed
// BENCH_*.json trajectories and the CI perf gate diff files produced on
// different machines, so the writer must be deterministic and the schema
// pinned.  The golden tests below hand-construct reports with fixed
// counters and compare the full serialization character by character —
// a schema change must show up here as a conscious golden update.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/core/lp_work.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/serve/serve.hpp"
#include "omn/util/json.hpp"
#include "omn/util/parse.hpp"

namespace {

using omn::util::Json;
using omn::util::json_escape;
using omn::util::parse_count;

// ---- Json writer ----------------------------------------------------------

TEST(Json, ScalarsSerialize) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(0).dump(), "0");
  EXPECT_EQ(Json(-17).dump(), "-17");
  EXPECT_EQ(Json(std::size_t{18446744073709551615u}).dump(),
            "18446744073709551615");
  EXPECT_EQ(Json(std::int64_t{-9223372036854775807LL}).dump(),
            "-9223372036854775807");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(std::string("x")).dump(), "\"x\"");
}

TEST(Json, DoublesRoundTripAndStayTyped) {
  // Integral doubles keep a ".0" marker; full precision survives.
  EXPECT_EQ(Json(2.0).dump(), "2.0");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  const double pi = 3.141592653589793;
  EXPECT_EQ(std::stod(Json(pi).dump()), pi);
  const double tiny = 9.87e-5;
  EXPECT_EQ(std::stod(Json(tiny).dump()), tiny);
  // JSON has no inf/nan: they serialize as null rather than corrupting
  // the file.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(Json("say \"hi\"\n").dump(), "\"say \\\"hi\\\"\\n\"");
}

TEST(Json, ObjectsPreserveInsertionOrderAndOverwriteInPlace) {
  Json j = Json::object();
  j.set("b", 1);
  j.set("a", 2);
  j.set("b", 3);  // overwrite keeps the original slot
  EXPECT_EQ(j.dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, NestedPrettyPrinting) {
  Json inner = Json::object();
  inner.set("n", 1);
  Json arr = Json::array();
  arr.push(inner);
  arr.push("s");
  Json j = Json::object();
  j.set("list", std::move(arr));
  j.set("empty_list", Json::array());
  j.set("empty_obj", Json::object());
  EXPECT_EQ(j.dump(),
            "{\"list\":[{\"n\":1},\"s\"],\"empty_list\":[],\"empty_obj\":{}}");
  EXPECT_EQ(j.dump(2),
            "{\n"
            "  \"list\": [\n"
            "    {\n"
            "      \"n\": 1\n"
            "    },\n"
            "    \"s\"\n"
            "  ],\n"
            "  \"empty_list\": [],\n"
            "  \"empty_obj\": {}\n"
            "}");
}

TEST(Json, SetOnNonObjectAndPushOnNonArrayThrow) {
  Json scalar(1);
  EXPECT_THROW(scalar.set("k", 2), std::logic_error);
  EXPECT_THROW(scalar.push(2), std::logic_error);
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", 2), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(2), std::logic_error);
}

// ---- parse_count ----------------------------------------------------------

TEST(ParseCount, AcceptsPlainDigits) {
  EXPECT_EQ(parse_count("0"), std::size_t{0});
  EXPECT_EQ(parse_count("42"), std::size_t{42});
  EXPECT_EQ(parse_count("007"), std::size_t{7});
  EXPECT_EQ(parse_count("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
}

TEST(ParseCount, RejectsEverythingStrtoulAccepts) {
  // strtoul would happily parse all of these: leading whitespace and
  // sign prefixes are skipped, trailing garbage is ignored, and
  // out-of-range values wrap modulo 2^64 (2^64 + 1 -> 1).
  EXPECT_FALSE(parse_count(" 5").has_value());
  EXPECT_FALSE(parse_count("5 ").has_value());
  EXPECT_FALSE(parse_count("+5").has_value());
  EXPECT_FALSE(parse_count("-1").has_value());
  EXPECT_FALSE(parse_count("5x").has_value());
  EXPECT_FALSE(parse_count("0x10").has_value());
  EXPECT_FALSE(parse_count("").has_value());
  EXPECT_FALSE(parse_count("threads").has_value());
  // 2^64 and 2^64 + 1: overflow must be rejected, never wrapped to 0/1.
  EXPECT_FALSE(parse_count("18446744073709551616").has_value());
  EXPECT_FALSE(parse_count("18446744073709551617").has_value());
  EXPECT_FALSE(parse_count("99999999999999999999999").has_value());
}

// ---- metrics schema goldens ----------------------------------------------

// The exact bytes to_json(SweepReport) emits for fixed counters.  The CI
// perf gate and the committed BENCH_*.json trajectories key on these
// field names; renaming one is a schema break and must be made
// deliberately, here first.
TEST(MetricsSchema, SweepReportGolden) {
  omn::core::SweepReport report;
  report.cells.resize(12);
  report.num_instances = 3;
  report.num_configs = 4;
  report.lp_configs = 2;
  report.lp.solves = 5;
  report.lp.cache_hits = 1;
  report.lp.cache_misses = 5;
  report.lp.iterations = 420;
  report.lp.phase1_iterations = 130;
  report.lp.refactorizations = 7;
  report.lp.warm_start_hits = 2;
  report.wall_seconds = 1.5;
  EXPECT_EQ(omn::core::to_json(report).dump(),
            "{\"cells\":12,\"instances\":3,\"configs\":4,\"lp_configs\":2,"
            "\"lp_solves\":5,\"lp_cache_hits\":1,\"lp_cache_misses\":5,"
            "\"lp_iterations\":420,\"lp_phase1_iterations\":130,"
            "\"lp_refactorizations\":7,\"lp_warm_start_hits\":2,"
            "\"saved_by_reuse\":6,\"wall_seconds\":1.5}");
}

// The redesign-loop record serve's --metrics and E15 share: the LP work
// goes under LpWork's session keys (no solve/miss counts, cache hits
// last), which BENCH_e15.json pins.
TEST(MetricsSchema, ServeStatsGolden) {
  omn::serve::ServeStats stats;
  stats.events = 3;
  stats.redesigns = 4;
  stats.lp.solves = 3;
  stats.lp.cache_hits = 1;
  stats.lp.cache_misses = 3;
  stats.lp.iterations = 90;
  stats.lp.phase1_iterations = 20;
  stats.lp.refactorizations = 2;
  stats.lp.warm_start_hits = 2;
  stats.redesign_seconds = {0.5};
  EXPECT_EQ(omn::serve::to_json(stats, "churn/16/warm").dump(),
            "{\"label\":\"churn/16/warm\",\"events\":3,\"redesigns\":4,"
            "\"lp_iterations\":90,\"lp_phase1_iterations\":20,"
            "\"lp_refactorizations\":2,\"lp_warm_start_hits\":2,"
            "\"lp_cache_hits\":1,\"redesign_wall_p50\":0.5,"
            "\"redesign_wall_p99\":0.5,\"wall_seconds\":0.5}");
}

// LpWork's accumulation rule: a cache hit adds no pivots, a solve adds
// its pivots (and a miss when a cache was consulted), and a warm-started
// solution counts a warm hit either way.
TEST(MetricsSchema, LpWorkAccumulationRule) {
  omn::lp::Solution solution;
  solution.iterations = 40;
  solution.phase1_iterations = 10;
  solution.refactorizations = 2;
  solution.warm_started = true;
  omn::core::LpWork work = omn::core::LpWork::of(solution, false, true);
  work += omn::core::LpWork::of(solution, true, true);
  work += omn::core::LpWork::of(solution, false, false);
  EXPECT_EQ(work.solves, 2u);
  EXPECT_EQ(work.cache_hits, 1u);
  EXPECT_EQ(work.cache_misses, 1u);
  EXPECT_EQ(work.iterations, 80u);
  EXPECT_EQ(work.phase1_iterations, 20u);
  EXPECT_EQ(work.refactorizations, 4u);
  EXPECT_EQ(work.warm_start_hits, 3u);
}

TEST(MetricsSchema, SavedByReuseClampsAtZero) {
  // reuse off, no cache: every cell solves, nothing saved — the
  // subtraction must not wrap.
  omn::core::SweepReport report;
  report.cells.resize(4);
  report.lp.solves = 4;
  EXPECT_EQ(report.saved_by_reuse(), 0u);
  report.lp.solves = 5;  // a hand-built report must not underflow either
  EXPECT_EQ(report.saved_by_reuse(), 0u);
}

TEST(MetricsSchema, DesignResultGolden) {
  omn::core::DesignResult result;
  result.status = omn::core::DesignStatus::kOk;
  result.evaluation.total_cost = 160.5;
  result.lp_objective = 100.25;
  result.cost_ratio = 1.5;
  result.lp_iterations = 97;
  result.lp_phase1_iterations = 31;
  result.lp_refactorizations = 3;
  result.winning_attempt = 1;
  result.attempts_made = 2;
  result.lp_seconds = 0.5;
  result.rounding_seconds = 0.25;
  result.lp_cache_hit = true;
  result.lp_warm_start = false;
  EXPECT_EQ(omn::core::to_json(result).dump(),
            "{\"status\":\"ok\",\"total_cost\":160.5,"
            "\"lp_objective\":100.25,\"cost_ratio\":1.5,"
            "\"lp_iterations\":97,\"lp_phase1_iterations\":31,"
            "\"lp_refactorizations\":3,\"winning_attempt\":1,"
            "\"attempts_made\":2,\"lp_seconds\":0.5,"
            "\"rounding_seconds\":0.25,\"lp_cache_hit\":true,"
            "\"lp_warm_start\":false}");
}

}  // namespace
