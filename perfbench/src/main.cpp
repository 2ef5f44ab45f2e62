// omn_perfbench: the measuring half of the repository benchmark.
//
//   omn_perfbench --workload plan|rounding|serve-churn --seed N
//                 --seconds S --trace 0|1 --out RAW.json
//                 [--trace-file TRACE.json] [--scratch DIR] [--describe]
//
// Writes one raw JSON record (samples, output checks, build facts) to
// --out; perfbench/run.py turns it into the reported metrics.  Exit codes:
// 0 all output checks passed, 1 a check failed, 2 usage error or a build
// that must not be measured.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "harness.hpp"
#include "omn/util/parse.hpp"

namespace {

using omn::perfbench::Args;

/// Debug builds and sanitizer builds time a different program; their
/// numbers must never be compared with optimized ones.
bool measurable_build(std::string* why) {
  const std::string type = OMN_PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' (need Release or RelWithDebInfo)";
    return false;
  }
#ifndef NDEBUG
  *why = "assertions enabled (NDEBUG unset)";
  return false;
#endif
#if OMN_PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  *why = "sanitizer build";
  return false;
#endif
#endif
  return true;
}

int usage(const std::string& message) {
  std::fprintf(stderr, "omn_perfbench: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      args.describe = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" || flag == "--trace") {
      const std::optional<std::size_t> n = omn::util::parse_count(value);
      if (!n.has_value()) return usage(flag + ": not a count: " + value);
      if (flag == "--seed") {
        args.seed = *n;
      } else {
        args.trace = *n != 0;
      }
    } else if (flag == "--seconds") {
      const std::optional<double> s = omn::util::parse_double(value);
      if (!s.has_value()) return usage("--seconds: not a number: " + value);
      args.seconds = *s;
    } else if (flag == "--out") {
      args.out_path = value;
    } else if (flag == "--trace-file") {
      args.trace_path = value;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (args.out_path.empty()) return usage("--out is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  if (args.trace && args.trace_path.empty()) {
    return usage("--trace 1 needs --trace-file");
  }
  if (args.scratch_dir.empty()) {
    args.scratch_dir = std::filesystem::path(args.out_path).parent_path().string();
    if (args.scratch_dir.empty()) args.scratch_dir = ".";
  }
  std::string why;
  if (!args.describe && !measurable_build(&why)) {
    return usage("refusing to measure: " + why);
  }

  omn::perfbench::Record record;
  try {
    if (args.workload == "plan") {
      omn::perfbench::run_plan(args, record);
    } else if (args.workload == "rounding") {
      omn::perfbench::run_rounding(args, record);
    } else if (args.workload == "serve-churn") {
      omn::perfbench::run_serve_churn(args, record);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& error) {
    record.check("workload ran to completion", false, error.what());
  }
  if (args.trace && !omn::perfbench::write_trace(args.trace_path)) {
    record.check("trace written", false, args.trace_path);
  }
  std::ofstream out(args.out_path, std::ios::trunc);
  out << record.to_json(args).dump() << "\n";
  out.close();
  if (!out) return usage("cannot write " + args.out_path);
  return record.all_ok() ? 0 : 1;
}
