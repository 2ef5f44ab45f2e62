#pragma once
// Shared pieces of omn_perfbench: the run arguments, the raw
// record one run hands to perfbench/run.py, and the stopwatch that times
// one call into a layer.
//
// omn_perfbench only measures; every statistic (medians, the tail
// percentile rule, ratios, self time from the trace) is computed by
// run.py from the raw samples written here, so one tested implementation
// defines each reported number.

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "omn/core/designer.hpp"
#include "omn/util/json.hpp"
#include "omn/util/timer.hpp"

namespace omn::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Generate the inputs only and record their shape and digest.
  bool describe = false;
  /// Raw record (JSON) written here.
  std::string out_path;
  /// Chrome trace written here by traced runs.
  std::string trace_path;
  /// Directory for the files a workload writes (serve journals).
  std::string scratch_dir;
};

/// Raw end-to-end samples of one phase: the untraced measurement or the
/// traced re-run of the same inputs.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> design_ms;
  std::vector<double> ack_ms;
  std::vector<double> read_us;
  std::vector<double> resume_s;
  /// Wall time of the closed loop (designs and reads, or lines).
  double timed_wall_s = 0.0;
  std::size_t designs = 0;
  std::size_t events = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double cost_ratio_sum = 0.0;
  std::size_t cost_ratio_count = 0;
  std::size_t sinks_met = 0;
  std::size_t sinks_total = 0;

  /// Adds one design's cost ratio and per-sink demand outcome.
  void add_quality(double cost, double lp_bound,
                   const core::Evaluation& evaluation);
  util::Json to_json() const;
};

/// Everything one run reports: output checks, input shape, the phases
/// and the raw per-layer samples.
class Record {
 public:
  /// Records one output check; a failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  bool all_ok() const;

  /// Raw samples of one per-layer quantity (run.py aggregates them).
  std::vector<double>& samples(const std::string& name) {
    return samples_[name];
  }
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  util::Json shape = util::Json::object();
  std::string input_digest;
  Phase untraced;
  Phase traced;
  /// The traced window whose wall time the layer spans must cover, in
  /// util::Trace::now_micros() time.
  std::uint64_t traced_begin_us = 0;
  std::uint64_t traced_end_us = 0;

  util::Json to_json(const Args& args) const;

 private:
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Appends the elapsed time of its scope, times `scale`, to `sink`.
/// Declare it after the scope's OMN_TRACE_SPAN so the span encloses it.
class Stopwatch {
 public:
  Stopwatch(std::vector<double>& sink, double scale)
      : sink_(sink), scale_(scale) {}
  ~Stopwatch() { sink_.push_back(timer_.seconds() * scale_); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  std::vector<double>& sink_;
  double scale_;
  util::Timer timer_;
};

/// Whole passes over a workload's inputs that one phase runs: the phase's
/// share of --seconds (half of it in a traced run, which runs two phases)
/// over the pass's wall time on the reference host (4 vCPUs), rounded, at
/// least one.  The count depends on --seconds alone, so every commit does
/// the same work and its tail percentiles rest on the same sample count.
int passes(const Args& args, double reference_pass_seconds);

/// Pins the calling thread to the next CPU of the process's affinity mask
/// (round robin) for its scope, then restores the thread's previous mask.
/// The vCPUs of a shared host run at different and drifting speeds, and a
/// thread left alone stays on one of them for a whole run, so the run's
/// single-threaded work reads at that one vCPU's speed.  plan pins each
/// design (its LP solve is single-threaded) and rounding each restore, so
/// every run samples every vCPU.  Threads created inside the scope would
/// inherit the pin, so none may be.  A no-op where affinity is unavailable.
class NextCpu {
 public:
  NextCpu();
  ~NextCpu();
  NextCpu(const NextCpu&) = delete;
  NextCpu& operator=(const NextCpu&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t previous_;
};

/// Threads the benchmark's single client may use: hardware concurrency.
std::size_t client_threads();

/// Drains every recorded span and writes them as a Chrome trace.
bool write_trace(const std::string& path);

void run_plan(const Args& args, Record& record);
void run_rounding(const Args& args, Record& record);
void run_serve_churn(const Args& args, Record& record);

}  // namespace omn::perfbench
