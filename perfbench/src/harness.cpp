#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <pthread.h>

#include "omn/obs/chrome_trace.hpp"
#include "omn/obs/timeline.hpp"
#include "omn/util/trace.hpp"

namespace omn::perfbench {

namespace {

util::Json array_of(const std::vector<double>& values) {
  util::Json array = util::Json::array();
  for (double v : values) array.push(v);
  return array;
}

}  // namespace

void Phase::add_quality(double cost, double lp_bound,
                        const core::Evaluation& evaluation) {
  if (lp_bound > 0.0) {
    cost_ratio_sum += cost / lp_bound;
    ++cost_ratio_count;
  }
  sinks_met += static_cast<std::size_t>(evaluation.sinks_meeting_demand);
  sinks_total += static_cast<std::size_t>(evaluation.sinks_total);
}

util::Json Phase::to_json() const {
  util::Json j = util::Json::object();
  j.set("setup_s", array_of(setup_s));
  j.set("design_ms", array_of(design_ms));
  j.set("ack_ms", array_of(ack_ms));
  j.set("read_us", array_of(read_us));
  j.set("resume_s", array_of(resume_s));
  j.set("timed_wall_s", timed_wall_s);
  j.set("designs", designs);
  j.set("events", events);
  j.set("attempted", attempted);
  j.set("failed", failed);
  j.set("cost_ratio_sum", cost_ratio_sum);
  j.set("cost_ratio_count", cost_ratio_count);
  j.set("sinks_met", sinks_met);
  j.set("sinks_total", sinks_total);
  return j;
}

void Record::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Record::all_ok() const {
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

util::Json Record::to_json(const Args& args) const {
  util::Json meta = util::Json::object();
  meta.set("workload", args.workload);
  meta.set("seed", args.seed);
  meta.set("seconds", args.seconds);
  meta.set("trace", args.trace);
  meta.set("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  meta.set("threads", client_threads());
  meta.set("compiler", OMN_PERFBENCH_COMPILER);
  meta.set("build_type", OMN_PERFBENCH_BUILD_TYPE);

  util::Json checks = util::Json::array();
  for (const Check& c : checks_) {
    util::Json entry = util::Json::object();
    entry.set("name", c.name);
    entry.set("ok", c.ok);
    entry.set("detail", c.detail);
    checks.push(std::move(entry));
  }
  util::Json layers = util::Json::object();
  for (const auto& [name, values] : samples_) layers.set(name, array_of(values));

  util::Json j = util::Json::object();
  j.set("meta", std::move(meta));
  j.set("shape", shape);
  j.set("input_digest", input_digest);
  j.set("checks", std::move(checks));
  j.set("untraced", untraced.to_json());
  if (args.trace) {
    j.set("traced", traced.to_json());
    j.set("traced_window_us",
          util::Json::array()
              .push(traced_begin_us)
              .push(traced_end_us));
  }
  j.set("layers", std::move(layers));
  return j;
}

int passes(const Args& args, double reference_pass_seconds) {
  const double seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  return std::max(1, static_cast<int>(std::lround(seconds / reference_pass_seconds)));
}

NextCpu::NextCpu() {
  static std::size_t next = 0;
  CPU_ZERO(&previous_);
  if (pthread_getaffinity_np(pthread_self(), sizeof(previous_), &previous_) != 0) {
    return;
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &previous_)) allowed.push_back(cpu);
  }
  if (allowed.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[next++ % allowed.size()], &one);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

NextCpu::~NextCpu() {
  if (pinned_) {
    (void)pthread_setaffinity_np(pthread_self(), sizeof(previous_), &previous_);
  }
}

std::size_t client_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

bool write_trace(const std::string& path) {
  obs::TimelineProcess process;
  process.trace = obs::drain_process_trace("omn_perfbench");
  return obs::write_chrome_trace(path, {std::move(process)});
}

}  // namespace omn::perfbench
