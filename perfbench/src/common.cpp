#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool enough_setups(const std::vector<double>& setup_s) {
  double total = 0;
  for (const double s : setup_s) total += s;
  return setup_s.size() >= 3 && total >= 1.0;
}

void begin_timed_phase() {
  sync();          // set-up's files are written back now, not during timing
  malloc_trim(0);  // freed set-up memory must not absorb the phase's growth
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

/// First numeric field after `key` in a "key: value" /proc file.
std::uint64_t proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      std::uint64_t value = 0;
      fields >> value;
      return value;
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return proc_field("/proc/self/status", "VmHWM:") / 1024.0; }

std::uint64_t written_bytes() { return proc_field("/proc/self/io", "wchar:"); }

std::uint64_t plan_hash(const rtsp::Schedule& h) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const rtsp::Action& a : h) {
    mix(static_cast<std::uint64_t>(a.kind));
    mix(a.server);
    mix(a.object);
    mix(a.is_transfer() ? a.source : 0);
  }
  return hash;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {{"setup_s", e.setup_s, "s"},
          {"solve_s.p50", e.solve_s_p50, "s"},
          {"objects_per_s", e.objects_per_s, "1/s"},
          {"epoch_latency_ms.p50", e.latency_ms_p50, "ms"},
          {"epoch_latency_ms.p90", e.latency_ms_p90, "ms"},
          {"epochs_per_s", e.epochs_per_s, "1/s"},
          {"cost_over_lb", e.cost_over_lb, "ratio"},
          {"peak_rss_mb", e.peak_rss_mb, "MiB"}};
}

std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& values) {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"io.load_s", "s"},
      {"io.write_s", "s"},
      {"core.lower_bound_s", "s"},
      {"core.cost_s", "s"},
      {"core.incr.replayed_actions", "count"},
      {"core.incr.checkpoint_copies", "count"},
      {"heuristics.build_s", "s"},
      {"heuristics.h1_s", "s"},
      {"heuristics.h2_s", "s"},
      {"heuristics.op1_s", "s"},
      {"heuristics.h2.adopt_ratio", "ratio"},
      {"heuristics.op1.adopt_ratio", "ratio"},
      {"heuristics.dummy_transfers", "count"},
      {"exec.execute_s", "s"},
      {"exec.retries", "count"},
      {"exec.replans", "count"},
      {"daemon.admit_s", "s"},
      {"daemon.step_s", "s"},
      {"daemon.plan_s", "s"},
      {"daemon.step_self_s", "s"},
      {"daemon.queue_wait_ms.p99", "ms"},
      {"daemon.write_bytes_per_epoch", "bytes"},
      {"daemon.checkpoints", "count"},
      {"bench.gen_lag_ms.max", "ms"},
      {"bench.utilisation", "ratio"},
      {"unattributed_s", "s"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayers) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    if (std::none_of(kLayers.begin(), kLayers.end(),
                     [&](const auto& layer) { return layer.first == name; })) {
      throw std::logic_error("unknown per-layer metric " + name);
    }
  }
  return out;
}

double counter_ratio(const rtsp::obs::MetricsSnapshot& counters, const char* num,
                     const char* den) {
  const double d = static_cast<double>(counters.counter(den));
  return d > 0 ? counters.counter(num) / d : 0.0;
}

void begin_recording() {
  rtsp::obs::MetricsRegistry::instance().reset();
  rtsp::obs::clear_trace();
  rtsp::obs::set_trace_capacity(std::size_t{1} << 22);
  rtsp::obs::set_enabled(true);
}

std::vector<rtsp::obs::TraceEvent> end_recording() {
  rtsp::obs::set_enabled(false);
  std::vector<rtsp::obs::TraceEvent> events = rtsp::obs::collect_trace();
  rtsp::obs::clear_trace();
  return events;
}

}  // namespace perfbench
