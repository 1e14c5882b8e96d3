// Shared pieces of the repo benchmark: command-line arguments, the metric
// record every workload fills, clocks and process counters, and the
// per-layer accounting that folds a recorded trace into self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;    ///< tiny inputs, for the smoke test
  std::string workdir;   ///< scratch files (instances, schedules, daemon state)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer accounting of one traced phase (see layers.cpp).
struct LayerTable {
  struct Row {
    double self_s = 0;       ///< span time minus time covered by child spans
    double inclusive_s = 0;  ///< span time, nested spans of the same layer counted once
    std::uint64_t spans = 0;
  };
  std::map<std::string, Row> rows;
  double op_s = 0;  ///< summed duration of the root spans (operations)

  double self(const std::string& layer) const;
  double inclusive(const std::string& layer) const;
};

/// Folds the recorded Complete events into layers. Root spans are the
/// benchmark's own `bench.op` and `daemon.admit`; `bench.op` self time is
/// the unattributed row.
LayerTable fold_trace(const std::vector<rtsp::obs::TraceEvent>& events);

/// Prints the self-time table, one row per layer, ending with unattributed.
void print_layer_table(const LayerTable& table, double ops, const char* op_name);

/// Everything a workload hands back to main().
struct Report {
  std::vector<Metric> end_to_end;         ///< measured with recording off
  std::vector<Metric> traced_end_to_end;  ///< trace mode: same, recording on
  std::vector<Metric> per_layer;          ///< trace mode only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

Report run_solve_workload(const Args& args);
Report run_daemon_workload(const Args& args);

// ---- helpers -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median and nearest-rank percentile (p in (0, 100]); 0 for no samples.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// Set-up is repeated until this is true of its durations (at least three,
/// and at least a second in all, so a cheap set-up is sampled often);
/// setup_s is their median.
bool enough_setups(const std::vector<double>& setup_s);

/// Runs `set_up_once` after the timed phase as often as it ran before it.
/// The host's speed switches between two modes about 1.5x apart for
/// seconds to minutes at a time, so set-up is sampled at both ends of the
/// run rather than only in the second before the timed phase.
template <typename SetUp>
void repeat_setups(const std::vector<double>& setup_s, SetUp&& set_up_once) {
  for (std::size_t n = setup_s.size(); n > 0; --n) set_up_once();
}

/// Settles the process before a timed phase: flushes dirty page cache,
/// returns freed heap to the OS and resets the RSS high-water mark
/// (/proc/self/clear_refs), so the next peak_rss_mb() covers only what is
/// resident from the call on.
void begin_timed_phase();
double peak_rss_mb();
/// Bytes this process passed to write() so far (/proc/self/io wchar).
std::uint64_t written_bytes();

/// FNV-1a over the action sequence (same fold as tools/improver_check).
std::uint64_t plan_hash(const rtsp::Schedule& h);

/// Arms the program's recorder for a traced phase (counters zeroed, trace
/// cleared) and returns the Complete events when the phase ends.
void begin_recording();
std::vector<rtsp::obs::TraceEvent> end_recording();

/// counters[num] / counters[den], 0 when nothing was counted.
double counter_ratio(const rtsp::obs::MetricsSnapshot& counters, const char* num,
                     const char* den);

/// Metrics shared by every workload: the names listed in BENCHMARK.json.
/// Workloads fill them through these builders so names cannot drift.
struct EndToEnd {
  double setup_s = 0;
  double solve_s_p50 = 0;
  double objects_per_s = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p90 = 0;
  double epochs_per_s = 0;
  double cost_over_lb = 0;
  double peak_rss_mb = 0;
};
std::vector<Metric> end_to_end_metrics(const EndToEnd& e);

/// Layer figures; names missing from `values` are emitted as 0 (the
/// workload does not exercise that layer).
std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& values);

}  // namespace perfbench
