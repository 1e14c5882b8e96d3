// rtsp_perfbench — the repo benchmark's measuring binary (perfbench/README.md).
//
//   rtsp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--smoke] [--revision REV]
//
// Prints the host/build context, what each workload checked, every metric
// by name with its unit, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 0 only when every output checked out.
#include <sys/utsname.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"

// CMakeLists.txt fixes the build type and RTSP_OBS; a sanitizer could only
// come in through the environment's compiler flags.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "rtsp_perfbench records only from builds without a sanitizer"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "rtsp_perfbench: %s\n"
               "usage: rtsp_perfbench --workload paper-dummy-rich|daemon-drift "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--smoke] [--revision REV]\n",
               problem.c_str());
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_metrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-30s %18s %s\n", label, m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--revision") {
      revision = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const bool solve = args.workload == "paper-dummy-rich";
  if (!solve && args.workload != "daemon-drift") usage("unknown workload '" + args.workload + "'");
  if (args.workdir.empty()) usage("missing --workdir");
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  utsname host{};
  uname(&host);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("context: nproc=%ld cpu=\"%s\" kernel=%s compiler=\"%s\" build_type=%s "
              "RTSP_OBS=%s RTSP_SANITIZE=OFF revision=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), host.release,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, RTSP_OBS_ENABLED ? "ON" : "OFF",
              revision.c_str());

  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  Report report;
  try {
    report = solve ? run_solve_workload(args) : run_daemon_workload(args);
  } catch (const std::exception& e) {
    std::filesystem::remove_all(args.workdir);
    std::fprintf(stderr, "rtsp_perfbench: %s\n", e.what());
    return 1;
  }
  std::filesystem::remove_all(args.workdir);

  print_metrics("metric", report.end_to_end);
  if (args.trace) {
    print_metrics("traced", report.traced_end_to_end);
    std::printf("tracing overhead (traced - untraced):\n");
    for (std::size_t i = 0; i < report.end_to_end.size(); ++i) {
      const Metric& off = report.end_to_end[i];
      const Metric& on = report.traced_end_to_end[i];
      if (off.name == "setup_s" || off.name == "cost_over_lb") continue;
      std::printf("  %-30s %+14.6g %s (%+.2f%%)\n", off.name.c_str(), on.value - off.value,
                  off.unit.c_str(),
                  off.value != 0 ? 100.0 * (on.value - off.value) / off.value : 0.0);
    }
    print_metrics("layer", report.per_layer);
  }
  const double fail_ratio =
      report.attempted ? static_cast<double>(report.failed) / report.attempted : 1.0;
  std::printf("fail_ratio = %s ratio (%llu failed of %llu attempted)\n",
              json_number(fail_ratio).c_str(), static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& e : report.errors) std::printf("error: %s\n", e.c_str());

  const std::vector<Metric>& emitted = args.trace ? report.per_layer : report.end_to_end;
  bool correct = report.failed == 0 && report.errors.empty() && report.attempted > 0;
  std::string json = "{";
  for (const Metric& m : emitted) {
    if (!std::isfinite(m.value)) correct = false;
    json += (json.size() > 1 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(report.attempted, 1)),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return correct ? 0 : 1;
}
