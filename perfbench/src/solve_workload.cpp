// paper-dummy-rich, the closed-loop solve workload: paper Experiment 1
// (`--kind paper-equal`: M=50 BA tree, r=1, zero overlap, tight capacities)
// at N=600, instances written as text files. One client solves them
// round-robin with the flagship chain, following `rtsp solve --out`:
// read_instance_any -> cost_lower_bound -> make_pipeline(...).run ->
// schedule_cost -> schedule_to_text written to a file. Each plan is checked
// and hashed after its solve, outside the timed region.
//
// Every instance is solved in each of kRounds rounds, and its timing is its
// fastest solve. The host's speed drops by up to 1.5x for seconds to minutes
// at a time when its neighbours load the machine; eight solves of one
// instance, an eighth of a run apart, rarely all fall into a slow stretch
// (perfbench/README.md, "Workloads").
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/cost_model.hpp"
#include "core/delta.hpp"
#include "core/incremental.hpp"
#include "core/validator.hpp"
#include "heuristics/registry.hpp"
#include "io/instance_binary_io.hpp"  // read_instance_any
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "obs/metrics.hpp"
#include "workload/paper_setup.hpp"

namespace perfbench {

namespace {

using namespace rtsp;

constexpr const char* kAlgo = "GOLCF+H1+H2+OP1";
constexpr int kRounds = 8;
/// Solve time on the reference host; sizes the instance set so that kRounds
/// rounds take about --seconds there.
constexpr double kNominalSolveS = 0.045;

struct SolveSpec {
  std::size_t servers = 0;
  std::size_t objects = 0;
  std::size_t instances = 0;
};

SolveSpec spec_for(const Args& args) {
  if (args.smoke) return {20, 200, 3};
  return {50, 600,
          std::max<std::size_t>(2, std::lround(args.seconds / (kRounds * kNominalSolveS)))};
}

Instance generate(const SolveSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  PaperSetup setup;
  setup.servers = spec.servers;
  setup.objects = spec.objects;
  return make_equal_size_instance(setup, 1, rng);
}

/// Writes every instance file; returns the paths.
std::vector<std::string> set_up(const SolveSpec& spec, const Args& args) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < spec.instances; ++k) {
    const Instance inst = generate(spec, mix64(args.seed, k + 1));
    const std::string path = args.workdir + "/instance-" + std::to_string(k) + ".txt";
    std::ofstream out(path);
    out << instance_to_text(inst);
    if (!out) throw std::runtime_error("cannot write " + path);
    paths.push_back(path);
  }
  return paths;
}

/// One `rtsp solve --out` sequence; every step is a layer span.
struct Solve {
  Instance inst;
  Cost lower_bound = 0;
  Schedule plan;
  Cost cost = 0;
};

Solve solve_once(const std::string& in, const std::string& out, std::uint64_t seed) {
  obs::ScopedSpan op("bench.op");
  Solve s{[&] {
    obs::ScopedSpan span("io.load");
    return read_instance_any(in);
  }(), 0, {}, 0};
  {
    obs::ScopedSpan span("core.lower_bound");
    s.lower_bound = cost_lower_bound(s.inst.model, s.inst.x_old, s.inst.x_new);
  }
  {
    obs::ScopedSpan span("heuristics.run");
    Rng rng(seed);
    s.plan = make_pipeline(kAlgo).run(s.inst.model, s.inst.x_old, s.inst.x_new, rng);
  }
  {
    obs::ScopedSpan span("core.cost");
    s.cost = schedule_cost(s.inst.model, s.plan);
  }
  {
    obs::ScopedSpan span("io.write");
    std::ofstream file(out);
    file << schedule_to_text(s.plan);
    if (!file) throw std::runtime_error("cannot write " + out);
  }
  return s;
}

/// First outcome of each instance; repeats must reproduce it exactly.
struct Outcome {
  Cost cost = 0;
  Cost lower_bound = 0;
  std::size_t dummies = 0;
  std::size_t objects = 0;
  std::uint64_t hash = 0;
};

struct Phase {
  std::uint64_t attempted = 0;
  std::vector<double> solve_s;  ///< every solve, in order
  std::vector<double> best_s;   ///< per instance: its fastest solve
  double peak_rss_mb = 0;
  std::vector<std::optional<Outcome>> outcomes;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

Phase run_phase(const std::vector<std::string>& paths, const Args& args) {
  Phase p;
  p.outcomes.resize(paths.size());
  p.best_s.assign(paths.size(), std::numeric_limits<double>::infinity());
  const std::string out_path = args.workdir + "/schedule.txt";
  begin_timed_phase();
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < paths.size(); ++k) {
      const std::uint64_t solver_seed = mix64(args.seed ^ 0x5eedull, k + 1);
      ++p.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        const Solve s = solve_once(paths[k], out_path, solver_seed);
        const Clock::time_point t1 = Clock::now();
        p.solve_s.push_back(seconds_between(t0, t1));
        p.best_s[k] = std::min(p.best_s[k], p.solve_s.back());

        const Outcome o{s.cost, s.lower_bound, s.plan.dummy_transfer_count(),
                        s.inst.model.num_objects(), plan_hash(s.plan)};
        std::string error;
        if (!Validator::is_valid(s.inst.model, s.inst.x_old, s.inst.x_new, s.plan)) {
          error = "plan does not validate";
        } else if (p.outcomes[k] &&
                   (p.outcomes[k]->hash != o.hash || p.outcomes[k]->cost != o.cost)) {
          error = "repeat solve changed the plan";
        }
        if (!p.outcomes[k]) p.outcomes[k] = o;
        if (!error.empty()) {
          ++p.failed;
          p.errors.push_back("instance " + std::to_string(k) + ": " + error);
        }
      } catch (const std::exception& e) {
        ++p.failed;
        p.errors.push_back("instance " + std::to_string(k) + ": " + e.what());
      }
    }
  }
  p.peak_rss_mb = peak_rss_mb();
  return p;
}

EndToEnd summarize(const Phase& p, double setup_s) {
  EndToEnd e;
  e.setup_s = setup_s;
  double total = 0, objects = 0, cost = 0, lower_bound = 0;
  std::vector<double> best_s, latency_ms;
  for (std::size_t k = 0; k < p.outcomes.size(); ++k) {
    const auto& o = p.outcomes[k];
    if (!o) continue;
    total += p.best_s[k];
    objects += static_cast<double>(o->objects);
    cost += static_cast<double>(o->cost);
    lower_bound += static_cast<double>(o->lower_bound);
    best_s.push_back(p.best_s[k]);
    latency_ms.push_back(1e3 * p.best_s[k]);
  }
  e.solve_s_p50 = median(best_s);
  e.objects_per_s = total > 0 ? objects / total : 0;
  e.latency_ms_p50 = median(latency_ms);
  e.latency_ms_p90 = percentile(latency_ms, 90);
  e.epochs_per_s = total > 0 ? best_s.size() / total : 0;
  e.cost_over_lb = lower_bound > 0 ? cost / lower_bound : 0;
  e.peak_rss_mb = p.peak_rss_mb;
  return e;
}

}  // namespace

Report run_solve_workload(const Args& args) {
  const SolveSpec spec = spec_for(args);
  std::printf("workload: %s, closed loop, 1 client; %zu instances of M=%zu N=%zu r=1 "
              "(paper-equal, text), pipeline %s\n",
              args.workload.c_str(), spec.instances, spec.servers, spec.objects, kAlgo);

  std::vector<double> setups;
  std::vector<std::string> paths;
  const auto set_up_once = [&] {
    const Clock::time_point t0 = Clock::now();
    paths = set_up(spec, args);
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  while (!enough_setups(setups)) set_up_once();

  Report report;
  const Phase untraced = run_phase(paths, args);
  repeat_setups(setups, set_up_once);
  const double setup_s = median(setups);
  report.end_to_end = end_to_end_metrics(summarize(untraced, setup_s));
  report.attempted = untraced.attempted;
  report.failed = untraced.failed;
  report.errors = untraced.errors;

  std::size_t dummies = 0;
  for (std::size_t k = 0; k < untraced.outcomes.size(); ++k) {
    const auto& o = untraced.outcomes[k];
    if (!o) continue;
    dummies += o->dummies;
    std::printf("instance %zu: N=%zu cost=%lld lb=%lld dummies=%zu plan_fnv1a=%016llx\n", k,
                o->objects, static_cast<long long>(o->cost),
                static_cast<long long>(o->lower_bound), o->dummies,
                static_cast<unsigned long long>(o->hash));
  }
  std::printf("dummy_transfers = %zu count (sum over %zu distinct instances)\n", dummies,
              untraced.outcomes.size());
  std::vector<double> latency_ms;
  for (const double s : untraced.solve_s) latency_ms.push_back(1e3 * s);
  std::printf("solves: %zu instances x %d rounds; timings use each instance's fastest solve. "
              "All %zu solves (printed only): p50 %.6f ms, p99 %.6f ms\n",
              paths.size(), kRounds, latency_ms.size(), median(latency_ms),
              percentile(latency_ms, 99));

  if (!args.trace) return report;

  begin_recording();
  const Phase traced = run_phase(paths, args);
  const LayerTable table = fold_trace(end_recording());
  const obs::MetricsSnapshot counters = obs::MetricsRegistry::instance().snapshot();
  report.traced_end_to_end = end_to_end_metrics(summarize(traced, setup_s));
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report.errors.insert(report.errors.end(), traced.errors.begin(), traced.errors.end());
  for (std::size_t k = 0; k < traced.outcomes.size(); ++k) {
    if (traced.outcomes[k] && untraced.outcomes[k] &&
        traced.outcomes[k]->hash != untraced.outcomes[k]->hash) {
      ++report.failed;
      report.errors.push_back("instance " + std::to_string(k) +
                              ": plan differs with recording on");
    }
  }

  const double ops = static_cast<double>(traced.solve_s.size());
  print_layer_table(table, ops, "solve");
  report.per_layer = per_layer_metrics({
      {"io.load_s", table.inclusive("io.load") / ops},
      {"io.write_s", table.inclusive("io.write") / ops},
      {"core.lower_bound_s", table.inclusive("core.lower_bound") / ops},
      {"core.cost_s", table.inclusive("core.cost") / ops},
      {"core.incr.replayed_actions", counters.counter(kObsIncrReplayedActions) / ops},
      {"core.incr.checkpoint_copies", counters.counter(kObsIncrCheckpointCopies) / ops},
      {"heuristics.build_s", table.inclusive("heuristics.build") / ops},
      {"heuristics.h1_s", table.inclusive("heuristics.h1") / ops},
      {"heuristics.h2_s", table.inclusive("heuristics.h2") / ops},
      {"heuristics.op1_s", table.inclusive("heuristics.op1") / ops},
      {"heuristics.h2.adopt_ratio", counter_ratio(counters, "h2.adopted", "h2.candidates")},
      {"heuristics.op1.adopt_ratio", counter_ratio(counters, "op1.adopted", "op1.candidates")},
      {"heuristics.dummy_transfers", static_cast<double>(dummies)},
      {"unattributed_s", table.self("unattributed") / ops},
  });
  return report;
}

}  // namespace perfbench
