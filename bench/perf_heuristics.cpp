// Google-benchmark microbenchmarks: runtime scaling of the schedule
// builders and improvers with instance size (servers fixed at the paper's
// 50; objects and replicas swept).
//
// `--json PATH` writes the google-benchmark JSON report to PATH (shorthand
// for --benchmark_out=PATH --benchmark_out_format=json); the `perf` CMake
// target uses it to refresh BENCH_perf_heuristics.json at the repo root.
//
// Obs flags (recording is off unless one is given, so the timed loops stay
// uninstrumented by default):
//   --trace-out PATH    Chrome trace JSON of the pipeline/heuristic spans
//   --metrics-out PATH  metrics snapshot (.json or .csv)
//   --obs               print the metrics + span summary after the run
#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.hpp"
#include "core/incremental.hpp"
#include "core/validator.hpp"
#include "heuristics/registry.hpp"
#include "portfolio/portfolio.hpp"
#include "io/instance_binary_io.hpp"
#include "io/instance_io.hpp"
#include "obs/export.hpp"
#include "obs/introspect.hpp"
#include "obs/logging.hpp"
#include "obs/obs.hpp"
#include "support/net.hpp"
#include "workload/paper_setup.hpp"
#include "workload/scale_instance.hpp"
#include "daemon/daemon.hpp"
#include "io/checkpoint_io.hpp"
#include "io/epoch_io.hpp"
#include "workload/epoch_stream.hpp"

namespace {

using namespace rtsp;

Instance make_instance(std::size_t objects, std::size_t replicas, std::uint64_t seed) {
  PaperSetup setup;
  setup.objects = objects;
  Rng rng(seed);
  return make_equal_size_instance(setup, replicas, rng);
}

void run_pipeline_bench(benchmark::State& state, const std::string& spec) {
  const std::size_t objects = static_cast<std::size_t>(state.range(0));
  const std::size_t replicas = static_cast<std::size_t>(state.range(1));
  const Instance inst = make_instance(objects, replicas, 99);
  const Pipeline pipeline = make_pipeline(spec);
  std::uint64_t trial = 0;
  double builder_ms = 0.0;
  double improver_ms = 0.0;
  for (auto _ : state) {
    Rng rng = Rng::for_trial(123, trial++);
    PipelineTiming timing;
    const Schedule h =
        pipeline.run(inst.model, inst.x_old, inst.x_new, rng, &timing);
    builder_ms += timing.builder_seconds * 1e3;
    improver_ms += timing.improver_seconds * 1e3;
    benchmark::DoNotOptimize(h.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(objects * replicas));
  // Per-iteration stage split, reported alongside the usual wall time (and
  // in the --json output as extra counters).
  state.counters["builder_ms"] =
      benchmark::Counter(builder_ms, benchmark::Counter::kAvgIterations);
  state.counters["improver_ms"] =
      benchmark::Counter(improver_ms, benchmark::Counter::kAvgIterations);
}

void BM_Builder_AR(benchmark::State& state) { run_pipeline_bench(state, "AR"); }
void BM_Builder_GOLCF(benchmark::State& state) { run_pipeline_bench(state, "GOLCF"); }
void BM_Builder_RDF(benchmark::State& state) { run_pipeline_bench(state, "RDF"); }
void BM_Builder_GSDF(benchmark::State& state) { run_pipeline_bench(state, "GSDF"); }
void BM_Builder_RDFP(benchmark::State& state) { run_pipeline_bench(state, "RDFP"); }
void BM_Builder_GSDFP(benchmark::State& state) { run_pipeline_bench(state, "GSDFP"); }
void BM_Chain_H1H2(benchmark::State& state) {
  run_pipeline_bench(state, "GOLCF+H1+H2");
}
void BM_Chain_Full(benchmark::State& state) {
  run_pipeline_bench(state, "GOLCF+H1+H2+OP1");
}

void BM_Validator(benchmark::State& state) {
  const std::size_t objects = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_instance(objects, 2, 7);
  Rng rng(1);
  const Schedule h =
      make_pipeline("GOLCF").run(inst.model, inst.x_old, inst.x_new, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Validator::is_valid(inst.model, inst.x_old, inst.x_new, h));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.size()));
}

void BM_ScheduleCost(benchmark::State& state) {
  const Instance inst = make_instance(1000, 3, 7);
  Rng rng(1);
  const Schedule h =
      make_pipeline("GOLCF").run(inst.model, inst.x_old, inst.x_new, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_cost(inst.model, h));
  }
}

// --- Scale tier: large instances through the sharded builders and the
// binary codec (the cases the ISSUE's acceptance criteria track).

Instance make_scale(std::size_t servers, std::size_t objects) {
  ScaleInstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.replicas_per_object = 2;
  Rng rng(5);
  return make_scale_instance(spec, rng);
}

void run_scale_builder_bench(benchmark::State& state, const std::string& spec) {
  const std::size_t objects = static_cast<std::size_t>(state.range(0));
  const Instance inst = make_scale(200, objects);
  const Pipeline pipeline = make_pipeline(spec);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng rng = Rng::for_trial(9, trial++);
    const Schedule h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
    benchmark::DoNotOptimize(h.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(objects));
}

void BM_Scale_RDF(benchmark::State& state) { run_scale_builder_bench(state, "RDF"); }
void BM_Scale_RDFP(benchmark::State& state) { run_scale_builder_bench(state, "RDFP"); }
void BM_Scale_GSDFP(benchmark::State& state) {
  run_scale_builder_bench(state, "GSDFP");
}

void BM_Scale_LoadBinary(benchmark::State& state) {
  const Instance inst = make_scale(200, 50'000);
  std::ostringstream os(std::ios::binary);
  write_instance_binary(os, inst);
  const std::string img = os.str();
  for (auto _ : state) {
    const Instance back = instance_from_binary(
        reinterpret_cast<const unsigned char*>(img.data()), img.size());
    benchmark::DoNotOptimize(back.model.num_objects());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size()));
}

void BM_Scale_LoadText(benchmark::State& state) {
  const Instance inst = make_scale(200, 50'000);
  const std::string text = instance_to_text(inst);
  for (auto _ : state) {
    const Instance back = instance_from_text(text);
    benchmark::DoNotOptimize(back.model.num_objects());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

// --- Obs overhead: the same mid-size pipeline solve with recording off vs
// fully armed (metrics + tracing). The pair quantifies the flight
// recorder's cost on the hot path; bench_compare tracks both so a
// regression in either the instrumented or the uninstrumented path fails
// `scripts/check.sh --bench`.

void run_obs_overhead_bench(benchmark::State& state, bool recording) {
  const Instance inst = make_instance(1000, 2, 99);
  const Pipeline pipeline = make_pipeline("GOLCF+H1+H2+OP1");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(recording);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng rng = Rng::for_trial(123, trial++);
    const Schedule h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
    benchmark::DoNotOptimize(h.size());
    if (recording) {
      // Drain the per-thread span buffers so they never saturate and each
      // iteration pays the same recording cost.
      benchmark::DoNotOptimize(obs::collect_trace().size());
    }
  }
  obs::set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}

void BM_ObsRecordingOff(benchmark::State& state) {
  run_obs_overhead_bench(state, false);
}
void BM_ObsRecordingOn(benchmark::State& state) {
  run_obs_overhead_bench(state, true);
}

// --- Structured-logging overhead: the same solve with the logger disarmed
// (every OBS_LOG_* pays one relaxed level-gate load) vs armed at debug into
// the in-memory ring (the per-pass builder/improver records actually
// materialize). No file sink, so the pair isolates record construction +
// ring insertion from disk speed.

void run_logging_bench(benchmark::State& state, bool armed) {
  const Instance inst = make_instance(1000, 2, 99);
  const Pipeline pipeline = make_pipeline("GOLCF+H1+H2+OP1");
  auto& logger = rtsp::obs::Logger::instance();
  if (armed) {
    logger.configure(rtsp::obs::LogLevel::Debug, "");
    logger.clear();
  }
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng rng = Rng::for_trial(123, trial++);
    const Schedule h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
    benchmark::DoNotOptimize(h.size());
  }
  if (armed) {
    benchmark::DoNotOptimize(logger.records_emitted());
    logger.shutdown();
    logger.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}

void BM_LoggingOff(benchmark::State& state) { run_logging_bench(state, false); }
void BM_LoggingOn(benchmark::State& state) { run_logging_bench(state, true); }

// --- Scrape under load: the solve loop timed bare vs with the introspect
// server up and a client thread scraping /metrics + /progress as fast as it
// can. The acceptance bar is <2% solve-side overhead: snapshots and
// exposition rendering happen on the handler pool, never the solver thread.

void run_scrape_bench(benchmark::State& state, bool scraping) {
  const Instance inst = make_instance(1000, 2, 99);
  const Pipeline pipeline = make_pipeline("GOLCF+H1+H2+OP1");
  const bool was_enabled = rtsp::obs::enabled();
  rtsp::obs::set_enabled(true);
  std::unique_ptr<rtsp::obs::IntrospectServer> server;
  std::atomic<bool> done{false};
  std::thread scraper;
  std::uint64_t scrapes = 0;
  if (scraping) {
    rtsp::obs::IntrospectOptions opts;
    opts.port = 0;
    server = std::make_unique<rtsp::obs::IntrospectServer>(opts);
    const std::uint16_t port = server->port();
    scraper = std::thread([&done, port, &scrapes] {
      while (!done.load(std::memory_order_relaxed)) {
        try {
          benchmark::DoNotOptimize(
              rtsp::net::http_get("127.0.0.1", port, "/metrics").body.size());
          benchmark::DoNotOptimize(
              rtsp::net::http_get("127.0.0.1", port, "/progress").body.size());
          ++scrapes;
        } catch (const std::exception&) {
          break;  // server went away mid-teardown
        }
      }
    });
  }
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng rng = Rng::for_trial(123, trial++);
    const Schedule h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
    benchmark::DoNotOptimize(h.size());
  }
  if (scraping) {
    done.store(true, std::memory_order_relaxed);
    scraper.join();
    server->stop();
    state.counters["scrapes"] = benchmark::Counter(
        static_cast<double>(scrapes), benchmark::Counter::kAvgIterations);
  }
  rtsp::obs::set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}

void BM_ScrapeLoadOff(benchmark::State& state) { run_scrape_bench(state, false); }
void BM_ScrapeLoadOn(benchmark::State& state) { run_scrape_bench(state, true); }

// --- Anytime portfolio: racing/incumbent overhead and LNS repair
// throughput. The first pair runs the same pipeline at the same tick budget
// bare vs wrapped in a portfolio-of-one (threads=1, LNS off), so their gap
// is exactly the race/incumbent machinery.

void BM_Portfolio_SingleBudgeted(benchmark::State& state) {
  const Instance inst = make_instance(1000, 2, 99);
  Budget budget;
  budget.ticks = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const BudgetedRun run = run_pipeline_budgeted(
        inst.model, inst.x_old, inst.x_new, "GOLCF+H1+H2+OP1", 123, budget);
    benchmark::DoNotOptimize(run.cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(budget.ticks));
}

void BM_Portfolio_OfOne(benchmark::State& state) {
  const Instance inst = make_instance(1000, 2, 99);
  PortfolioOptions opts;
  opts.algorithms = {"GOLCF+H1+H2+OP1"};
  opts.budget.ticks = static_cast<std::uint64_t>(state.range(0));
  opts.threads = 1;
  opts.lns_enabled = false;
  for (auto _ : state) {
    const PortfolioResult r =
        solve_portfolio(inst.model, inst.x_old, inst.x_new, 123, opts);
    benchmark::DoNotOptimize(r.cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(opts.budget.ticks));
}

void BM_Portfolio_LnsRepair(benchmark::State& state) {
  const Instance inst = make_instance(1000, 2, 99);
  Rng build_rng(1);
  const Schedule incumbent = make_pipeline("GOLCF+H1+H2+OP1")
                                 .run(inst.model, inst.x_old, inst.x_new,
                                      build_rng);
  LnsOptions opts;
  opts.max_rounds = 64;
  std::uint64_t trial = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    IncrementalEvaluator eval(inst.model, inst.x_old, inst.x_new, incumbent);
    Rng rng = Rng::for_trial(7, trial++);
    const LnsReport report = run_lns(eval, opts, rng, /*lower_bound=*/0);
    rounds += report.rounds;
    benchmark::DoNotOptimize(eval.cost());
  }
  // items/s = destroy/repair rounds per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}

// --- Daemon hot paths: epoch admission + convergence throughput, and
// checkpoint write latency. The admission bench runs a fully in-memory
// DaemonCore (no state dir) over a pre-generated epoch stream: each
// iteration admits every epoch and drains the queue, so items/s is
// end-to-end epochs folded per second (residual replan + solve + apply).

void BM_EpochAdmission(benchmark::State& state) {
  const Instance inst = make_instance(250, 2, 99);
  Rng stream_rng(17);
  EpochStreamSpec spec;
  spec.count = 8;
  spec.moves = 16;
  const std::vector<ReplicationMatrix> epochs =
      make_epoch_stream(inst.model, inst.x_old, spec, stream_rng);
  daemon::DaemonOptions opts;
  opts.seed = 5;
  opts.queue_depth = epochs.size();
  std::size_t processed = 0;
  for (auto _ : state) {
    daemon::DaemonCore core(inst.model, inst.x_old, opts);
    for (const ReplicationMatrix& target : epochs) core.admit(target);
    core.run_until_idle();
    processed += epochs.size();
    benchmark::DoNotOptimize(core.placement_crc());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}

// Serialization + atomic-replace cost of one snapshot at the paper scale,
// fsync off so tmpfs rename speed (not disk flush) is what's measured —
// the same switch the daemon tests and chaos harness run under.
void BM_CheckpointWrite(benchmark::State& state) {
  const Instance inst = make_instance(250, 2, 99);
  CheckpointDoc doc;
  doc.generation = 3;
  doc.seed = 5;
  doc.last_seq = 12;
  doc.clock = 4096;
  doc.servers = inst.model.num_servers();
  doc.objects = inst.model.num_objects();
  doc.placement = placement_pairs(inst.x_old);
  // Four queued epochs that swing between X_new and X_old, so each entry
  // stores the whole X_old/X_new difference.
  const PairList old_pairs = placement_pairs(inst.x_old);
  const PairList new_pairs = placement_pairs(inst.x_new);
  for (std::uint64_t i = 0; i < 4; ++i) {
    CheckpointQueueEntry entry;
    entry.seq = 9 + i;
    entry.target = i % 2 == 0 ? pair_delta(old_pairs, new_pairs) : pair_delta(new_pairs, old_pairs);
    doc.queue.push_back(std::move(entry));
  }
  const std::string path =
      std::filesystem::temp_directory_path() / "rtsp_bench_checkpoint";
  for (auto _ : state) {
    write_checkpoint_file(path, doc, /*fsync=*/false);
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_Builder_AR)->Args({250, 2})->Args({1000, 2})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Builder_GOLCF)
    ->Args({250, 2})
    ->Args({1000, 2})
    ->Args({1000, 5})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Builder_RDF)->Args({1000, 2})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Builder_GSDF)->Args({1000, 2})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Builder_RDFP)->Args({1000, 2})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Builder_GSDFP)->Args({1000, 2})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Chain_H1H2)->Args({250, 1})->Args({250, 2})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Chain_Full)
    ->Args({250, 2})
    ->Args({1000, 3})  // the paper's Fig. 5 workload; tracked in EXPERIMENTS.md
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Validator)->Arg(250)->Arg(1000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScheduleCost)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Scale_RDF)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scale_RDFP)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scale_GSDFP)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scale_LoadBinary)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Scale_LoadText)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObsRecordingOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObsRecordingOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoggingOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoggingOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScrapeLoadOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScrapeLoadOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Portfolio_SingleBudgeted)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Portfolio_OfOne)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Portfolio_LnsRepair)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EpochAdmission)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckpointWrite)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  // Expand --json PATH and strip the obs flags before google-benchmark
  // parses the command line (it rejects flags it does not know).
  std::string trace_out;
  std::string metrics_out;
  bool obs_summary = false;
  const auto take_value = [&](const char* flag, int& i, std::string& out) {
    const std::size_t flen = std::strlen(flag);
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      out = argv[++i];
      return true;
    }
    if (std::strncmp(argv[i], flag, flen) == 0 && argv[i][flen] == '=') {
      out = argv[i] + flen + 1;
      return true;
    }
    return false;
  };
  std::vector<char*> args;
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[++i]);
      storage.push_back("--benchmark_out_format=json");
    } else if (take_value("--trace-out", i, trace_out) ||
               take_value("--metrics-out", i, metrics_out)) {
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      obs_summary = true;
    } else {
      storage.push_back(argv[i]);
    }
  }
  if (obs_summary || !trace_out.empty() || !metrics_out.empty()) {
    rtsp::obs::set_enabled(true);
  }
  for (std::string& s : storage) args.push_back(s.data());
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (rtsp::obs::enabled()) {
    const auto snap = rtsp::obs::MetricsRegistry::instance().snapshot();
    if (!metrics_out.empty()) {
      rtsp::obs::write_metrics_file(metrics_out, snap);
      std::cout << "obs metrics written to " << metrics_out << '\n';
    }
    const auto events = rtsp::obs::collect_trace();
    if (!trace_out.empty()) {
      rtsp::obs::write_trace_file(trace_out, events);
      std::cout << "obs trace written to " << trace_out << " (" << events.size()
                << " events; open in ui.perfetto.dev)\n";
    }
    if (obs_summary) {
      rtsp::obs::print_metrics_summary(std::cout, snap);
      rtsp::obs::print_span_summary(std::cout, events);
    }
  }
  return 0;
}
