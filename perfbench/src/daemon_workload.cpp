// daemon-drift: an in-process DaemonCore with `rtsp serve` defaults — the
// flagship planner, coalescing, a checkpoint every 4 commits, fsync on —
// except a queue deep enough for the whole stream, fed an open-loop stream
// of drifting targets.
//
// Two threads. The submitter admits epoch i at its scheduled send time
// start + i/rate, whatever the daemon is doing. The stepper (this thread)
// sleeps on a condition variable until an admission lands, then calls
// step(). An epoch's latency runs from its scheduled send to the return of
// the step() that committed it converged, so a stall is charged to every
// epoch it delays. step() serves the lowest pending seq, and a coalesce only
// ever replaces the newest pending one, so the epoch a converged step()
// committed is the oldest one still pending here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/delta.hpp"
#include "core/incremental.hpp"
#include "daemon/daemon.hpp"
#include "obs/metrics.hpp"
#include "workload/epoch_stream.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using namespace rtsp;

constexpr std::size_t kMaxReplicas = 3;
constexpr double kSlack = 0.1;        ///< RandomInstanceSpec::capacity_slack (`--slack`)
constexpr std::size_t kMoves = 16;    ///< mutation attempts per epoch
constexpr double kFaultRate = 0.1;    ///< transient transfer failure probability

struct DaemonSpec {
  std::size_t servers = 0;
  std::size_t objects = 0;
  double rate = 0;  ///< epochs offered per second
};

DaemonSpec spec_for(const Args& args) {
  return args.smoke ? DaemonSpec{20, 300, 200} : DaemonSpec{100, 5000, 100};
}

/// A replica added to or dropped from the previous target.
struct Flip {
  ServerId server = 0;
  ObjectId object = 0;
  bool add = false;
};

/// The stream is kept as flips against the previous target (16 moves on
/// N=5000 objects), so the timed phase's RSS is the daemon's, not 2000 full
/// target matrices'.
struct Inputs {
  Instance inst;
  std::vector<std::vector<Flip>> epochs;
  double lower_bound = 0;  ///< sum of cost_lower_bound over successive targets
};

std::vector<Flip> flips(const ReplicationMatrix& before, const ReplicationMatrix& after) {
  std::vector<Flip> out;
  std::vector<ObjectId> had, has, diff;
  for (ServerId i = 0; i < before.num_servers(); ++i) {
    had.clear();
    has.clear();
    before.for_each_object(i, [&](ObjectId k) { had.push_back(k); });
    after.for_each_object(i, [&](ObjectId k) { has.push_back(k); });
    std::sort(had.begin(), had.end());
    std::sort(has.begin(), has.end());
    diff.clear();
    std::set_difference(had.begin(), had.end(), has.begin(), has.end(),
                        std::back_inserter(diff));
    for (const ObjectId k : diff) out.push_back({i, k, false});
    diff.clear();
    std::set_difference(has.begin(), has.end(), had.begin(), had.end(),
                        std::back_inserter(diff));
    for (const ObjectId k : diff) out.push_back({i, k, true});
  }
  return out;
}

void apply(const std::vector<Flip>& epoch, ReplicationMatrix& x) {
  for (const Flip& f : epoch) x.assign(f.server, f.object, f.add);
}

Inputs generate(const DaemonSpec& spec, const Args& args) {
  Rng rng(args.seed);
  RandomInstanceSpec r;
  r.servers = spec.servers;
  r.objects = spec.objects;
  r.min_replicas = 1;
  r.max_replicas = kMaxReplicas;
  r.capacity_slack = kSlack;
  Inputs in{random_instance(r, rng), {}, 0};

  EpochStreamSpec stream;
  stream.count = static_cast<std::size_t>(std::ceil(spec.rate * args.seconds));
  stream.moves = kMoves;
  Rng stream_rng(mix64(args.seed, 0xe90c5ull));
  const std::vector<ReplicationMatrix> targets =
      make_epoch_stream(in.inst.model, in.inst.x_old, stream, stream_rng);
  const ReplicationMatrix* before = &in.inst.x_old;
  for (const ReplicationMatrix& target : targets) {
    in.lower_bound += static_cast<double>(cost_lower_bound(in.inst.model, *before, target));
    in.epochs.push_back(flips(*before, target));
    before = &target;
  }
  return in;
}

std::unique_ptr<daemon::DaemonCore> fresh_daemon(const Inputs& in, const Args& args) {
  daemon::DaemonOptions o;  // `rtsp serve` defaults unless set here
  o.state_dir = args.workdir + "/state";
  o.seed = args.seed;
  // The queue holds the whole stream instead of serve's 8 slots: a shared VM
  // can stall or slow down for seconds, and a full queue coalesces epochs,
  // which count as failed. A stall shows in the latencies instead.
  o.queue_depth = in.epochs.size();
  o.faults.seed = args.seed;
  o.faults.transient_failure_rate = kFaultRate;
  o.record_effective = true;  // counts the dummy transfers that were executed
  std::filesystem::remove_all(o.state_dir);
  return std::make_unique<daemon::DaemonCore>(in.inst.model, in.inst.x_old, o);
}

struct Epoch {
  Clock::time_point due, sent, admitted, committed;
  double step_s = 0;
  bool committed_converged = false;
};

struct Phase {
  std::vector<Epoch> epochs;
  std::vector<double> step_s;  ///< every step() that processed an epoch
  double wall_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t written = 0;
  DaemonCounters counters;
  std::uint64_t crc = 0;
  bool final_is_last_target = false;
  std::size_t dummies = 0;
  std::vector<std::string> errors;

  std::size_t committed() const {
    std::size_t n = 0;
    for (const Epoch& e : epochs) n += e.committed_converged;
    return n;
  }
};

Phase run_phase(daemon::DaemonCore& core, const Inputs& in, const DaemonSpec& spec) {
  Phase p;
  const std::size_t n = in.epochs.size();
  ReplicationMatrix target = in.inst.x_old;  // the submitter's latest target
  p.epochs.resize(n);
  std::mutex mutex;
  std::condition_variable admitted;
  std::deque<std::size_t> pending;  // admitted, not yet committed, in seq order
  std::unordered_map<std::uint64_t, std::size_t> epoch_of_seq;
  bool submitted = false;
  std::string submit_error;
  std::atomic<bool> stop{false};

  begin_timed_phase();
  const std::uint64_t written_before = written_bytes();
  const auto gap = std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / spec.rate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  std::thread submitter([&] {
    try {
      for (std::size_t i = 0; i < n && !stop.load(); ++i) {
        Epoch& e = p.epochs[i];
        apply(in.epochs[i], target);
        e.due = start + gap * static_cast<std::int64_t>(i);
        std::this_thread::sleep_until(e.due);
        e.sent = Clock::now();
        daemon::AdmitResult r;
        {
          obs::ScopedSpan span("daemon.admit");
          r = core.admit(target);
        }
        e.admitted = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        if (r.accepted()) {
          epoch_of_seq[r.seq] = i;
          pending.push_back(i);
        }
        if (r.status == daemon::AdmitResult::Status::kCoalesced) {
          std::erase(pending, epoch_of_seq.at(r.replaced));
        }
        admitted.notify_one();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex);
      submit_error = e.what();
    }
    std::lock_guard<std::mutex> lock(mutex);
    submitted = true;
    admitted.notify_one();
  });

  std::uint64_t converged = core.counters().converged;
  try {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        admitted.wait(lock, [&] { return !pending.empty() || submitted; });
        if (pending.empty()) break;
      }
      obs::ScopedSpan op("bench.op");
      const Clock::time_point s0 = Clock::now();
      bool stepped = false;
      {
        obs::ScopedSpan span("daemon.step");
        stepped = core.step();
      }
      const Clock::time_point s1 = Clock::now();
      if (!stepped) throw std::runtime_error("step() found no epoch while one was pending");
      p.step_s.push_back(seconds_between(s0, s1));
      const std::uint64_t now_converged = core.counters().converged;
      if (now_converged != converged) {
        std::lock_guard<std::mutex> lock(mutex);
        Epoch& e = p.epochs[pending.front()];
        pending.pop_front();
        e.committed = s1;
        e.step_s = p.step_s.back();
        e.committed_converged = true;
      }
      converged = now_converged;
    }
  } catch (const std::exception& e) {
    p.errors.push_back(std::string("step: ") + e.what());
    stop = true;
  }
  submitter.join();

  p.wall_s = seconds_between(start, Clock::now());
  p.peak_rss_mb = peak_rss_mb();
  p.written = written_bytes() - written_before;
  if (!submit_error.empty()) p.errors.push_back("admit: " + submit_error);
  p.counters = core.counters();
  p.crc = core.placement_crc();
  p.final_is_last_target = core.idle() && core.placement() == target;
  p.dummies = core.effective_log().dummy_transfer_count();
  if (!p.final_is_last_target) p.errors.push_back("final placement is not the last target");
  return p;
}

struct Summary {
  EndToEnd e2e;
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  double gen_lag_ms_max = 0;
  std::size_t late_sends = 0;  ///< sent more than one inter-arrival gap late
  double slowest_admit_ms = 0;
  double slowest_step_ms = 0;
  double utilisation = 0;
};

Summary summarize(const Phase& p, const Inputs& in, const DaemonSpec& spec,
                  double setup_s) {
  Summary s;
  for (const Epoch& e : p.epochs) {
    const double lag_ms = 1e3 * seconds_between(e.due, e.sent);
    s.gen_lag_ms_max = std::max(s.gen_lag_ms_max, lag_ms);
    s.late_sends += lag_ms > 1e3 / spec.rate;
    s.slowest_admit_ms = std::max(s.slowest_admit_ms, 1e3 * seconds_between(e.sent, e.admitted));
    if (!e.committed_converged) continue;
    s.latency_ms.push_back(1e3 * seconds_between(e.due, e.committed));
    s.queue_wait_ms.push_back(s.latency_ms.back() - 1e3 * e.step_s);
  }
  double busy = 0;
  for (const double t : p.step_s) {
    busy += t;
    s.slowest_step_ms = std::max(s.slowest_step_ms, 1e3 * t);
  }
  s.utilisation = p.wall_s > 0 ? busy / p.wall_s : 0;
  EndToEnd& e = s.e2e;
  e.setup_s = setup_s;
  e.solve_s_p50 = median(p.step_s);
  e.objects_per_s =
      busy > 0 ? static_cast<double>(in.inst.model.num_objects()) * p.step_s.size() / busy : 0;
  e.latency_ms_p50 = median(s.latency_ms);
  e.latency_ms_p90 = percentile(s.latency_ms, 90);
  e.epochs_per_s = busy > 0 ? p.committed() / busy : 0;
  e.cost_over_lb = in.lower_bound > 0 ? p.counters.cost_paid / in.lower_bound : 0;
  e.peak_rss_mb = p.peak_rss_mb;
  return s;
}

void print_phase(const Phase& p, const Summary& s, const DaemonSpec& spec) {
  const DaemonCounters& c = p.counters;
  std::printf("epochs: offered=%zu committed_converged=%zu coalesced=%llu rejected=%llu "
              "partial_rounds=%llu checkpoints=%llu\n",
              p.epochs.size(), p.committed(), static_cast<unsigned long long>(c.coalesced),
              static_cast<unsigned long long>(c.rejected),
              static_cast<unsigned long long>(c.partial_rounds),
              static_cast<unsigned long long>(c.checkpoints));
  // A single submitter waits out each admit(), so a slow admit makes the
  // next send late; the run is flagged when that happens to over 1% of sends.
  std::printf("load: offered %.1f epochs/s, stepper utilisation %.3f, generator max lag "
              "%.3f ms, %zu sends more than one gap late%s\n",
              spec.rate, s.utilisation, s.gen_lag_ms_max, s.late_sends,
              s.late_sends * 100 > p.epochs.size() ? " (generator fell behind)" : "");
  std::printf("outputs: cost_paid=%lld dummy_transfers=%zu placement_crc=%016llx "
              "final_is_last_target=%s\n",
              static_cast<long long>(c.cost_paid), p.dummies,
              static_cast<unsigned long long>(p.crc), p.final_is_last_target ? "yes" : "no");
  std::printf("latency samples: %zu committed epochs; slowest admit %.3f ms, slowest step "
              "%.3f ms\n",
              p.committed(), s.slowest_admit_ms, s.slowest_step_ms);
  std::printf("epoch latency p99 = %.6f ms (printed only)\n", percentile(s.latency_ms, 99));
}

}  // namespace

Report run_daemon_workload(const Args& args) {
  const DaemonSpec spec = spec_for(args);
  std::printf("workload: daemon-drift, open loop at %.1f epochs/s, 1 submitter + 1 stepper; "
              "random M=%zu N=%zu 1-%zu replicas slack %.2f, %zu moves/epoch, %.0f%% "
              "transient faults, queue holds the whole stream, fsync on\n",
              spec.rate, spec.servers, spec.objects, kMaxReplicas, kSlack, kMoves,
              100 * kFaultRate);

  std::optional<Inputs> inputs;
  std::unique_ptr<daemon::DaemonCore> core;
  std::vector<double> setups;
  const auto set_up_once = [&] {
    // The old daemon's shutdown checkpoint must land before the new one
    // starts in the same state directory.
    core.reset();
    inputs.reset();
    const Clock::time_point t0 = Clock::now();
    inputs.emplace(generate(spec, args));
    core = fresh_daemon(*inputs, args);
    setups.push_back(seconds_between(t0, Clock::now()));
  };
  while (!enough_setups(setups)) set_up_once();

  Report report;
  const Phase untraced = run_phase(*core, *inputs, spec);
  repeat_setups(setups, set_up_once);  // also leaves a fresh daemon for the traced phase
  const double setup_s = median(setups);
  const Summary off = summarize(untraced, *inputs, spec, setup_s);
  print_phase(untraced, off, spec);
  report.end_to_end = end_to_end_metrics(off.e2e);
  report.attempted = untraced.epochs.size();
  report.failed = untraced.epochs.size() - untraced.committed();
  report.errors = untraced.errors;
  if (!args.trace) return report;

  begin_recording();
  const Phase traced = run_phase(*core, *inputs, spec);
  const LayerTable table = fold_trace(end_recording());
  const obs::MetricsSnapshot counters = obs::MetricsRegistry::instance().snapshot();
  const Summary on = summarize(traced, *inputs, spec, setup_s);
  print_phase(traced, on, spec);
  report.traced_end_to_end = end_to_end_metrics(on.e2e);
  report.attempted += traced.epochs.size();
  report.failed += traced.epochs.size() - traced.committed();
  report.errors.insert(report.errors.end(), traced.errors.begin(), traced.errors.end());
  if (traced.crc != untraced.crc || traced.counters.cost_paid != untraced.counters.cost_paid) {
    report.errors.push_back("daemon outputs differ with recording on");
  }

  const double ops = static_cast<double>(traced.step_s.size());
  print_layer_table(table, ops, "epoch");
  const double committed = static_cast<double>(traced.committed());
  // step()'s direct children are the planner's build.*/improve.* spans and
  // the executor's execute span.
  const double plan_s = table.inclusive("daemon.step") - table.self("daemon.step") -
                        table.inclusive("exec.execute");
  report.per_layer = per_layer_metrics({
      {"core.incr.replayed_actions", counters.counter(kObsIncrReplayedActions) / ops},
      {"core.incr.checkpoint_copies", counters.counter(kObsIncrCheckpointCopies) / ops},
      {"heuristics.build_s", table.inclusive("heuristics.build") / ops},
      {"heuristics.h1_s", table.inclusive("heuristics.h1") / ops},
      {"heuristics.h2_s", table.inclusive("heuristics.h2") / ops},
      {"heuristics.op1_s", table.inclusive("heuristics.op1") / ops},
      {"heuristics.h2.adopt_ratio", counter_ratio(counters, "h2.adopted", "h2.candidates")},
      {"heuristics.op1.adopt_ratio", counter_ratio(counters, "op1.adopted", "op1.candidates")},
      {"heuristics.dummy_transfers", static_cast<double>(traced.dummies)},
      {"exec.execute_s", table.inclusive("exec.execute") / ops},
      {"exec.retries", counters.counter("exec.retries") / ops},
      {"exec.replans", counters.counter("exec.replans") / ops},
      {"daemon.admit_s", table.inclusive("daemon.admit") / traced.epochs.size()},
      {"daemon.step_s", table.inclusive("daemon.step") / ops},
      {"daemon.plan_s", plan_s / ops},
      {"daemon.step_self_s", table.self("daemon.step") / ops},
      {"daemon.queue_wait_ms.p99", percentile(on.queue_wait_ms, 99)},
      {"daemon.write_bytes_per_epoch", committed > 0 ? traced.written / committed : 0},
      {"daemon.checkpoints", static_cast<double>(traced.counters.checkpoints)},
      {"bench.gen_lag_ms.max", on.gen_lag_ms_max},
      {"bench.utilisation", on.utilisation},
      {"unattributed_s", table.self("unattributed") / ops},
  });
  return report;
}

}  // namespace perfbench
