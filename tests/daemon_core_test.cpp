// DaemonCore and EpochQueue: admission policies, partial convergence with
// re-admission backoff, durable kill/recover bit-identity, and the
// refusal paths (occupied state dir, seed/model mismatch, corrupt state).
#include "daemon/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/feasibility.hpp"
#include "core/validator.hpp"
#include "io/checkpoint_io.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"
#include "workload/epoch_stream.hpp"

namespace rtsp {
namespace {

using daemon::AdmitResult;
using daemon::DaemonCore;
using daemon::DaemonError;
using daemon::DaemonOptions;
using daemon::EpochQueue;
using daemon::PendingEpoch;
using daemon::QueuePolicy;
using daemon::RecoverReport;
using exec::Tick;

std::string fresh_dir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_daemon_" + name;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return path;
}

Instance small_instance(std::uint64_t seed = 11) {
  RandomInstanceSpec spec;
  spec.servers = 6;
  spec.objects = 12;
  Rng rng(seed);
  return random_instance(spec, rng);
}

std::vector<ReplicationMatrix> targets_for(const Instance& inst,
                                           std::size_t count,
                                           std::uint64_t seed = 21) {
  EpochStreamSpec spec;
  spec.count = count;
  spec.moves = 4;
  Rng rng(seed);
  return make_epoch_stream(inst.model, inst.x_old, spec, rng);
}

DaemonOptions memory_options() {
  DaemonOptions o;
  o.seed = 5;
  return o;  // no state_dir: fully in-memory
}

// --- EpochQueue -----------------------------------------------------------

PendingEpoch pending(std::uint64_t seq, Tick not_before = 0,
                     std::uint32_t attempt = 1) {
  PendingEpoch e;
  e.seq = seq;
  e.attempt = attempt;
  e.not_before = not_before;
  e.target = ReplicationMatrix(1, 1);
  return e;
}

TEST(EpochQueue, KeepsAscendingSeqOrderRegardlessOfPushOrder) {
  EpochQueue q(8);
  q.push(pending(3));
  q.push(pending(1));
  q.push(pending(2));
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.entries()[0].seq, 1u);
  EXPECT_EQ(q.entries()[1].seq, 2u);
  EXPECT_EQ(q.entries()[2].seq, 3u);
  EXPECT_EQ(q.newest_seq(), 3u);
}

TEST(EpochQueue, NextReadyHonorsNotBeforeGate) {
  EpochQueue q(8);
  q.push(pending(1, 100));
  q.push(pending(2, 0));
  // Seq 1 gates until tick 100; seq 2 is ready but seq 1 is lower.
  const PendingEpoch* ready = q.next_ready(0);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->seq, 2u);
  ready = q.next_ready(100);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->seq, 1u);
  EXPECT_EQ(q.earliest_not_before(), 0);
}

TEST(EpochQueue, NextReadyNullWhenEverythingGated) {
  EpochQueue q(8);
  q.push(pending(1, 50));
  q.push(pending(2, 30));
  EXPECT_EQ(q.next_ready(10), nullptr);
  EXPECT_EQ(q.earliest_not_before(), 30);
}

TEST(EpochQueue, ReplaceSwapsCoalesceVictim) {
  EpochQueue q(2);
  q.push(pending(1));
  q.push(pending(2));
  EXPECT_TRUE(q.full());
  q.replace(2, pending(3));
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.entries()[1].seq, 3u);
}

TEST(EpochQueue, PopRemovesExactEntry) {
  EpochQueue q(8);
  q.push(pending(1));
  q.push(pending(2, 7, 3));
  const PendingEpoch e = q.pop(2, 3);
  EXPECT_EQ(e.seq, 2u);
  EXPECT_EQ(e.attempt, 3u);
  EXPECT_EQ(e.not_before, 7);
  EXPECT_EQ(q.size(), 1u);
}

// --- In-memory DaemonCore -------------------------------------------------

TEST(DaemonCore, ConvergesToLastSubmittedTarget) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 3);
  DaemonCore core(inst.model, inst.x_old, memory_options());

  for (const auto& t : targets) {
    const AdmitResult r = core.admit(t);
    EXPECT_TRUE(r.accepted());
  }
  core.run_until_idle();

  EXPECT_TRUE(core.idle());
  EXPECT_TRUE(core.placement() == targets.back());
  EXPECT_EQ(core.counters().admitted, 3u);
  EXPECT_EQ(core.counters().converged, 3u);
  EXPECT_EQ(core.placement_crc(), daemon::placement_fingerprint(targets.back()));
}

TEST(DaemonCore, TrivialEpochCommitsWithoutCost) {
  const Instance inst = small_instance();
  DaemonCore core(inst.model, inst.x_old, memory_options());
  const AdmitResult r = core.admit(inst.x_old);  // already there
  EXPECT_TRUE(r.accepted());
  core.run_until_idle();
  EXPECT_EQ(core.counters().converged, 1u);
  EXPECT_EQ(core.counters().cost_paid, 0);
  EXPECT_EQ(core.counters().actions_applied, 0u);
}

TEST(DaemonCore, RefusesInfeasibleTarget) {
  const Instance inst = small_instance();
  DaemonCore core(inst.model, inst.x_old, memory_options());
  // Every object on every server cannot fit the tight random capacities.
  ReplicationMatrix everything(inst.model.num_servers(),
                               inst.model.objects().count());
  for (ServerId s = 0; s < inst.model.num_servers(); ++s) {
    for (ObjectId k = 0; k < inst.model.objects().count(); ++k) {
      everything.set(s, k);
    }
  }
  ASSERT_FALSE(storage_feasible(inst.model, everything));
  const AdmitResult r = core.admit(everything);
  EXPECT_EQ(r.status, AdmitResult::Status::kInfeasible);
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(core.counters().infeasible, 1u);
  EXPECT_TRUE(core.idle());
}

TEST(DaemonCore, RefusesDimensionMismatch) {
  const Instance inst = small_instance();
  DaemonCore core(inst.model, inst.x_old, memory_options());
  const AdmitResult r = core.admit(ReplicationMatrix(2, 3));
  EXPECT_EQ(r.status, AdmitResult::Status::kMismatched);
  EXPECT_FALSE(r.error.empty());
}

TEST(DaemonCore, RejectPolicyBouncesWithRetryAfter) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 3);
  DaemonOptions o = memory_options();
  o.queue_depth = 2;
  o.policy = QueuePolicy::kReject;
  DaemonCore core(inst.model, inst.x_old, o);

  EXPECT_TRUE(core.admit(targets[0]).accepted());
  EXPECT_TRUE(core.admit(targets[1]).accepted());
  const AdmitResult r = core.admit(targets[2]);
  EXPECT_EQ(r.status, AdmitResult::Status::kRejected);
  EXPECT_GT(r.retry_after, 0);
  EXPECT_EQ(core.counters().rejected, 1u);
  // Draining makes room again.
  core.run_until_idle();
  EXPECT_TRUE(core.admit(targets[2]).accepted());
  core.run_until_idle();
  EXPECT_TRUE(core.placement() == targets[2]);
}

TEST(DaemonCore, CoalescePolicyReplacesNewestPending) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 3);
  DaemonOptions o = memory_options();
  o.queue_depth = 2;
  o.policy = QueuePolicy::kCoalesce;
  DaemonCore core(inst.model, inst.x_old, o);

  EXPECT_TRUE(core.admit(targets[0]).accepted());
  const AdmitResult second = core.admit(targets[1]);
  EXPECT_TRUE(second.accepted());
  const AdmitResult third = core.admit(targets[2]);
  EXPECT_EQ(third.status, AdmitResult::Status::kCoalesced);
  EXPECT_EQ(third.replaced, second.seq);
  EXPECT_EQ(core.counters().coalesced, 1u);
  EXPECT_EQ(core.counters().admitted, 3u);

  core.run_until_idle();
  // The coalesced-away target is never visited; the final state is the
  // replacement (latest) target.
  EXPECT_TRUE(core.placement() == targets[2]);
  EXPECT_EQ(core.counters().converged, 2u);
}

TEST(DaemonCore, BudgetedEpochsReadmitAndStillConverge) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 2);
  DaemonOptions o = memory_options();
  o.epoch_budget_ticks = 10;  // far too small: forces partial rounds
  o.max_attempts = 3;
  DaemonCore core(inst.model, inst.x_old, o);
  for (const auto& t : targets) ASSERT_TRUE(core.admit(t).accepted());
  core.run_until_idle();

  EXPECT_TRUE(core.placement() == targets.back());
  EXPECT_EQ(core.counters().converged, 2u);
  EXPECT_GT(core.counters().partial_rounds, 0u);
  EXPECT_EQ(core.counters().partial_rounds, core.counters().readmissions);
}

TEST(DaemonCore, DeterministicAcrossIdenticalRuns) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 3);
  DaemonOptions o = memory_options();
  o.epoch_budget_ticks = 25;

  auto run = [&] {
    DaemonCore core(inst.model, inst.x_old, o);
    for (const auto& t : targets) core.admit(t);
    core.run_until_idle();
    return core.status();
  };
  const DaemonCore::Status a = run();
  const DaemonCore::Status b = run();
  EXPECT_EQ(a.placement_crc, b.placement_crc);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_TRUE(a.counters == b.counters);
}

TEST(DaemonCore, EffectiveLogValidatesEndToEnd) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 2);
  DaemonOptions o = memory_options();
  o.record_effective = true;
  o.epoch_budget_ticks = 30;
  DaemonCore core(inst.model, inst.x_old, o);
  for (const auto& t : targets) core.admit(t);
  core.run_until_idle();
  EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, core.placement(),
                                  core.effective_log()));
}

// --- Durable state + recovery --------------------------------------------

DaemonOptions durable_options(const std::string& dir) {
  DaemonOptions o;
  o.seed = 5;
  o.state_dir = dir;
  o.fsync = false;  // tests exercise the protocol, not the disk
  o.checkpoint_every = 2;
  return o;
}

TEST(DaemonCore, FreshConstructorRefusesOccupiedStateDir) {
  const Instance inst = small_instance();
  const std::string dir = fresh_dir("occupied");
  DaemonCore first(inst.model, inst.x_old, durable_options(dir));
  EXPECT_THROW(DaemonCore(inst.model, inst.x_old, durable_options(dir)),
               DaemonError);
}

TEST(DaemonCore, RecoverFromCleanShutdownResumesState) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 2);
  const std::string dir = fresh_dir("clean");

  DaemonCore::Status before;
  {
    DaemonCore core(inst.model, inst.x_old, durable_options(dir));
    for (const auto& t : targets) core.admit(t);
    core.run_until_idle();
    core.shutdown();
    before = core.status();
  }
  RecoverReport report;
  DaemonCore core(inst.model, inst.x_old, durable_options(dir), report);
  EXPECT_TRUE(report.had_checkpoint);
  const DaemonCore::Status after = core.status();
  EXPECT_EQ(after.placement_crc, before.placement_crc);
  EXPECT_EQ(after.clock, before.clock);
  EXPECT_EQ(after.last_seq, before.last_seq);
  EXPECT_EQ(after.counters.converged, before.counters.converged);
  EXPECT_EQ(after.counters.recoveries, before.counters.recoveries + 1);
}

TEST(DaemonCore, RecoverRefusesSeedMismatch) {
  const Instance inst = small_instance();
  const std::string dir = fresh_dir("seed_mismatch");
  {
    DaemonCore core(inst.model, inst.x_old, durable_options(dir));
    core.admit(targets_for(inst, 1)[0]);
    core.run_until_idle();
    core.shutdown();
  }
  DaemonOptions other = durable_options(dir);
  other.seed = 6;
  RecoverReport report;
  EXPECT_THROW(DaemonCore(inst.model, inst.x_old, other, report), DaemonError);
}

TEST(DaemonCore, RecoverRefusesModelMismatch) {
  const Instance inst = small_instance(11);
  const Instance other = small_instance(12);
  ASSERT_EQ(inst.model.num_servers(), other.model.num_servers());
  const std::string dir = fresh_dir("model_mismatch");
  {
    DaemonCore core(inst.model, inst.x_old, durable_options(dir));
    core.admit(targets_for(inst, 1)[0]);
    core.run_until_idle();
    core.shutdown();
  }
  RecoverReport report;
  EXPECT_THROW(DaemonCore(other.model, other.x_old, durable_options(dir), report),
               DaemonError);
}

TEST(DaemonCore, RecoverRefusesCorruptCheckpoint) {
  const Instance inst = small_instance();
  const std::string dir = fresh_dir("corrupt_ckp");
  {
    DaemonCore core(inst.model, inst.x_old, durable_options(dir));
    core.admit(targets_for(inst, 1)[0]);
    core.run_until_idle();
    core.shutdown();  // writes the final checkpoint
  }
  {
    std::fstream f(dir + "/checkpoint",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24);
    f.put('\xff');
  }
  RecoverReport report;
  EXPECT_THROW(DaemonCore(inst.model, inst.x_old, durable_options(dir), report),
               DaemonError);
}

struct CrashAt {
  std::string point;
  int countdown = 1;
};

/// Runs the workload against a durable core, crashing (abandon, no flush)
/// when the `n`-th firing of hook `point` is reached, then recovers and
/// finishes. Returns the final status.
DaemonCore::Status crash_and_recover(const Instance& inst,
                                     const std::vector<ReplicationMatrix>& targets,
                                     const DaemonOptions& base,
                                     const CrashAt& crash,
                                     RecoverReport& report) {
  struct Crash {};
  auto core = std::make_unique<DaemonCore>(inst.model, inst.x_old, base);
  int remaining = crash.countdown;
  core->crash_hook = [&](const char* p) {
    if (crash.point == p && --remaining == 0) throw Crash{};
  };
  std::size_t next = 0;
  try {
    while (next < targets.size()) {
      if (!core->admit(targets[next]).accepted()) core->step();
      else ++next;
    }
    core->run_until_idle();
    ADD_FAILURE() << "crash point '" << crash.point << "' never fired";
  } catch (const Crash&) {
    core->crash_hook = nullptr;
    core->abandon();
    core.reset();
    core = std::make_unique<DaemonCore>(inst.model, inst.x_old, base, report);
    next = static_cast<std::size_t>(core->last_seq());
    while (next < targets.size()) {
      if (!core->admit(targets[next]).accepted()) core->step();
      else ++next;
    }
    core->run_until_idle();
  }
  return core->status();
}

class DaemonRecoveryBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(DaemonRecoveryBitIdentity, CrashPointPreservesOutcome) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 3);

  DaemonOptions o = durable_options(fresh_dir(std::string("ref_") + GetParam()));
  o.epoch_budget_ticks = 25;  // partials + readmissions in the mix
  DaemonCore reference(inst.model, inst.x_old, o);
  for (const auto& t : targets) {
    if (!reference.admit(t).accepted()) reference.step();
  }
  reference.run_until_idle();
  const DaemonCore::Status expected = reference.status();

  DaemonOptions crashed =
      durable_options(fresh_dir(std::string("crash_") + GetParam()));
  crashed.epoch_budget_ticks = 25;
  RecoverReport report;
  const DaemonCore::Status got = crash_and_recover(
      inst, targets, crashed, CrashAt{GetParam(), 2}, report);

  EXPECT_EQ(got.placement_crc, expected.placement_crc);
  EXPECT_EQ(got.clock, expected.clock);
  EXPECT_EQ(got.last_seq, expected.last_seq);
  DaemonCounters a = expected.counters;
  DaemonCounters b = got.counters;
  a.checkpoints = b.checkpoints = 0;  // crash timing may change these two
  a.recoveries = b.recoveries = 0;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(got.counters.recoveries, 1u);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, DaemonRecoveryBitIdentity,
                         ::testing::Values("admit", "begin", "commit",
                                           "checkpoint"));

TEST(DaemonCore, TornWalTailRolledBackOnRecovery) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 2);
  const std::string dir = fresh_dir("torn");
  {
    DaemonCore core(inst.model, inst.x_old, durable_options(dir));
    for (const auto& t : targets) core.admit(t);
    core.run_until_idle();
    core.abandon();  // no final checkpoint: the WAL is the only record
  }
  {
    std::ofstream wal(dir + "/wal.log", std::ios::binary | std::ios::app);
    wal.write("\x03garbage-torn-tail", 18);
  }
  RecoverReport report;
  DaemonCore core(inst.model, inst.x_old, durable_options(dir), report);
  EXPECT_EQ(report.rolled_back_bytes, 18u);
  EXPECT_TRUE(core.placement() == targets.back());
  // A second recovery sees the truncated (clean) file.
  core.shutdown();
  RecoverReport again;
  DaemonCore core2(inst.model, inst.x_old, durable_options(dir), again);
  EXPECT_EQ(again.rolled_back_bytes, 0u);
}

TEST(DaemonCore, CrashBeforeWalRotationDiscardsStaleWal) {
  const Instance inst = small_instance();
  const auto targets = targets_for(inst, 3);
  DaemonOptions o = durable_options(fresh_dir("stale"));
  struct Crash {};
  RecoverReport report;

  auto core = std::make_unique<DaemonCore>(inst.model, inst.x_old, o);
  core->crash_hook = [](const char* p) {
    if (std::string("checkpoint") == p) throw Crash{};
  };
  std::size_t next = 0;
  try {
    while (next < targets.size()) {
      if (!core->admit(targets[next]).accepted()) core->step();
      else ++next;
    }
    core->run_until_idle();
    FAIL() << "checkpoint crash point never fired";
  } catch (const Crash&) {
    core->crash_hook = nullptr;
    core->abandon();
    core.reset();
    core = std::make_unique<DaemonCore>(inst.model, inst.x_old, o, report);
  }
  // The WAL on disk was one generation behind the just-written checkpoint.
  EXPECT_TRUE(report.wal_stale);
  EXPECT_TRUE(report.had_checkpoint);
  next = static_cast<std::size_t>(core->last_seq());
  while (next < targets.size()) {
    if (!core->admit(targets[next]).accepted()) core->step();
    else ++next;
  }
  core->run_until_idle();
  EXPECT_TRUE(core->placement() == targets.back());
}

TEST(DaemonCore, BacklogCheckpointGrowsWithMovesAndRecoversBitIdentically) {
  // The daemon-drift shape: M=100, N=5000, 1-3 replicas, 16-move epochs. A
  // stall queues 200 of them; the checkpoint must stay within 2x of an
  // empty-queue one (a full target per entry would make it about 200x).
  RandomInstanceSpec spec;
  spec.servers = 100;
  spec.objects = 5000;
  spec.capacity_slack = 0.1;
  Rng rng(11);
  const Instance inst = random_instance(spec, rng);
  EpochStreamSpec stream;
  stream.count = 200;
  stream.moves = 16;
  Rng stream_rng(12);
  const auto targets = make_epoch_stream(inst.model, inst.x_old, stream, stream_rng);

  const std::string dir = fresh_dir("backlog");
  DaemonOptions o = durable_options(dir);
  o.queue_depth = targets.size();
  const auto checkpoint_bytes = [&] {
    return std::filesystem::file_size(dir + "/checkpoint");
  };
  DaemonCore core(inst.model, inst.x_old, o);
  core.checkpoint_now();
  const auto empty_queue = checkpoint_bytes();
  for (const auto& t : targets) ASSERT_TRUE(core.admit(t).accepted());
  core.checkpoint_now();
  EXPECT_LT(checkpoint_bytes(), 2 * empty_queue);

  // Crash right after that checkpoint; the live core carries on in memory.
  core.abandon();
  RecoverReport report;
  DaemonCore recovered(inst.model, inst.x_old, o, report);
  EXPECT_TRUE(report.had_checkpoint);
  EXPECT_EQ(recovered.status().queue_depth, targets.size());
  core.run_until_idle();
  recovered.run_until_idle();
  const DaemonCore::Status expected = core.status();
  const DaemonCore::Status got = recovered.status();
  EXPECT_EQ(got.placement_crc, expected.placement_crc);
  EXPECT_EQ(got.clock, expected.clock);
  EXPECT_EQ(got.last_seq, expected.last_seq);
  DaemonCounters a = expected.counters;
  DaemonCounters b = got.counters;
  a.checkpoints = b.checkpoints = 0;
  a.recoveries = b.recoveries = 0;
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(recovered.placement() == targets.back());
}

}  // namespace
}  // namespace rtsp
