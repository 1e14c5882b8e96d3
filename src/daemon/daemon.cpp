#include "daemon/daemon.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/feasibility.hpp"
#include "core/validator.hpp"
#include "exec/executor.hpp"
#include "heuristics/registry.hpp"
#include "io/epoch_io.hpp"
#include "obs/obs.hpp"
#include "portfolio/portfolio.hpp"
#include "support/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace rtsp::daemon {

namespace {

bool file_exists(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
#else
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
#endif
}

void ensure_directory(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      throw DaemonError("state dir '" + path + "' exists and is not a directory");
    }
    return;
  }
  if (::mkdir(path.c_str(), 0777) != 0) {
    throw DaemonError("cannot create state dir '" + path + "'");
  }
#else
  (void)path;
#endif
}

void append_u64(std::vector<unsigned char>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

/// Two chained CRC32 passes over `buf`, packed into one u64.
std::uint64_t fingerprint64(const std::vector<unsigned char>& buf) {
  const std::uint32_t lo = crc32_ieee(buf.data(), buf.size());
  const std::uint32_t hi = crc32_ieee(buf.data(), buf.size(), lo ^ 0x9e3779b9u);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// The difference that turns placement `from` into `to`, as canonical pairs.
PairDelta target_delta(const ReplicationMatrix& from, const ReplicationMatrix& to) {
  const PlacementDelta d(from, to);
  PairDelta out;
  for (const Replica& r : d.outstanding()) out.added.emplace_back(r.server, r.object);
  for (const Replica& r : d.superfluous()) out.removed.emplace_back(r.server, r.object);
  return out;
}

/// Stores `e`'s difference from the entry it will follow in `queue`: an
/// admission goes behind the newest entry, or behind the one before it when
/// it replaces (coalesces) the newest.
void attach_delta(PendingEpoch& e, const EpochQueue& queue, bool replaces_newest) {
  const std::size_t ahead = queue.size() - (replaces_newest ? 1 : 0);
  if (ahead == 0) return;  // it becomes the front: diffed at checkpoint time
  const PendingEpoch& previous = queue.entries()[ahead - 1];
  e.delta_base = previous.seq;
  e.delta = target_delta(previous.target, e.target);
}

void validate_options(const DaemonOptions& o) {
  if (o.queue_depth == 0) throw std::invalid_argument("daemon: queue_depth must be > 0");
  if (o.checkpoint_every == 0) {
    throw std::invalid_argument("daemon: checkpoint_every must be > 0");
  }
  if (o.max_attempts == 0) throw std::invalid_argument("daemon: max_attempts must be > 0");
  if (o.epoch_budget_ticks < 0) {
    throw std::invalid_argument("daemon: epoch_budget_ticks must be >= 0");
  }
  exec::validate_policy(o.exec_retry);
  exec::validate_policy(o.readmit_backoff);
  make_pipeline(o.algo);  // throws std::invalid_argument on a bad spec
}

}  // namespace

const char* to_string(AdmitResult::Status s) {
  switch (s) {
    case AdmitResult::Status::kAdmitted: return "admitted";
    case AdmitResult::Status::kCoalesced: return "coalesced";
    case AdmitResult::Status::kRejected: return "rejected";
    case AdmitResult::Status::kInfeasible: return "infeasible";
    case AdmitResult::Status::kMismatched: return "mismatched";
  }
  return "?";
}

std::uint64_t placement_fingerprint(const ReplicationMatrix& x) {
  std::vector<unsigned char> buf;
  buf.reserve(16 + x.total_replicas() * 8);
  append_u64(buf, x.num_servers());
  append_u64(buf, x.num_objects());
  for (const auto& [s, k] : placement_pairs(x)) {
    append_u64(buf, (static_cast<std::uint64_t>(s) << 32) | k);
  }
  return fingerprint64(buf);
}

std::uint64_t DaemonCore::model_fingerprint(const SystemModel& model) {
  std::vector<unsigned char> buf;
  append_u64(buf, model.num_servers());
  append_u64(buf, model.num_objects());
  for (ServerId i = 0; i < model.num_servers(); ++i) {
    append_u64(buf, static_cast<std::uint64_t>(model.capacity(i)));
  }
  for (ObjectId k = 0; k < model.num_objects(); ++k) {
    append_u64(buf, static_cast<std::uint64_t>(model.object_size(k)));
  }
  return fingerprint64(buf);
}

/// Result of processing one epoch — a pure function of (placement-before,
/// target, seq, attempt, daemon seed), which is what makes WAL redo exact.
struct DaemonCore::Outcome {
  bool converged = false;
  ReplicationMatrix x_after;
  Tick ticks = 0;        ///< virtual time the epoch occupied
  Cost cost = 0;         ///< executor actual_cost
  std::uint64_t actions = 0;
  Schedule effective;
};

DaemonCore::DaemonCore(const SystemModel& model, const ReplicationMatrix& x_start,
                       const DaemonOptions& options)
    : model_(model),
      options_(options),
      x_cur_(x_start),
      queue_(options.queue_depth),
      durable_(!options.state_dir.empty()) {
  validate_options(options_);
  RTSP_REQUIRE(x_start.num_servers() == model.num_servers() &&
               x_start.num_objects() == model.num_objects());
  if (!storage_feasible(model_, x_cur_)) {
    throw std::invalid_argument("daemon: starting placement is not storage-feasible");
  }
  x_crc_ = placement_fingerprint(x_cur_);
  if (durable_) {
    ensure_directory(options_.state_dir);
    if (file_exists(checkpoint_path()) || file_exists(wal_path())) {
      throw DaemonError("state dir '" + options_.state_dir +
                        "' already holds daemon state; use --recover");
    }
    wal_.create(wal_path(), generation_, options_.fsync);
  }
}

DaemonCore::DaemonCore(const SystemModel& model, const ReplicationMatrix& x_start,
                       const DaemonOptions& options, RecoverReport& report)
    : model_(model),
      options_(options),
      x_cur_(x_start),
      queue_(options.queue_depth),
      durable_(!options.state_dir.empty()) {
  validate_options(options_);
  RTSP_REQUIRE(x_start.num_servers() == model.num_servers() &&
               x_start.num_objects() == model.num_objects());
  if (!durable_) throw DaemonError("recovery requires a state dir");
  if (!storage_feasible(model_, x_cur_)) {
    throw std::invalid_argument("daemon: starting placement is not storage-feasible");
  }
  x_crc_ = placement_fingerprint(x_cur_);
  ensure_directory(options_.state_dir);
  recover(x_start, report);
}

DaemonCore::~DaemonCore() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; an explicit shutdown() surfaces errors.
  }
}

std::string DaemonCore::checkpoint_path() const {
  return options_.state_dir + "/checkpoint";
}

std::string DaemonCore::wal_path() const { return options_.state_dir + "/wal.log"; }

void DaemonCore::hook(const char* point) {
  if (crash_hook) crash_hook(point);
}

std::uint64_t DaemonCore::epoch_seed(std::uint64_t seq, std::uint32_t attempt) const {
  return mix64(mix64(options_.seed, seq), attempt);
}

AdmitResult DaemonCore::admit(const ReplicationMatrix& target) {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmitResult result;
  if (target.num_servers() != model_.num_servers() ||
      target.num_objects() != model_.num_objects()) {
    result.status = AdmitResult::Status::kMismatched;
    result.error = "target dimensions do not match the daemon's model";
    return result;
  }
  if (!storage_feasible(model_, target)) {
    result.status = AdmitResult::Status::kInfeasible;
    result.error = "target placement is not storage-feasible";
    ++counters_.infeasible;
    return result;
  }
  if (queue_.full() && options_.policy == QueuePolicy::kReject) {
    result.status = AdmitResult::Status::kRejected;
    result.retry_after = std::max<Tick>(1, options_.readmit_backoff.base_backoff);
    result.error = "admission queue is full";
    ++counters_.rejected;
    return result;
  }

  WalRecord rec;
  rec.type = WalRecordType::kAdmit;
  rec.seq = last_seq_ + 1;
  rec.attempt = 1;
  rec.clock = clock_;  // not_before: ready immediately
  rec.target = placement_pairs(target);
  if (queue_.full()) rec.replaces = queue_.newest_seq();

  if (durable_ && wal_.is_open()) wal_.append(rec);
  hook("admit");

  last_seq_ = rec.seq;
  PendingEpoch e{rec.seq, 1, rec.clock, target};
  attach_delta(e, queue_, rec.replaces != 0);
  if (rec.replaces != 0) {
    queue_.replace(rec.replaces, std::move(e));
    ++counters_.coalesced;
    result.status = AdmitResult::Status::kCoalesced;
    result.replaced = rec.replaces;
  } else {
    queue_.push(std::move(e));
    result.status = AdmitResult::Status::kAdmitted;
  }
  ++counters_.admitted;
  result.seq = rec.seq;
  OBS_COUNT("daemon.admitted");
  OBS_LOG_DEBUG("epoch admitted", obs::log_field("seq", rec.seq),
                obs::log_field("status", to_string(result.status)));
  return result;
}

DaemonCore::Outcome DaemonCore::process_epoch(const PendingEpoch& e) const {
  Outcome o;
  if (x_cur_ == e.target) {
    o.converged = true;
    o.x_after = x_cur_;
    return o;
  }
  const std::uint64_t kseed = epoch_seed(e.seq, e.attempt);

  Schedule plan;
  if (options_.portfolio) {
    PortfolioOptions po;
    po.budget.ticks = options_.plan_budget_ticks;
    plan = solve_portfolio(model_, x_cur_, e.target, kseed, po).schedule;
  } else {
    Rng rng(kseed);
    plan = make_pipeline(options_.algo).run(model_, x_cur_, e.target, rng);
  }

  exec::ExecutorOptions eo;
  eo.retry = options_.exec_retry;
  eo.replan_algo = options_.algo;
  eo.max_replans = options_.max_replans;
  eo.degrade_after = options_.degrade_after;
  eo.seed = kseed;
  // Graceful degradation: after max_attempts budgeted rounds the epoch
  // runs unbudgeted, so convergence is guaranteed eventually.
  eo.budget_ticks = e.attempt <= options_.max_attempts ? options_.epoch_budget_ticks : 0;

  const exec::ExecutionReport report =
      exec::execute_schedule(model_, x_cur_, e.target, plan, options_.faults, eo);

  // Paranoia: the effective prefix must replay against what we are about
  // to commit. A failure here is a bug, not an input error — refuse to
  // write a commit record we cannot defend.
  if (!Validator::is_valid(model_, x_cur_, report.final_placement, report.effective)) {
    throw DaemonError("epoch " + std::to_string(e.seq) +
                      ": effective schedule does not validate");
  }

  o.converged = report.final_placement == e.target;
  o.x_after = report.final_placement;
  o.ticks = report.finished_at;
  o.cost = report.actual_cost;
  o.actions = report.effective.size();
  o.effective = report.effective;
  return o;
}

WalRecord DaemonCore::commit_record_locked(const PendingEpoch& e,
                                           const Outcome& o) const {
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.seq = e.seq;
  rec.attempt = e.attempt;
  rec.clock = clock_ + o.ticks;
  rec.converged = o.converged;
  rec.placement_crc = placement_fingerprint(o.x_after);
  rec.cost = o.cost;
  rec.actions = o.actions;
  if (!o.converged) {
    rec.readmit = true;
    // Deterministic backoff keyed by (seed, seq, attempt); the stream is
    // independent of the executor's.
    Rng rng(mix64(epoch_seed(e.seq, e.attempt), 0xba0cull));
    const int failures = static_cast<int>(
        std::min<std::uint32_t>(e.attempt, 30));  // cap the exponent
    rec.readmit_not_before =
        rec.clock + exec::backoff_wait(options_.readmit_backoff, failures, rng);
  }
  return rec;
}

void DaemonCore::apply_commit_locked(const PendingEpoch& e, const Outcome& o,
                                     bool during_replay) {
  (void)e;
  (void)during_replay;
  x_cur_ = o.x_after;
  x_crc_ = placement_fingerprint(x_cur_);
  clock_ += o.ticks;
  counters_.actions_applied += o.actions;
  counters_.cost_paid += o.cost;
  if (o.converged) {
    ++counters_.converged;
  } else {
    ++counters_.partial_rounds;
  }
  if (options_.record_effective) {
    for (const Action& a : o.effective) effective_log_.push_back(a);
  }
  ++commits_since_checkpoint_;
}

bool DaemonCore::step() {
  PendingEpoch e;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    // Strict sequence order: targets apply in submission order, so the
    // placement never moves backward to an older target once a newer one
    // has landed. A backing-off front epoch delays the whole queue by
    // jumping the virtual clock to its gate (the daemon has nothing else
    // to do with the time).
    const PendingEpoch& front = queue_.entries().front();
    if (front.not_before > clock_) clock_ = front.not_before;
    e = queue_.pop(front.seq, front.attempt);

    WalRecord rec;
    rec.type = WalRecordType::kBegin;
    rec.seq = e.seq;
    rec.attempt = e.attempt;
    rec.clock = clock_;
    if (durable_ && wal_.is_open()) wal_.append(rec);
    hook("begin");
  }

  OBS_LOG_DEBUG("epoch begin", obs::log_field("seq", e.seq),
                obs::log_field("attempt", static_cast<std::uint64_t>(e.attempt)));
  // Processing runs outside the lock: admissions (HTTP threads) may land
  // meanwhile; they only touch the queue and the WAL, never x_cur_.
  const Outcome o = process_epoch(e);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const WalRecord rec = commit_record_locked(e, o);
    if (durable_ && wal_.is_open()) wal_.append(rec);
    hook("commit");
    apply_commit_locked(e, o, /*during_replay=*/false);
    if (rec.readmit) {
      queue_.push(PendingEpoch{e.seq, e.attempt + 1, rec.readmit_not_before,
                               e.target});
      ++counters_.readmissions;
    }
    OBS_COUNT("daemon.commits");
    OBS_GAUGE_SET("daemon.clock", clock_);
    OBS_GAUGE_SET("daemon.queue_depth",
                  static_cast<std::int64_t>(queue_.size()));
    OBS_LOG_INFO("epoch commit", obs::log_field("seq", e.seq),
                 obs::log_field("attempt", static_cast<std::uint64_t>(e.attempt)),
                 obs::log_field("converged", o.converged),
                 obs::log_field("cost", static_cast<std::int64_t>(o.cost)),
                 obs::log_field("clock", static_cast<std::int64_t>(clock_)));
    maybe_checkpoint_locked();
  }
  return true;
}

void DaemonCore::run_until_idle() {
  while (step()) {
  }
}

CheckpointDoc DaemonCore::snapshot_locked() const {
  CheckpointDoc doc;
  doc.generation = generation_;
  doc.seed = options_.seed;
  doc.last_seq = last_seq_;
  doc.clock = clock_;
  doc.servers = model_.num_servers();
  doc.objects = model_.num_objects();
  doc.model_crc = model_fingerprint(model_);
  doc.placement = placement_pairs(x_cur_);
  doc.counters = counters_;
  // Each entry is written as its difference from the entry before it (the
  // front's from the placement). The difference admission stored is reused
  // when that entry is still the one before it; otherwise (the front, or an
  // entry a re-admission was slotted in front of) it is computed here.
  const std::vector<PendingEpoch>& entries = queue_.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PendingEpoch& e = entries[i];
    const bool stored = i > 0 && e.delta_base == entries[i - 1].seq;
    doc.queue.push_back(CheckpointQueueEntry{
        e.seq, e.attempt, e.not_before,
        stored ? e.delta : target_delta(i == 0 ? x_cur_ : entries[i - 1].target, e.target)});
  }
  return doc;
}

void DaemonCore::checkpoint_locked() {
  if (!durable_) return;
  ++counters_.checkpoints;  // before the snapshot, so recovery agrees
  ++generation_;
  CheckpointDoc doc = snapshot_locked();
  write_checkpoint_file(checkpoint_path(), doc, options_.fsync);
  commits_since_checkpoint_ = 0;
  // The chaos hook sits between the checkpoint and the WAL rotation: a
  // crash here leaves a WAL one generation behind — the stale-WAL path.
  hook("checkpoint");
  wal_.close();
  wal_.create(wal_path(), generation_, options_.fsync);
  OBS_COUNT("daemon.checkpoints");
  OBS_LOG_INFO("checkpoint written", obs::log_field("generation", generation_),
               obs::log_field("clock", static_cast<std::int64_t>(clock_)));
}

void DaemonCore::maybe_checkpoint_locked() {
  if (commits_since_checkpoint_ >= options_.checkpoint_every) checkpoint_locked();
}

void DaemonCore::checkpoint_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  checkpoint_locked();
}

void DaemonCore::shutdown() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!durable_ || !wal_.is_open()) return;
  checkpoint_locked();
  wal_.close();
  durable_ = false;
}

void DaemonCore::abandon() {
  std::lock_guard<std::mutex> lock(mutex_);
  wal_.close();
  durable_ = false;
}

void DaemonCore::recover(const ReplicationMatrix& x_start, RecoverReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)x_start;  // already copied into x_cur_; only used when no checkpoint

  if (file_exists(checkpoint_path())) {
    CheckpointDoc doc;
    try {
      doc = read_checkpoint_file(checkpoint_path());
    } catch (const std::exception& e) {
      throw DaemonError(std::string("corrupt checkpoint: ") + e.what());
    }
    if (doc.seed != options_.seed) {
      throw DaemonError("checkpoint seed mismatch (checkpoint " +
                        std::to_string(doc.seed) + ", daemon " +
                        std::to_string(options_.seed) + ")");
    }
    if (doc.servers != model_.num_servers() || doc.objects != model_.num_objects() ||
        doc.model_crc != model_fingerprint(model_)) {
      throw DaemonError("checkpoint does not match this instance");
    }
    generation_ = doc.generation;
    last_seq_ = doc.last_seq;
    clock_ = doc.clock;
    counters_ = doc.counters;
    try {
      x_cur_ = placement_from_pair_list(doc.servers, doc.objects, doc.placement);
      const std::vector<PairList> targets = checkpoint_queue_targets(doc);
      for (std::size_t i = 0; i < doc.queue.size(); ++i) {
        const CheckpointQueueEntry& q = doc.queue[i];
        PendingEpoch p{q.seq, q.attempt, q.not_before,
                       placement_from_pair_list(doc.servers, doc.objects, targets[i])};
        if (i > 0) {
          p.delta_base = doc.queue[i - 1].seq;
          p.delta = q.target;
        }
        queue_.push(std::move(p));
      }
    } catch (const std::exception& e) {
      throw DaemonError(std::string("corrupt checkpoint: ") + e.what());
    }
    x_crc_ = placement_fingerprint(x_cur_);
    report.had_checkpoint = true;
  }
  report.generation = generation_;

  if (!file_exists(wal_path())) {
    wal_.create(wal_path(), generation_, options_.fsync);
  } else {
    WalReadResult wal;
    try {
      wal = read_wal_file(wal_path());
    } catch (const std::exception& e) {
      throw DaemonError(std::string("corrupt wal: ") + e.what());
    }
    if (wal.generation == generation_) {
      if (wal.torn()) {
        // A torn tail is rolled back on disk before anything else — it
        // must never be appended after, let alone replayed.
        truncate_file(wal_path(), wal.valid_bytes);
        report.rolled_back_bytes = wal.rolled_back_bytes;
      }
      wal_.open_append(wal_path(), wal.valid_bytes, options_.fsync);

      std::optional<std::pair<PendingEpoch, Outcome>> inflight;
      const auto in_queue = [&](std::uint64_t seq, std::uint32_t attempt) {
        for (const PendingEpoch& p : queue_.entries()) {
          if (p.seq == seq && p.attempt == attempt) return true;
        }
        return false;
      };
      for (const WalRecord& rec : wal.records) {
        ++report.records_replayed;
        switch (rec.type) {
          case WalRecordType::kAdmit: {
            ReplicationMatrix target;
            try {
              target = placement_from_pair_list(model_.num_servers(),
                                                model_.num_objects(), rec.target);
            } catch (const std::exception& e) {
              throw DaemonError(std::string("wal admit record: ") + e.what());
            }
            PendingEpoch e{rec.seq, rec.attempt, rec.clock, std::move(target)};
            attach_delta(e, queue_, rec.replaces != 0);
            if (rec.replaces != 0) {
              bool present = false;
              for (const PendingEpoch& p : queue_.entries()) {
                present = present || p.seq == rec.replaces;
              }
              if (!present) {
                throw DaemonError("wal admit record replaces unknown seq " +
                                  std::to_string(rec.replaces));
              }
              queue_.replace(rec.replaces, std::move(e));
              ++counters_.coalesced;
            } else {
              queue_.push(std::move(e));
            }
            ++counters_.admitted;
            last_seq_ = std::max(last_seq_, rec.seq);
            break;
          }
          case WalRecordType::kBegin: {
            if (inflight.has_value()) {
              throw DaemonError("wal: BEGIN " + std::to_string(rec.seq) +
                                " while epoch " +
                                std::to_string(inflight->first.seq) +
                                " is still open");
            }
            if (!in_queue(rec.seq, rec.attempt)) {
              throw DaemonError("wal: BEGIN for unknown epoch " +
                                std::to_string(rec.seq) + " attempt " +
                                std::to_string(rec.attempt));
            }
            // The BEGIN clock includes the live run's jump over backoff
            // gates (step() fast-forwards when nothing is ready); restore
            // it so the redone commit lands on the same timeline.
            clock_ = rec.clock;
            PendingEpoch e = queue_.pop(rec.seq, rec.attempt);
            // Redo is pure, so this reproduces the pre-crash processing
            // bit-identically.
            Outcome o = process_epoch(e);
            ++report.reprocessed;
            inflight.emplace(std::move(e), std::move(o));
            break;
          }
          case WalRecordType::kCommit: {
            if (!inflight.has_value() || inflight->first.seq != rec.seq ||
                inflight->first.attempt != rec.attempt) {
              throw DaemonError("wal: COMMIT without matching BEGIN (seq " +
                                std::to_string(rec.seq) + ")");
            }
            const PendingEpoch& e = inflight->first;
            const Outcome& o = inflight->second;
            const WalRecord mine = commit_record_locked(e, o);
            if (mine.placement_crc != rec.placement_crc ||
                mine.converged != rec.converged || mine.clock != rec.clock ||
                mine.cost != rec.cost || mine.actions != rec.actions ||
                mine.readmit != rec.readmit ||
                mine.readmit_not_before != rec.readmit_not_before) {
              throw DaemonError(
                  "wal replay divergence at epoch " + std::to_string(rec.seq) +
                  " attempt " + std::to_string(rec.attempt) +
                  ": recomputed commit does not match the logged one");
            }
            apply_commit_locked(e, o, /*during_replay=*/true);
            if (rec.readmit) {
              queue_.push(PendingEpoch{e.seq, e.attempt + 1,
                                       rec.readmit_not_before, e.target});
              ++counters_.readmissions;
            }
            inflight.reset();
            break;
          }
        }
      }
      if (inflight.has_value()) {
        // The crash hit between BEGIN and COMMIT: the epoch was redone
        // above; finish it by writing the commit it never got.
        const PendingEpoch& e = inflight->first;
        const Outcome& o = inflight->second;
        const WalRecord rec = commit_record_locked(e, o);
        wal_.append(rec);
        apply_commit_locked(e, o, /*during_replay=*/true);
        if (rec.readmit) {
          queue_.push(PendingEpoch{e.seq, e.attempt + 1, rec.readmit_not_before,
                                   e.target});
          ++counters_.readmissions;
        }
        ++report.completed_begin;
      }
      commits_since_checkpoint_ = 0;
      for (const WalRecord& rec : wal.records) {
        if (rec.type == WalRecordType::kCommit) ++commits_since_checkpoint_;
      }
      if (report.completed_begin > 0) ++commits_since_checkpoint_;
    } else if (report.had_checkpoint && wal.generation + 1 == generation_) {
      // The crash landed between the checkpoint write and the WAL
      // rotation: every record in this WAL is already folded into the
      // checkpoint. Replaying it would double-apply — discard it.
      report.wal_stale = true;
      wal_.create(wal_path(), generation_, options_.fsync);
    } else {
      throw DaemonError("wal generation " + std::to_string(wal.generation) +
                        " is incompatible with checkpoint generation " +
                        std::to_string(generation_));
    }
  }

  ++counters_.recoveries;
  OBS_LOG_INFO("recovery complete", obs::log_field("generation", generation_),
               obs::log_field("replayed", report.records_replayed),
               obs::log_field("rolled_back_bytes", report.rolled_back_bytes));
  // Boundary case: the crash hit after the checkpoint_every-th commit was
  // logged but before its checkpoint — take it now, exactly where the
  // uninterrupted run would have.
  maybe_checkpoint_locked();
}

bool DaemonCore::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty();
}

Tick DaemonCore::clock() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_;
}

std::uint64_t DaemonCore::last_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_seq_;
}

DaemonCounters DaemonCore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::uint64_t DaemonCore::placement_crc() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return x_crc_;
}

DaemonCore::Status DaemonCore::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Status s;
  s.clock = clock_;
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.max_depth();
  s.idle = queue_.empty();
  s.last_seq = last_seq_;
  s.generation = generation_;
  s.placement_crc = x_crc_;
  s.counters = counters_;
  return s;
}

}  // namespace rtsp::daemon
