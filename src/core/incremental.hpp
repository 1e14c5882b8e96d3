// Incremental evaluation engine for schedule improvers.
//
// The improvement heuristics (H1, H2, OP1) generate thousands of candidate
// schedules per run, each differing from the current schedule only inside a
// small edit window, yet the naive acceptance test pays a full
// Validator::validate replay plus a full schedule_cost re-sum per candidate
// — O(L + M*N) work for an O(window) edit. This engine makes the acceptance
// test proportional to the edit:
//
//   * PrefixStateCache checkpoints the ExecutionState of the current (base)
//     schedule every ~sqrt(L) actions, so the state just before any position
//     is reachable by replaying at most one checkpoint interval;
//   * candidate cost and dummy-transfer counts are computed by delta
//     accounting over the diff window (action costs are position-independent,
//     so actions outside the window cancel exactly);
//   * candidate validation replays only from the checkpoint preceding the
//     diff window and early-exits as soon as the candidate's state
//     re-converges with the base execution at an aligned suffix position:
//     identical states + identical remaining actions imply the candidate's
//     suffix replays exactly like the (valid) base's, ending in X_new;
//   * PositionIndex lists the base schedule's positions per server and per
//     object, so improvers can walk one server's or one object's events
//     (and screen candidates from them) without scanning the schedule.
//
// All query methods are const and thread-safe against concurrent queries
// when given distinct Scratch objects; adopt()/reset() require exclusive
// access. See DESIGN.md §8 for the convergence argument.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "core/state.hpp"
#include "core/work_meter.hpp"

namespace rtsp {

/// Obs counter names recorded by the engine (obs/obs.hpp), exported so tools
/// and tests can read them out of a MetricsSnapshot without re-spelling the
/// strings. All are totals since the last MetricsRegistry::reset().
inline constexpr char kObsIncrCandidates[] = "incr.candidates_screened";
inline constexpr char kObsIncrValidations[] = "incr.validations";
inline constexpr char kObsIncrCheckpointCopies[] = "incr.checkpoint_copies";
inline constexpr char kObsIncrReplayedActions[] = "incr.replayed_actions";
inline constexpr char kObsIncrConvergedEarly[] = "incr.converged_early";
inline constexpr char kObsIncrFullReplays[] = "incr.full_replays";
inline constexpr char kObsIncrAdopts[] = "incr.adopts";

/// Sparse ExecutionState snapshots of a schedule's execution, spaced every
/// `spacing` actions: checkpoint j is the state after the first j*spacing
/// actions. Replay between checkpoints uses lenient semantics, which on a
/// valid schedule coincides with strict execution.
class PrefixStateCache {
 public:
  /// Builds checkpoints for `base` starting from `x_old`. spacing 0 selects
  /// ~sqrt(base.size()).
  PrefixStateCache(const SystemModel& model, const ReplicationMatrix& x_old,
                   const Schedule& base, std::size_t spacing = 0);

  std::size_t spacing() const { return spacing_; }
  std::size_t num_checkpoints() const { return checkpoints_.size(); }

  /// Writes the state after the first `pos` actions of `base` into `out`
  /// (assignment re-uses out's buffers). O(spacing) replay worst case.
  void state_before(const Schedule& base, std::size_t pos, ExecutionState& out) const;

  /// Nearest checkpoint at or before `pos`: copies it into `out` and returns
  /// its position. Callers replay [returned, pos) themselves when they want
  /// to interleave work with the replay.
  std::size_t checkpoint_before(std::size_t pos, ExecutionState& out) const;

  /// Re-derives checkpoints after `base` changed at positions >= `from`
  /// (checkpoints at or before `from` are kept). O(base.size() - from).
  void refresh(const Schedule& base, std::size_t from);

 private:
  std::vector<ExecutionState> checkpoints_;
  std::size_t spacing_ = 1;
};

/// Ascending positions of a schedule's actions per acting server (a
/// transfer's destination, a deletion's server) and per object.
class PositionIndex {
 public:
  PositionIndex(std::size_t servers, std::size_t objects, const Schedule& h);

  const std::vector<std::size_t>& of_server(ServerId i) const { return by_server_[i]; }
  const std::vector<std::size_t>& of_object(ObjectId k) const { return by_object_[k]; }

  /// `old_h` was replaced by `h`, and both share their first `from` actions:
  /// drops the entries at positions >= from and adds h's.
  /// O(old_h.size() + h.size() - 2 * from).
  void refresh(const Schedule& old_h, const Schedule& h, std::size_t from);

 private:
  std::vector<std::vector<std::size_t>> by_server_;
  std::vector<std::vector<std::size_t>> by_object_;
};

/// Holds a base schedule plus its cost, dummy count, validity, prefix
/// checkpoints and position index, and answers "what would this candidate cost / is it valid"
/// in time proportional to the candidate's diff window.
class IncrementalEvaluator {
 public:
  /// Diff-window metrics of a candidate against the base schedule.
  struct Metrics {
    Cost cost = 0;                      ///< candidate total implementation cost
    std::size_t dummy_transfers = 0;    ///< candidate dummy-transfer count
    std::size_t prefix = 0;             ///< actions shared at the front
    std::size_t base_suffix_start = 0;  ///< base index where the shared tail begins
    std::size_t cand_suffix_start = 0;  ///< candidate index of the shared tail
  };

  /// Replay buffers for is_valid(); one per thread when screening candidates
  /// concurrently.
  class Scratch {
   public:
    Scratch(const SystemModel& model, const ReplicationMatrix& x_old)
        : cand_state_(model, x_old), base_state_(model, x_old) {}

   private:
    friend class IncrementalEvaluator;
    ExecutionState cand_state_;
    ExecutionState base_state_;
  };

  /// Takes ownership of `base` and replays it once (cost, dummies, validity,
  /// checkpoints). `model`, `x_old` and `x_new` must outlive the evaluator.
  IncrementalEvaluator(const SystemModel& model, const ReplicationMatrix& x_old,
                       const ReplicationMatrix& x_new, Schedule base);

  const SystemModel& model() const { return model_; }
  const ReplicationMatrix& x_old() const { return x_old_; }
  const ReplicationMatrix& x_new() const { return x_new_; }

  const Schedule& schedule() const { return base_; }
  Cost cost() const { return cost_; }
  std::size_t dummy_transfers() const { return dummies_; }
  /// Whether the base schedule itself validates (improver inputs always do;
  /// when false the engine falls back to full validation per candidate).
  bool base_valid() const { return base_valid_; }

  /// Candidate cost and dummy count by delta accounting. `prefix_hint` /
  /// `suffix_hint` are caller guarantees: the first prefix_hint actions and
  /// the last suffix_hint actions of `cand` equal the base's (improvers
  /// derive them from the surgery helpers' touched-position reports). With
  /// both 0 the diff window is found by scanning from the ends. Hints only
  /// narrow the window — any sound bound yields exact metrics.
  Metrics metrics(const Schedule& cand, std::size_t prefix_hint = 0,
                  std::size_t suffix_hint = 0) const;

  /// Incremental equivalent of Validator::is_valid(model, x_old, x_new,
  /// cand). `m` must come from metrics() on the same candidate.
  bool is_valid(const Schedule& cand, const Metrics& m, Scratch& scratch) const;
  bool is_valid(const Schedule& cand, const Metrics& m) {
    return is_valid(cand, m, scratch_);
  }

  /// Writes the state after the first `pos` actions of the base schedule
  /// into `out`. Thread-safe; O(spacing) worst case.
  void state_before(std::size_t pos, ExecutionState& out) const {
    cache_.state_before(base_, pos, out);
  }

  /// Per-server and per-object positions of the base schedule.
  const PositionIndex& positions() const { return index_; }

  /// Attaches an anytime budget meter (may be null to detach). metrics() and
  /// is_valid() then charge ticks proportional to the work they do, and the
  /// budget-aware improvers poll out_of_budget() at their deterministic stop
  /// points. A null meter is the default and leaves behavior bit-identical
  /// to the unbudgeted engine. The meter must outlive the evaluator.
  void set_meter(WorkMeter* meter) { meter_ = meter; }
  WorkMeter* meter() const { return meter_; }
  bool out_of_budget() const { return meter_ != nullptr && meter_->exhausted(); }

  /// Replaces the base with a candidate previously accepted via metrics() +
  /// is_valid(); refreshes checkpoints and positions from m.prefix on.
  /// Exclusive access.
  void adopt(Schedule cand, const Metrics& m);

  /// Replaces the base with an arbitrary schedule (full rebuild).
  void reset(Schedule base);

  /// Moves the base schedule out; the evaluator must not be used after.
  Schedule take_schedule() { return std::move(base_); }

 private:
  void rebuild_summary();

  const SystemModel& model_;
  const ReplicationMatrix& x_old_;
  const ReplicationMatrix& x_new_;
  Schedule base_;
  Cost cost_ = 0;
  std::size_t dummies_ = 0;
  bool base_valid_ = false;
  PrefixStateCache cache_;
  PositionIndex index_;
  Scratch scratch_;
  WorkMeter* meter_ = nullptr;
};

}  // namespace rtsp
