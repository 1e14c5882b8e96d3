// H1 — restore dummy transfers by moving them before a deletion of the same
// object (Sec. 4.1).
//
// For each dummy transfer T_ikd (left to right) the schedule is rewritten so
// the transfer runs just before the nearest preceding deletion D_jk, sourced
// from the deleting server (case i). Capacity violations at S_i are repaired
// by pulling S_i's standalone deletions forward (case ii); if that is not
// enough, deletions whose replicas are still read are pulled too and the
// orphaned readers become dummy transfers that H1 recursively tries to
// restore (case iii / the paper's H'' fallback). A rewrite is kept only when
// it validates and strictly reduces the schedule's dummy-transfer count;
// otherwise the original schedule is kept (the paper's backtracking).
#pragma once

#include "heuristics/scheduler.hpp"
#include "heuristics/surgery.hpp"

namespace rtsp {

struct H1Options {
  /// Paper behaviour: re-source the moved transfer to the deleting server.
  /// When true, use the cheapest replicator at the insertion point instead
  /// (never worse; benchmarked by bench/ablation_h1_resource).
  bool resource_nearest = false;
  /// Bound on the case-(iii) recursion depth.
  int max_recursion_depth = 16;
  /// Safety cap on restart passes over the schedule.
  int max_passes = 64;
};

/// Screens H1's rewrite of the dummy transfer at base position `dummy`
/// from its destination's own events (screen_relocation): kNoRoom and
/// kRejected prove that h1_candidate's rewrite is not adopted. kNoRoom also
/// covers dummies with no rewrite at all. `scratch` receives the engine's
/// state before the preceding deletion.
RelocationVerdict h1_screen(const IncrementalEvaluator& eval, std::size_t dummy,
                            ExecutionState& scratch);

/// Builds H1's rewrite of the dummy transfer at base position `dummy` into
/// `cand`, noting the positions it touched; false when no rewrite exists.
/// H1 adopts the rewrite iff it has fewer dummy transfers than the base and
/// the engine's is_valid accepts it.
bool h1_candidate(const IncrementalEvaluator& eval, std::size_t dummy,
                  const H1Options& options, Schedule& cand, EditWindow& touched);

class H1Improver final : public ScheduleImprover {
 public:
  explicit H1Improver(H1Options options = {}) : options_(options) {}
  std::string name() const override { return "H1"; }
  Schedule improve(const SystemModel& model, const ReplicationMatrix& x_old,
                   const ReplicationMatrix& x_new, Schedule schedule,
                   Rng& rng) const override;
  void improve_incremental(IncrementalEvaluator& eval, Rng& rng) const override;

 private:
  H1Options options_;
};

}  // namespace rtsp
