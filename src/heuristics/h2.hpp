// H2 — restore dummy transfers by creating temporary superfluous replicas
// (Sec. 4.1).
//
// For each dummy transfer T_i'kd, H2 finds the nearest preceding deletion
// D_i''k and injects a copy of O_k onto a spare server S_i immediately before
// that deletion; the dummy transfer is then re-sourced to S_i and the
// temporary replica deleted right after. When no server has free space, H2
// tries to create it by pulling forward later deletions of superfluous
// replicas, provided every object keeps at least one replica. Rewrites are
// kept only when they validate and strictly reduce the dummy count.
#pragma once

#include <optional>

#include "heuristics/scheduler.hpp"
#include "heuristics/surgery.hpp"

namespace rtsp {

/// One (dummy transfer, host) pair H2 considers: stage the dummy's object on
/// `host`, copied from the deleting server just before the base deletion at
/// `deletion`, and re-source the dummy at base position `dummy` to the host.
struct H2Pair {
  std::size_t dummy = 0;
  std::size_t deletion = 0;
  ServerId host = 0;
};

/// Screens a pair from the host's own events (screen_relocation): kNoRoom
/// and kRejected prove that h2_candidate's rewrite is not adopted.
/// `before` is the engine's state just before `pair.deletion`.
RelocationVerdict h2_screen(const IncrementalEvaluator& eval, const ExecutionState& before,
                            const H2Pair& pair);

/// Builds H2's rewrite of a pair into `cand` and scores it: the direct form
/// when the host has room before the deletion, else the fallback that pulls
/// the host's later deletions forward. nullopt when the fallback cannot make
/// room. H2 adopts the rewrite iff it has fewer dummy transfers than the base
/// and the engine's is_valid accepts it.
std::optional<IncrementalEvaluator::Metrics> h2_candidate(const IncrementalEvaluator& eval,
                                                          const ExecutionState& before,
                                                          const H2Pair& pair, Schedule& cand);

struct H2Options {
  /// Candidate hosts are ranked by added transfer cost; this caps how many
  /// are tried in the space-creating fallback (all are tried in the direct
  /// free-space path, which is cheap).
  std::size_t max_fallback_hosts = 4;
  /// Safety cap on restart passes.
  int max_passes = 64;
};

class H2Improver final : public ScheduleImprover {
 public:
  explicit H2Improver(H2Options options = {}) : options_(options) {}
  std::string name() const override { return "H2"; }
  Schedule improve(const SystemModel& model, const ReplicationMatrix& x_old,
                   const ReplicationMatrix& x_new, Schedule schedule,
                   Rng& rng) const override;
  void improve_incremental(IncrementalEvaluator& eval, Rng& rng) const override;

 private:
  H2Options options_;
};

}  // namespace rtsp
