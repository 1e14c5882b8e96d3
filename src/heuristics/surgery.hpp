// Schedule surgery: the low-level rewrites shared by the improvement
// heuristics H1, H2 and OP1 — moving actions earlier, approximating
// intermediate states, and pulling a destination's deletions forward to
// make room for a relocated transfer.
//
// All functions mutate candidate schedules that may be transiently invalid;
// callers gate acceptance on the full Validator (or, on hot paths, the
// incremental engine in core/incremental.hpp). Helpers report the positions
// they touch through an EditWindow so callers can hand the incremental
// engine a tight diff window instead of letting it rescan the schedule.
#pragma once

#include <cstddef>
#include <vector>

#include "core/incremental.hpp"
#include "core/schedule.hpp"
#include "core/state.hpp"

namespace rtsp {

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Accumulates the half-open range [lo, hi) of schedule positions touched by
/// a sequence of surgery operations. Positions are in the schedule's current
/// coordinates; all helpers here preserve the schedule's length, so noted
/// positions stay meaningful across calls. Callers that insert or erase
/// actions themselves must translate accordingly.
struct EditWindow {
  std::size_t lo = npos;
  std::size_t hi = 0;

  void note(std::size_t pos) { note_range(pos, pos + 1); }
  void note_range(std::size_t first, std::size_t last) {
    if (first < lo) lo = first;
    if (last > hi) hi = last;
  }
  bool empty() const { return lo == npos; }
};

/// Moves the action at index `from` to index `to` (to <= from); actions in
/// [to, from) shift one slot right. Notes [to, from+1) in `touched`.
void move_action_earlier(Schedule& h, std::size_t from, std::size_t to,
                         EditWindow* touched = nullptr);

/// Lenient execution state just before position `pos`, starting from x_old.
ExecutionState simulate_prefix_lenient(const SystemModel& model,
                                       const ReplicationMatrix& x_old,
                                       const Schedule& h, std::size_t pos);

/// Storage used on server `i` just before position `pos` under lenient
/// semantics. O(pos).
Size occupancy_before(const SystemModel& model, const ReplicationMatrix& x_old,
                      const Schedule& h, std::size_t pos, ServerId i);

/// How transfers orphaned by a pulled-forward deletion are re-sourced.
enum class OrphanPolicy {
  Dummy,             ///< H1: treat as new dummy transfers (paper's H'' trick)
  NearestElseDummy,  ///< OP1 case (iii): nearest replicator at that position
};

struct SpaceRepairResult {
  bool ok = false;        ///< destination can now host the transfer's object
  std::size_t t_pos = 0;  ///< final position of the transfer
  /// Transfers that were re-sourced to the dummy during the repair
  /// (signatures, not positions — positions shift under later surgery).
  std::vector<Action> new_dummies;
};

/// Makes room for the transfer at `t_pos` by moving deletions on its
/// destination server from positions in (t_pos, limit] to immediately before
/// it. Standalone deletions (no transfer in between reads the doomed
/// replica) are moved first, in schedule order (H1 case ii); if space is
/// still short, remaining deletions are moved and the transfers that read
/// them are re-sourced per `policy` (H1 case iii / OP1 cases iii-iv).
/// Deletions of the transfer's own object are never touched. All mutations
/// stay within [t_pos, limit]; indices outside are unaffected.
///
/// `state_at_t`, when given, must be the lenient execution state of
/// h[0..t_pos) — callers whose prefix still matches the improver's base
/// schedule obtain it from the incremental engine's prefix cache in
/// O(sqrt(L)) instead of this function's O(t_pos) rescan. Touched positions
/// are noted in `touched` (the relocated transfer's final slot is
/// result.t_pos; its drift is noted here too).
SpaceRepairResult pull_deletions_for_space(const SystemModel& model,
                                           const ReplicationMatrix& x_old, Schedule& h,
                                           std::size_t t_pos, std::size_t limit,
                                           OrphanPolicy policy,
                                           EditWindow* touched = nullptr,
                                           const ExecutionState* state_at_t = nullptr);

/// Index of the last deletion of `object` strictly before `pos`, or npos.
std::size_t find_preceding_deletion(const Schedule& h, std::size_t pos, ObjectId object);

/// find_preceding_deletion on the engine's base schedule, through its
/// per-object position index.
std::size_t preceding_deletion(const IncrementalEvaluator& eval, std::size_t pos,
                               ObjectId object);

/// A relocated transfer as H1 and H2 build it on the engine's base schedule:
/// a transfer of `object` onto `server` is inserted just before base
/// position `at` (a deletion of `object`), room for it is made by
/// pull_deletions_for_space over the server's deletions at base positions
/// in (at, pull_end), and the server's new replica stands in for the dummy
/// transfer at base position `until`, so from there on it no longer adds to
/// the server's usage. The server must not hold `object` just before `at`.
struct Relocation {
  ServerId server = 0;
  ObjectId object = 0;
  std::size_t at = 0;
  std::size_t until = 0;
  std::size_t pull_end = 0;
  OrphanPolicy policy = OrphanPolicy::Dummy;
};

enum class RelocationVerdict {
  kNoRoom,    ///< pull_deletions_for_space cannot make room for the transfer
  kRejected,  ///< the rewrite is built but cannot pass the improver's strict
              ///< dummy-count gate and the engine's is_valid
  kOpen,      ///< not decided here: build, score and validate the rewrite
};

/// Decides a relocation from the server's own events and the object index,
/// without copying the schedule. Re-derives which deletions
/// pull_deletions_for_space pulls and, under OrphanPolicy::NearestElseDummy,
/// whether every orphaned reader keeps another holder (else it becomes a new
/// dummy and the dummy count cannot drop). Then walks the server's free
/// space from the inserted transfer to `until`. Under OrphanPolicy::Dummy a
/// repair that needs non-standalone pulls is kOpen (H1 recurses on the
/// orphans). kRejected and kNoRoom are proofs, never guesses: see
/// DESIGN.md §8. `before` is the engine's state just before base position
/// `at`. O(server events × object events) in the worst case.
RelocationVerdict screen_relocation(const IncrementalEvaluator& eval,
                                    const ExecutionState& before, const Relocation& r);

}  // namespace rtsp
