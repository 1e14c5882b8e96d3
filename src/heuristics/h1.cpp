#include "heuristics/h1.hpp"

#include "obs/obs.hpp"

namespace rtsp {

namespace {

/// H1's rewrite of one dummy transfer, with the recursion of case (iii).
class H1Rewriter {
 public:
  H1Rewriter(const IncrementalEvaluator& eval, const H1Options& options)
      : eval_(eval),
        model_(eval.model()),
        x_old_(eval.x_old()),
        options_(options),
        prefix_state_(eval.model(), eval.x_old()) {}

  /// Moves the dummy transfer at `u` before the nearest preceding deletion
  /// of its object and repairs capacity. Mutates `cand`; may leave it
  /// invalid (the caller validates). Returns false when no move exists.
  bool restore_dummy(Schedule& cand, std::size_t u, int depth, EditWindow& touched) {
    if (depth >= options_.max_recursion_depth) return false;
    const ServerId i = cand[u].server;
    const ObjectId k = cand[u].object;

    const std::size_t d_pos = find_preceding_deletion(cand, u, k);
    if (d_pos == npos) return false;
    const ServerId j = cand[d_pos].server;
    if (j == i) return false;  // cannot source from the destination itself

    // While cand[0..d_pos) still matches the engine's base schedule (true
    // until an earlier edit is noted), the state there comes from the prefix
    // cache instead of an O(L) replay.
    const bool clean_prefix = touched.empty() || d_pos <= touched.lo;
    if (clean_prefix) eval_.state_before(d_pos, prefix_state_);

    ServerId src = j;
    if (options_.resource_nearest) {
      if (!clean_prefix) prefix_state_ = simulate_prefix_lenient(model_, x_old_, cand, d_pos);
      const auto nearest = model_.nearest_replicator(i, k, prefix_state_.placement());
      if (nearest) src = *nearest;
    }

    cand.erase(u);
    cand.insert(d_pos, Action::transfer(i, k, src));
    touched.note_range(d_pos, u + 1);
    // The displaced region [d_pos+1, u] now holds D_jk followed by the old
    // in-between sub-schedule; all pulls stay inside it.
    const auto repair = pull_deletions_for_space(
        model_, x_old_, cand, d_pos, u, OrphanPolicy::Dummy, &touched,
        clean_prefix || options_.resource_nearest ? &prefix_state_ : nullptr);
    if (!repair.ok) return false;

    // Case (iii): the repair may have orphaned readers into dummy
    // transfers; try to restore each one recursively (failure just leaves
    // it as a dummy — the caller's strict-improvement gate decides).
    for (const Action& signature : repair.new_dummies) {
      const std::size_t pos = find_dummy(cand, signature);
      if (pos == npos) continue;  // already rewritten by a nested restore
      Schedule backup = cand;
      if (!restore_dummy(cand, pos, depth + 1, touched)) cand = std::move(backup);
    }
    return true;
  }

  /// The state restore_dummy keeps before the deletion it moves a dummy to.
  /// H1Run lends it to the screen as scratch: restore_dummy refills it
  /// before every use, so the run pays for one ExecutionState, not two.
  ExecutionState& prefix_state() { return prefix_state_; }

 private:
  static std::size_t find_dummy(const Schedule& h, const Action& signature) {
    for (std::size_t p = 0; p < h.size(); ++p) {
      const Action& a = h[p];
      if (a.is_dummy_transfer() && a.server == signature.server &&
          a.object == signature.object) {
        return p;
      }
    }
    return npos;
  }

  const IncrementalEvaluator& eval_;
  const SystemModel& model_;
  const ReplicationMatrix& x_old_;
  const H1Options& options_;
  ExecutionState prefix_state_;
};

class H1Run {
 public:
  H1Run(IncrementalEvaluator& eval, const H1Options& options)
      : eval_(eval), rewriter_(eval, options), options_(options) {}

  void run() {
    for (int pass = 0; pass < options_.max_passes; ++pass) {
      OBS_SPAN("h1.pass", "pass=" + std::to_string(pass));
      prov::note_pass(pass);
      bool changed = false;
      std::size_t u = 0;
      while (u < eval_.schedule().size()) {
        if (eval_.schedule()[u].is_dummy_transfer()) {
          // Anytime budget poll (deterministic stop point: per candidate).
          if (eval_.out_of_budget()) return;
          if (try_restore_at(u)) {
            // All mutations live at indices <= u, so the tail is intact and
            // the scan may simply continue.
            changed = true;
          }
        }
        ++u;
      }
      if (!changed) break;  // new dummies from case (iii) need another pass
    }
  }

 private:
  /// Transactional attempt: adopts the rewrite only when it validates and
  /// strictly reduces the dummy count. Rewrites the screen proves losing are
  /// never built.
  bool try_restore_at(std::size_t u) {
    OBS_COUNT("h1.candidates");
    if (h1_screen(eval_, u, rewriter_.prefix_state()) != RelocationVerdict::kOpen) {
      return false;
    }
    cand_ = eval_.schedule();
    EditWindow touched;
    if (!rewriter_.restore_dummy(cand_, u, 0, touched)) return false;
    const auto m = eval_.metrics(cand_, touched.lo, cand_.size() - touched.hi);
    if (m.dummy_transfers >= eval_.dummy_transfers()) return false;
    if (!eval_.is_valid(cand_, m)) return false;
    eval_.adopt(std::move(cand_), m);
    OBS_COUNT("h1.adopted");
    return true;
  }

  IncrementalEvaluator& eval_;
  H1Rewriter rewriter_;
  const H1Options& options_;
  Schedule cand_;  ///< candidate buffer, reused across attempts
};

}  // namespace

RelocationVerdict h1_screen(const IncrementalEvaluator& eval, std::size_t dummy,
                            ExecutionState& scratch) {
  const Schedule& h = eval.schedule();
  const ServerId i = h[dummy].server;
  const ObjectId k = h[dummy].object;
  const std::size_t d_pos = preceding_deletion(eval, dummy, k);
  // No rewrite exists (restore_dummy's own early exits).
  if (d_pos == npos || h[d_pos].server == i) return RelocationVerdict::kNoRoom;
  eval.state_before(d_pos, scratch);
  // The moved transfer replaces the dummy at `dummy`, and pulls stay in
  // between; orphaned readers become dummies that H1 tries to restore.
  return screen_relocation(eval, scratch,
                           Relocation{i, k, d_pos, dummy, dummy, OrphanPolicy::Dummy});
}

bool h1_candidate(const IncrementalEvaluator& eval, std::size_t dummy,
                  const H1Options& options, Schedule& cand, EditWindow& touched) {
  cand = eval.schedule();
  return H1Rewriter(eval, options).restore_dummy(cand, dummy, 0, touched);
}

Schedule H1Improver::improve(const SystemModel& model, const ReplicationMatrix& x_old,
                             const ReplicationMatrix& x_new, Schedule schedule,
                             Rng& rng) const {
  IncrementalEvaluator eval(model, x_old, x_new, std::move(schedule));
  improve_incremental(eval, rng);
  return eval.take_schedule();
}

void H1Improver::improve_incremental(IncrementalEvaluator& eval, Rng& /*rng*/) const {
  const prov::StageScope stage(prov::StageKind::Improver, name());
  H1Run(eval, options_).run();
}

}  // namespace rtsp
