#include "heuristics/op1.hpp"

#include <algorithm>
#include <optional>

#include "core/cost_model.hpp"
#include "heuristics/surgery.hpp"
#include "obs/obs.hpp"
#include "support/thread_pool.hpp"

namespace rtsp {

namespace {

class Op1Run {
 public:
  Op1Run(IncrementalEvaluator& eval, const Op1Options& options)
      : eval_(eval),
        model_(eval.model()),
        x_old_(eval.x_old()),
        options_(options) {}

  void run() {
    const Schedule& h = eval_.schedule();
    for (ObjectId k = 0; k < model_.num_objects(); ++k) {
      const auto& events = eval_.positions().of_object(k);
      const auto transfers = std::count_if(events.begin(), events.end(),
                                           [&](std::size_t p) { return h[p].is_transfer(); });
      if (transfers >= 2) round_objects_.push_back(k);
    }
    if (round_objects_.empty()) return;

    // OP1 edits only move actions and change transfer sources, so every
    // object's transfer count — and therefore the round list — is invariant
    // for the whole run.
    std::optional<ThreadPool> pool;
    if (options_.parallel_screen) pool.emplace(options_.threads);
    const std::size_t wave = pool ? std::max<std::size_t>(2 * pool->size(), 1) : 1;
    std::vector<Slot> slots;
    slots.reserve(wave);
    for (std::size_t w = 0; w < wave; ++w) slots.emplace_back(model_, x_old_);

    std::size_t changes = 0;
    std::size_t round = 0;
    ObjectId resume_object = round_objects_.front();
    while (true) {
      OBS_SPAN("op1.round", "round=" + std::to_string(round));
      prov::note_round(static_cast<int>(round));
      ++round;
      std::size_t start = 0;
      if (options_.restart == Op1Options::Restart::Continue) {
        // Resume at the object adopted last round. Identified by ObjectId,
        // not list index, so the cursor cannot go stale even if the round
        // list were ever recomputed.
        const auto it = std::lower_bound(round_objects_.begin(), round_objects_.end(),
                                         resume_object);
        if (it != round_objects_.end()) {
          start = static_cast<std::size_t>(it - round_objects_.begin());
        }
      }
      bool adopted = false;
      bool budget_hit = false;
      for (std::size_t step = 0; step < round_objects_.size() && !adopted;) {
        // Anytime budget poll between waves: a wave always screens to
        // completion, so in tick mode the stop point is deterministic for a
        // fixed wave size (OP1 serial; OP1P's depends on the worker count).
        if (eval_.out_of_budget()) {
          budget_hit = true;
          break;
        }
        const std::size_t n = std::min(wave, round_objects_.size() - step);
        // Screening has no side effects on the engine, so the wave's
        // candidates are all computed against the same base; adopting the
        // earliest hit in scan order reproduces the sequential run exactly.
        const auto screen_slot = [&](std::size_t w) {
          const std::size_t idx = (start + step + w) % round_objects_.size();
          slots[w].found = screen_object(round_objects_[idx], slots[w]);
        };
        if (pool && n > 1) {
          parallel_for(*pool, n, screen_slot);
        } else {
          for (std::size_t w = 0; w < n; ++w) screen_slot(w);
        }
        for (std::size_t w = 0; w < n; ++w) {
          if (!slots[w].found) continue;
          const std::size_t idx = (start + step + w) % round_objects_.size();
          OBS_COUNT("op1.adopted");
          eval_.adopt(slots[w].cand, slots[w].m);  // copy; the slot buffer stays warm
          resume_object = round_objects_[idx];
          adopted = true;
          break;
        }
        step += n;
      }
      if (!adopted || budget_hit) break;
      if (options_.max_changes != 0 && ++changes >= options_.max_changes) break;
    }
  }

 private:
  /// Per-worker buffers: everything a screen needs so concurrent screens
  /// share only the const engine.
  struct Slot {
    Slot(const SystemModel& model, const ReplicationMatrix& x_old)
        : prefix_state(model, x_old),
          eval_scratch(model, x_old),
          holds(model.num_servers(), 0) {}
    ExecutionState prefix_state;
    IncrementalEvaluator::Scratch eval_scratch;
    std::vector<char> holds;
    std::vector<std::size_t> transfers;  ///< positions of the screened object's transfers
    Schedule cand;
    IncrementalEvaluator::Metrics m;
    bool found = false;
  };

  /// First improving pair for object `k`, in the same (a, b) scan order as
  /// the original sequential implementation. On success the candidate and
  /// its metrics are left in `s`. Const against the engine: safe to run for
  /// several objects concurrently with distinct slots.
  bool screen_object(ObjectId k, Slot& s) const {
    const Schedule& h = eval_.schedule();
    std::vector<std::size_t>& positions = s.transfers;
    positions.clear();
    for (std::size_t p : eval_.positions().of_object(k)) {
      if (h[p].is_transfer()) positions.push_back(p);
    }
    for (std::size_t a = 0; a + 1 < positions.size(); ++a) {
      for (std::size_t b = a + 1; b < positions.size(); ++b) {
        const std::size_t u = positions[a];
        const std::size_t v = positions[b];
        OBS_COUNT("op1.candidates");
        if (options_.prescreen && estimate_delta(h, k, u, v, positions, s.holds) >= 0) {
          OBS_COUNT("op1.prescreen_rejects");
          continue;
        }
        EditWindow touched;
        if (!build_candidate(h, u, v, s, touched)) continue;
        const auto m = eval_.metrics(s.cand, touched.lo, s.cand.size() - touched.hi);
        if (m.cost >= eval_.cost()) continue;
        if (!eval_.is_valid(s.cand, m, s.eval_scratch)) continue;
        s.m = m;
        return true;
      }
    }
    return false;
  }

  /// Optimistic cost change of moving v's transfer before u (negative =
  /// potentially improving). Capacity penalties are ignored here; the exact
  /// candidate cost decides adoption. O(|k's actions|) via the position
  /// index instead of a full-schedule scan.
  Cost estimate_delta(const Schedule& h, ObjectId k, std::size_t u, std::size_t v,
                      const std::vector<std::size_t>& transfers,
                      std::vector<char>& holds) const {
    const ServerId i = h[v].server;
    if (h[u].server == i) return 0;

    // Replicators of k just before position u: replay only k's actions.
    std::fill(holds.begin(), holds.end(), 0);
    x_old_.for_each_replicator(k, [&](ServerId s) { holds[s] = 1; });
    for (std::size_t p : eval_.positions().of_object(k)) {
      if (p >= u) break;
      const Action& a = h[p];
      holds[a.server] = a.is_transfer() ? 1 : 0;
    }
    LinkCost new_src = model_.dummy_link_cost();
    for (ServerId s : model_.neighbors_by_cost(i)) {
      if (holds[s]) {
        new_src = model_.costs().at(i, s);
        break;
      }
    }
    const LinkCost old_src = model_.source_link_cost(i, h[v].source);
    const Size size = model_.object_size(k);
    Cost delta = size * (new_src - old_src);
    for (std::size_t w : transfers) {
      if (w < u || w == v) continue;
      const ServerId d = h[w].server;
      if (d == i) continue;
      const LinkCost cur = model_.source_link_cost(d, h[w].source);
      const LinkCost via_i = model_.costs().at(d, i);
      if (via_i < cur) delta -= size * (cur - via_i);
    }
    return delta;
  }

  /// Mechanically constructs the paper's H' in s.cand: move v's transfer
  /// before u's enabling deletion run, re-source it, repair capacity (cases
  /// iii/iv) and re-source the object's later transfers that benefit.
  /// Returns false when the capacity repair fails; validity is checked by
  /// the caller. All mutations lie in [insert_point, v]; positions past v
  /// still match the base, so the tail scans walk the position index.
  bool build_candidate(const Schedule& h, std::size_t u, std::size_t v, Slot& s,
                       EditWindow& touched) const {
    const ServerId i = h[v].server;
    const ObjectId k = h[v].object;
    if (h[u].server == i) return false;

    // u's enabling deletions: the contiguous run of deletions on S_i'
    // immediately before u (the paper's D_i'k1..kn).
    std::size_t insert_point = u;
    while (insert_point > 0 && h[insert_point - 1].is_delete() &&
           h[insert_point - 1].server == h[u].server) {
      --insert_point;
    }

    s.cand = h;
    move_action_earlier(s.cand, v, insert_point, &touched);
    std::size_t t_pos = insert_point;

    // Re-source the moved transfer to the nearest replicator at its new
    // position (the paper's T_ikN(i,k,X^u)). The prefix [0, t_pos) equals
    // the base's, so the state comes from the engine's checkpoint cache.
    eval_.state_before(t_pos, s.prefix_state);
    {
      const auto nearest = model_.nearest_replicator(i, k, s.prefix_state.placement());
      s.cand[t_pos].source = nearest ? *nearest : kDummyServer;
    }

    // Cases (iii)/(iv): make room at S_i by pulling its deletions forward,
    // re-sourcing any orphaned readers to their nearest alternative.
    const auto repair =
        pull_deletions_for_space(model_, x_old_, s.cand, t_pos, v,
                                 OrphanPolicy::NearestElseDummy, &touched,
                                 &s.prefix_state);
    if (!repair.ok) return false;
    t_pos = repair.t_pos;

    // Later transfers of k switch to the new early replica when cheaper —
    // but only while S_i still holds k (a later deletion of (i, k) bounds
    // the window; H2's temporary replicas make this reachable). The mutated
    // region ends at v; beyond it cand == base, so the index takes over.
    std::size_t bound = s.cand.size();
    for (std::size_t p = t_pos + 1; p <= v && p < s.cand.size(); ++p) {
      const Action& a = s.cand[p];
      if (a.is_delete() && a.server == i && a.object == k) {
        bound = p;
        break;
      }
    }
    if (bound == s.cand.size()) {
      for (std::size_t p : eval_.positions().of_object(k)) {
        if (p <= v) continue;
        if (h[p].is_delete() && h[p].server == i) {
          bound = p;
          break;
        }
      }
    }
    const auto resource = [&](std::size_t p) {
      Action& a = s.cand[p];
      if (!a.is_transfer() || a.server == i) return;
      const LinkCost cur = model_.source_link_cost(a.server, a.source);
      const LinkCost via_i = model_.costs().at(a.server, i);
      if (via_i < cur) {
        a.source = i;
        touched.note(p);
      }
    };
    for (std::size_t p = t_pos + 1; p < bound && p <= v; ++p) {
      if (s.cand[p].object == k) resource(p);
    }
    for (std::size_t p : eval_.positions().of_object(k)) {
      if (p <= v) continue;
      if (p >= bound) break;
      resource(p);
    }
    return true;
  }

  IncrementalEvaluator& eval_;
  const SystemModel& model_;
  const ReplicationMatrix& x_old_;
  const Op1Options& options_;

  std::vector<ObjectId> round_objects_;  ///< objects with >= 2 transfers
};

}  // namespace

Schedule Op1Improver::improve(const SystemModel& model, const ReplicationMatrix& x_old,
                              const ReplicationMatrix& x_new, Schedule schedule,
                              Rng& rng) const {
  IncrementalEvaluator eval(model, x_old, x_new, std::move(schedule));
  improve_incremental(eval, rng);
  return eval.take_schedule();
}

void Op1Improver::improve_incremental(IncrementalEvaluator& eval, Rng& /*rng*/) const {
  // Both the sequential and parallel-screen variants adopt on this thread in
  // scan order, so the recorded provenance is identical for OP1 and OP1P.
  const prov::StageScope stage(prov::StageKind::Improver, name());
  Op1Run(eval, options_).run();
}

}  // namespace rtsp
