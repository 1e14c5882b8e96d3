#include "heuristics/h2.hpp"

#include <algorithm>
#include <optional>

#include "obs/obs.hpp"

namespace rtsp {

namespace {

class H2Run {
 public:
  H2Run(IncrementalEvaluator& eval, const H2Options& options)
      : eval_(eval),
        model_(eval.model()),
        options_(options),
        prefix_state_(eval.model(), eval.x_old()) {}

  void run() {
    for (int pass = 0; pass < options_.max_passes; ++pass) {
      OBS_SPAN("h2.pass", "pass=" + std::to_string(pass));
      prov::note_pass(pass);
      bool changed = false;
      bool restart = false;
      std::size_t u = 0;
      while (u < eval_.schedule().size()) {
        if (eval_.schedule()[u].is_dummy_transfer()) {
          // Anytime budget poll (deterministic stop point: per candidate).
          if (eval_.out_of_budget()) return;
          if (auto touched_tail = try_restore_at(u)) {
            changed = true;
            if (*touched_tail) {
              restart = true;  // positions after u changed; rescan
              break;
            }
            // Two actions were inserted at or before u+2; the next
            // unscanned action now sits at u+3.
            u += 3;
            continue;
          }
        }
        ++u;
      }
      if (!changed && !restart) break;
    }
  }

 private:
  /// Attempts the rewrite; on success the candidate is adopted into the
  /// engine and the return value says whether positions after `u` changed.
  std::optional<bool> try_restore_at(std::size_t u) {
    const Schedule& h = eval_.schedule();
    const ServerId dest = h[u].server;  // the paper's S_i'
    const ObjectId k = h[u].object;
    const std::size_t d_pos = preceding_deletion(eval_, u, k);
    if (d_pos == npos) return std::nullopt;
    const ServerId deleter = h[d_pos].server;  // the paper's S_i''

    // Host candidates ranked by the added transfer cost
    // s(O_k) * (l_{host,deleter} + l_{dest,host}).
    eval_.state_before(d_pos, prefix_state_);
    const ExecutionState& st = prefix_state_;
    struct Candidate {
      ServerId host;
      Cost added_cost;
      bool has_space;
    };
    std::vector<Candidate> candidates;
    for (ServerId host = 0; host < model_.num_servers(); ++host) {
      if (host == dest || host == deleter || st.holds(host, k)) continue;
      const Cost added = model_.object_size(k) * (model_.costs().at(host, deleter) +
                                                  model_.costs().at(dest, host));
      const bool space = st.free_space(host) >= model_.object_size(k);
      candidates.push_back({host, added, space});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.added_cost < b.added_cost;
                     });

    // Direct path: hosts that already have room at d_pos. The rewrite only
    // inserts actions at or before u+2.
    for (const Candidate& c : candidates) {
      if (c.has_space && try_pair({u, d_pos, c.host})) return false;
    }

    // Fallback: create room on a host by pulling its later deletions of
    // superfluous replicas forward (the validity check plus the strict
    // dummy-count gate enforce the paper's "one replica must survive per
    // object" condition). Pulls may move actions after u.
    std::size_t tried = 0;
    for (const Candidate& c : candidates) {
      if (c.has_space) continue;
      if (tried++ >= options_.max_fallback_hosts) break;
      if (try_pair({u, d_pos, c.host})) return true;
    }
    return std::nullopt;
  }

  /// Screens, builds and gates one pair; adopts it when it passes.
  /// "h2.candidates" counts every pair whose rewrite H2 builds or that the
  /// screen rejects after making room, exactly the pairs that reach the
  /// dummy-count gate without the screen.
  bool try_pair(const H2Pair& pair) {
    switch (h2_screen(eval_, prefix_state_, pair)) {
      case RelocationVerdict::kNoRoom: return false;
      case RelocationVerdict::kRejected: OBS_COUNT("h2.candidates"); return false;
      case RelocationVerdict::kOpen: break;
    }
    const auto m = h2_candidate(eval_, prefix_state_, pair, cand_);
    if (!m) return false;
    OBS_COUNT("h2.candidates");
    if (m->dummy_transfers >= eval_.dummy_transfers()) return false;
    if (!eval_.is_valid(cand_, *m)) return false;
    OBS_COUNT("h2.adopted");
    eval_.adopt(std::move(cand_), *m);
    return true;
  }

  IncrementalEvaluator& eval_;
  const SystemModel& model_;
  const H2Options& options_;
  ExecutionState prefix_state_;
  Schedule cand_;  ///< candidate buffer, reused across attempts
};

}  // namespace

RelocationVerdict h2_screen(const IncrementalEvaluator& eval, const ExecutionState& before,
                            const H2Pair& pair) {
  const Schedule& h = eval.schedule();
  // The host's copy replaces the dummy at pair.dummy; pulls may reach the
  // end of the schedule, and readers left without a holder become dummies.
  return screen_relocation(eval, before,
                           Relocation{pair.host, h[pair.dummy].object, pair.deletion,
                                      pair.dummy, h.size(),
                                      OrphanPolicy::NearestElseDummy});
}

std::optional<IncrementalEvaluator::Metrics> h2_candidate(const IncrementalEvaluator& eval,
                                                          const ExecutionState& before,
                                                          const H2Pair& pair, Schedule& cand) {
  const SystemModel& model = eval.model();
  const Schedule& h = eval.schedule();
  const std::size_t u = pair.dummy;
  const std::size_t d_pos = pair.deletion;
  const ServerId dest = h[u].server;
  const ObjectId k = h[u].object;
  cand = h;
  cand.insert(d_pos, Action::transfer(pair.host, k, h[d_pos].server));
  if (before.free_space(pair.host) >= model.object_size(k)) {
    // Everything from d_pos on shifted one right; the dummy sits at u+1.
    cand[u + 1] = Action::transfer(dest, k, pair.host);
    cand.insert(u + 2, Action::remove(pair.host, k));
    // Untouched: the prefix [0, d_pos) and everything past the inserted
    // removal (the candidate is 2 actions longer than the base).
    return eval.metrics(cand, d_pos, cand.size() - (u + 3));
  }
  // `before` is the state before d_pos, which is exactly the state before
  // the just-inserted transfer.
  const auto repair = pull_deletions_for_space(model, eval.x_old(), cand, d_pos,
                                               cand.size() - 1,
                                               OrphanPolicy::NearestElseDummy,
                                               /*touched=*/nullptr, &before);
  if (!repair.ok) return std::nullopt;
  // Pulls may have shifted the dummy transfer; locate it again.
  std::size_t dummy_pos = npos;
  for (std::size_t p = repair.t_pos + 1; p < cand.size(); ++p) {
    const Action& a = cand[p];
    if (a.is_dummy_transfer() && a.server == dest && a.object == k) {
      dummy_pos = p;
      break;
    }
  }
  if (dummy_pos == npos) return std::nullopt;
  cand[dummy_pos] = Action::transfer(dest, k, pair.host);
  cand.insert(dummy_pos + 1, Action::remove(pair.host, k));
  return eval.metrics(cand, d_pos, 0);
}

Schedule H2Improver::improve(const SystemModel& model, const ReplicationMatrix& x_old,
                             const ReplicationMatrix& x_new, Schedule schedule,
                             Rng& rng) const {
  IncrementalEvaluator eval(model, x_old, x_new, std::move(schedule));
  improve_incremental(eval, rng);
  return eval.take_schedule();
}

void H2Improver::improve_incremental(IncrementalEvaluator& eval, Rng& /*rng*/) const {
  const prov::StageScope stage(prov::StageKind::Improver, name());
  H2Run(eval, options_).run();
}

}  // namespace rtsp
