#include "heuristics/surgery.hpp"

#include <algorithm>

namespace rtsp {

void move_action_earlier(Schedule& h, std::size_t from, std::size_t to,
                         EditWindow* touched) {
  RTSP_REQUIRE(from < h.size());
  RTSP_REQUIRE(to <= from);
  if (to == from) return;
  const Action a = h[from];
  auto& v = h.actions();
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(from));
  v.insert(v.begin() + static_cast<std::ptrdiff_t>(to), a);
  if (touched) touched->note_range(to, from + 1);
}

ExecutionState simulate_prefix_lenient(const SystemModel& model,
                                       const ReplicationMatrix& x_old,
                                       const Schedule& h, std::size_t pos) {
  RTSP_REQUIRE(pos <= h.size());
  ExecutionState state(model, x_old);
  for (std::size_t u = 0; u < pos; ++u) state.apply_lenient(h[u]);
  return state;
}

Size occupancy_before(const SystemModel& model, const ReplicationMatrix& x_old,
                      const Schedule& h, std::size_t pos, ServerId i) {
  RTSP_REQUIRE(pos <= h.size());
  // Track only the bits of server i: cheap and immune to unrelated
  // invalidity elsewhere in the candidate.
  std::vector<bool> held(model.num_objects());
  Size used = 0;
  for (ObjectId k : x_old.objects_on(i)) {
    held[k] = true;
    used += model.object_size(k);
  }
  for (std::size_t u = 0; u < pos; ++u) {
    const Action& a = h[u];
    if (a.server != i) continue;
    if (a.is_transfer() && !held[a.object]) {
      held[a.object] = true;
      used += model.object_size(a.object);
    } else if (a.is_delete() && held[a.object]) {
      held[a.object] = false;
      used -= model.object_size(a.object);
    }
  }
  return used;
}

std::size_t find_preceding_deletion(const Schedule& h, std::size_t pos, ObjectId object) {
  RTSP_REQUIRE(pos <= h.size());
  for (std::size_t p = pos; p > 0; --p) {
    const Action& a = h[p - 1];
    if (a.is_delete() && a.object == object) return p - 1;
  }
  return npos;
}

namespace {

/// Positions in (t_pos, deletion_pos) of transfers that read the replica a
/// pulled deletion would destroy.
std::vector<std::size_t> dependent_transfers(const Schedule& h, std::size_t t_pos,
                                             std::size_t deletion_pos, ServerId server,
                                             ObjectId object) {
  std::vector<std::size_t> deps;
  for (std::size_t q = t_pos + 1; q < deletion_pos; ++q) {
    const Action& a = h[q];
    if (a.is_transfer() && !is_dummy(a.source) && a.source == server &&
        a.object == object) {
      deps.push_back(q);
    }
  }
  return deps;
}

}  // namespace

SpaceRepairResult pull_deletions_for_space(const SystemModel& model,
                                           const ReplicationMatrix& x_old, Schedule& h,
                                           std::size_t t_pos, std::size_t limit,
                                           OrphanPolicy policy, EditWindow* touched,
                                           const ExecutionState* state_at_t) {
  RTSP_REQUIRE(t_pos < h.size());
  RTSP_REQUIRE(limit < h.size() && limit >= t_pos);
  RTSP_REQUIRE(h[t_pos].is_transfer());
  const ServerId dest = h[t_pos].server;
  const ObjectId object = h[t_pos].object;
  const Size needed = model.object_size(object);
  const std::size_t t_orig = t_pos;

  SpaceRepairResult result;

  // Holdings and occupancy of `dest` just before t_pos under lenient
  // semantics, computed once and maintained incrementally as deletions are
  // pulled (every pull of a held object frees its size; pulls of objects the
  // destination does not hold are lenient no-ops).
  std::vector<bool> held(model.num_objects(), false);
  Size used = 0;
  if (state_at_t) {
    for (ObjectId k = 0; k < model.num_objects(); ++k) {
      held[k] = state_at_t->holds(dest, k);
    }
    used = state_at_t->used(dest);
  } else {
    for (ObjectId k : x_old.objects_on(dest)) {
      held[k] = true;
      used += model.object_size(k);
    }
    for (std::size_t u = 0; u < t_pos; ++u) {
      const Action& a = h[u];
      if (a.server != dest) continue;
      if (a.is_transfer() && !held[a.object]) {
        held[a.object] = true;
        used += model.object_size(a.object);
      } else if (a.is_delete() && held[a.object]) {
        held[a.object] = false;
        used -= model.object_size(a.object);
      }
    }
  }

  // Phase 1 moves only standalone deletions (paper H1 case ii); phase 2 also
  // moves deletions whose replica is still read in between, re-sourcing the
  // readers (case iii).
  for (int phase = 0; phase < 2; ++phase) {
    while (model.capacity(dest) - used < needed) {
      // Next eligible deletion on the destination within (t_pos, limit].
      std::size_t p = npos;
      std::vector<std::size_t> deps;
      for (std::size_t q = t_pos + 1; q <= limit; ++q) {
        const Action& a = h[q];
        if (!a.is_delete() || a.server != dest || a.object == object) continue;
        deps = dependent_transfers(h, t_pos, q, dest, a.object);
        if (phase == 0 && !deps.empty()) continue;  // not standalone yet
        p = q;
        break;
      }
      if (p == npos) break;  // phase exhausted

      // Re-source the readers first (their positions are still valid).
      for (std::size_t q : deps) {
        Action& reader = h[q];
        ServerId new_src = kDummyServer;
        if (policy == OrphanPolicy::NearestElseDummy) {
          ExecutionState st =
              state_at_t ? *state_at_t
                         : simulate_prefix_lenient(model, x_old, h, t_orig);
          for (std::size_t u = t_orig; u < q; ++u) st.apply_lenient(h[u]);
          // The doomed replica is about to move before t_pos, so exclude it.
          ServerId best = kDummyServer;
          for (ServerId s : model.neighbors_by_cost(reader.server)) {
            if (s == dest) continue;
            if (st.holds(s, reader.object)) {
              best = s;
              break;
            }
          }
          new_src = best;
        }
        reader.source = new_src;
        if (touched) touched->note(q);
        if (is_dummy(new_src)) result.new_dummies.push_back(reader);
      }
      const ObjectId pulled = h[p].object;
      move_action_earlier(h, p, t_pos, touched);
      ++t_pos;  // the transfer shifted one slot right
      if (held[pulled]) {
        held[pulled] = false;
        used -= model.object_size(pulled);
      }
    }
    if (model.capacity(dest) - used >= needed) {
      result.ok = true;
      break;
    }
  }
  if (touched && t_pos != t_orig) touched->note_range(t_orig, t_pos + 1);
  result.t_pos = t_pos;
  return result;
}

std::size_t preceding_deletion(const IncrementalEvaluator& eval, std::size_t pos,
                               ObjectId object) {
  const Schedule& h = eval.schedule();
  const std::vector<std::size_t>& events = eval.positions().of_object(object);
  for (auto it = std::lower_bound(events.begin(), events.end(), pos);
       it != events.begin();) {
    --it;
    if (h[*it].is_delete()) return *it;
  }
  return npos;
}

RelocationVerdict screen_relocation(const IncrementalEvaluator& eval,
                                    const ExecutionState& before, const Relocation& r) {
  // Every argument below assumes the base replays strictly.
  if (!eval.base_valid()) return RelocationVerdict::kOpen;
  const SystemModel& model = eval.model();
  const Schedule& h = eval.schedule();
  const PositionIndex& index = eval.positions();
  const std::vector<std::size_t>& events = index.of_server(r.server);
  const auto first = std::upper_bound(events.begin(), events.end(), r.at);
  const auto pull_last = std::lower_bound(first, events.end(), r.pull_end);
  const Size needed = model.object_size(r.object);
  Size free = model.capacity(r.server) - before.used(r.server);

  // Mirror of pull_deletions_for_space's two phases. Standalone status is
  // fixed during phase 0 (nothing is re-sourced), and phase 1 only runs once
  // phase 0 has pulled every standalone deletion, so both phases pull in
  // base order and phase 1 takes exactly the deletions that have readers.
  std::vector<char> pulled(static_cast<std::size_t>(pull_last - first), 0);
  std::vector<ObjectId> pulled_objects;
  std::uint64_t work = 1;  // events visited, charged to the budget meter
  bool invalid = false;   // a pulled deletion finds no replica to delete
  bool orphaned = false;  // a reader of a pulled replica is left without a holder
  bool recursed = false;  // H1 turns the readers into dummies and recurses
  for (int phase = 0; phase < 2 && free < needed; ++phase) {
    for (auto it = first; it != pull_last && free < needed; ++it) {
      ++work;
      const Action& del = h[*it];
      if (!del.is_delete() || del.object == r.object) continue;
      const ObjectId x = del.object;
      bool has_readers = false;
      bool stranded = false;
      auto holders = static_cast<std::int64_t>(before.replica_count(x));
      for (std::size_t p : index.of_object(x)) {
        ++work;
        if (p >= *it) break;
        if (p < r.at) continue;
        const Action& a = h[p];
        if (a.is_transfer() && a.source == r.server) {
          has_readers = true;
          // Holders of x other than the server when this reader runs (the
          // server holds x then, since the base reads it there).
          if (holders <= 1) stranded = true;
        }
        holders += a.is_transfer() ? 1 : -1;
      }
      if (has_readers != (phase == 1)) continue;
      if (phase == 1) {
        if (r.policy == OrphanPolicy::Dummy) recursed = true;
        if (stranded) orphaned = true;
      }
      const bool held = before.holds(r.server, x) &&
                        std::find(pulled_objects.begin(), pulled_objects.end(), x) ==
                            pulled_objects.end();
      if (held) {
        free += model.object_size(x);
      } else {
        invalid = true;
      }
      pulled_objects.push_back(x);
      pulled[static_cast<std::size_t>(it - first)] = 1;
    }
  }
  const auto verdict = [&](RelocationVerdict v) {
    if (WorkMeter* meter = eval.meter()) meter->charge(work);
    return v;
  };
  if (free < needed) return verdict(RelocationVerdict::kNoRoom);
  if (recursed) return verdict(RelocationVerdict::kOpen);
  if (invalid || orphaned) return verdict(RelocationVerdict::kRejected);

  // Free space on the server from the inserted transfer up to `until`, as
  // the candidate's strict replay would see it if every earlier action in it
  // were valid. A transfer into the server that finds too little room (or
  // its own copy of `object`) therefore proves the candidate invalid.
  free -= needed;
  for (auto it = first; it != events.end() && *it < r.until; ++it) {
    ++work;
    const auto offset = static_cast<std::size_t>(it - first);
    if (offset < pulled.size() && pulled[offset]) continue;
    const Action& a = h[*it];
    const Size size = model.object_size(a.object);
    if (a.is_delete()) {
      free += size;
      continue;
    }
    if (a.object == r.object || free < size) return verdict(RelocationVerdict::kRejected);
    free -= size;
  }
  return verdict(RelocationVerdict::kOpen);
}

}  // namespace rtsp
