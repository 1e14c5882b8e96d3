// Differential test of the host-event screen (screen_relocation via
// h1_screen / h2_screen) against the candidates H1 and H2 build.
//
// For every (dummy, host) pair H2 considers and every dummy H1 considers, on
// seeded equal-size, uniform-size and extra-capacity instances with 1-3
// replicas, the screen's verdict must agree with the candidate built by the
// improver's own code and judged by the incremental engine:
//   * kNoRoom   <=> the builder cannot make room (no candidate exists);
//   * kRejected  => the candidate exists but is not adopted (its dummy count
//                   does not drop, or the engine's is_valid rejects it);
//   * on H2's direct path (the host has room before the deletion) the screen
//     is exact: kOpen => the candidate is adopted.
// Bases are the schedules each improver actually sees in the flagship chain
// (after GOLCF, after H1) plus the chain's final output.
#include <gtest/gtest.h>

#include "core/incremental.hpp"
#include "heuristics/h1.hpp"
#include "heuristics/h2.hpp"
#include "heuristics/registry.hpp"
#include "workload/paper_setup.hpp"

namespace rtsp {
namespace {

enum class Kind { kEqual, kUniform, kExtra };

Instance make_instance(Kind kind, std::size_t replicas, std::uint64_t seed) {
  PaperSetup setup;
  setup.servers = 20;
  setup.objects = 160;
  Rng rng(seed);
  switch (kind) {
    case Kind::kEqual: return make_equal_size_instance(setup, replicas, rng);
    case Kind::kUniform: return make_uniform_size_instance(setup, replicas, rng);
    case Kind::kExtra: return make_extra_capacity_instance(setup, replicas, 6, rng);
  }
  return make_equal_size_instance(setup, replicas, rng);
}

struct Tally {
  std::size_t pairs = 0;
  std::size_t rejected = 0;
  std::size_t no_room = 0;
  std::size_t adopted = 0;
};

bool adopted(const IncrementalEvaluator& eval, const Schedule& cand,
             const IncrementalEvaluator::Metrics& m) {
  IncrementalEvaluator::Scratch scratch(eval.model(), eval.x_old());
  return m.dummy_transfers < eval.dummy_transfers() && eval.is_valid(cand, m, scratch);
}

void check_h1(const IncrementalEvaluator& eval, std::size_t u, Tally& tally,
              const std::string& where) {
  ExecutionState state(eval.model(), eval.x_old());
  const RelocationVerdict verdict = h1_screen(eval, u, state);
  Schedule cand;
  EditWindow touched;
  const bool built = h1_candidate(eval, u, H1Options{}, cand, touched);
  ++tally.pairs;
  ASSERT_EQ(built, verdict != RelocationVerdict::kNoRoom) << where;
  if (!built) {
    ++tally.no_room;
    return;
  }
  const auto m = eval.metrics(cand, touched.lo, cand.size() - touched.hi);
  const bool adopt = adopted(eval, cand, m);
  tally.adopted += adopt ? 1 : 0;
  if (verdict == RelocationVerdict::kRejected) {
    ++tally.rejected;
    EXPECT_FALSE(adopt) << where << ": screen rejected an adoptable H1 rewrite";
  }
}

void check_h2(const IncrementalEvaluator& eval, std::size_t u, Tally& tally,
              const std::string& where) {
  const Schedule& h = eval.schedule();
  const ServerId dest = h[u].server;
  const ObjectId k = h[u].object;
  const std::size_t d_pos = preceding_deletion(eval, u, k);
  if (d_pos == npos) return;
  ExecutionState before(eval.model(), eval.x_old());
  eval.state_before(d_pos, before);
  for (ServerId host = 0; host < eval.model().num_servers(); ++host) {
    if (host == dest || host == h[d_pos].server || before.holds(host, k)) continue;
    const H2Pair pair{u, d_pos, host};
    const std::string at = where + " host " + std::to_string(host);
    const RelocationVerdict verdict = h2_screen(eval, before, pair);
    Schedule cand;
    const auto m = h2_candidate(eval, before, pair, cand);
    ++tally.pairs;
    ASSERT_EQ(m.has_value(), verdict != RelocationVerdict::kNoRoom) << at;
    if (!m) {
      ++tally.no_room;
      continue;
    }
    const bool adopt = adopted(eval, cand, *m);
    tally.adopted += adopt ? 1 : 0;
    if (verdict == RelocationVerdict::kRejected) {
      ++tally.rejected;
      EXPECT_FALSE(adopt) << at << ": screen rejected an adoptable H2 rewrite";
    }
    if (before.free_space(host) >= eval.model().object_size(k)) {
      EXPECT_EQ(adopt, verdict == RelocationVerdict::kOpen)
          << at << ": the direct path must be decided exactly";
    }
  }
}

TEST(RelocationScreen, RejectionsImplyTheEngineRejects) {
  Tally h1;
  Tally h2;
  for (Kind kind : {Kind::kEqual, Kind::kUniform, Kind::kExtra}) {
    for (std::size_t replicas = 1; replicas <= 3; ++replicas) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const Instance inst = make_instance(kind, replicas, seed);
        Rng rng(seed);
        const Schedule built = make_pipeline("GOLCF").run(inst.model, inst.x_old,
                                                          inst.x_new, rng);
        // The schedules H1 and H2 see in the chain, and the chain's output.
        std::vector<Schedule> bases{built};
        bases.push_back(H1Improver().improve(inst.model, inst.x_old, inst.x_new,
                                             bases.back(), rng));
        bases.push_back(H2Improver().improve(inst.model, inst.x_old, inst.x_new,
                                             bases.back(), rng));
        for (std::size_t b = 0; b < bases.size(); ++b) {
          const IncrementalEvaluator eval(inst.model, inst.x_old, inst.x_new, bases[b]);
          ASSERT_TRUE(eval.base_valid());
          for (std::size_t u = 0; u < eval.schedule().size(); ++u) {
            if (!eval.schedule()[u].is_dummy_transfer()) continue;
            const std::string where = "kind " + std::to_string(static_cast<int>(kind)) +
                                      " r=" + std::to_string(replicas) + " seed " +
                                      std::to_string(seed) + " base " +
                                      std::to_string(b) + " dummy@" + std::to_string(u);
            check_h1(eval, u, h1, where);
            check_h2(eval, u, h2, where);
          }
        }
      }
    }
  }
  // The suite must exercise every verdict, or it proves nothing. (H1 pulls
  // from the whole window before its dummy, so on these instances it always
  // finds room; its kNoRoom mirror is still asserted pair by pair above.)
  EXPECT_GT(h1.rejected, 0u);
  EXPECT_GT(h1.adopted, 0u);
  EXPECT_GT(h2.rejected, 0u);
  EXPECT_GT(h2.no_room, 0u);
  EXPECT_GT(h2.adopted, 0u);
  std::printf("H1: %zu dummies, %zu rejected, %zu without room, %zu adoptable\n", h1.pairs,
              h1.rejected, h1.no_room, h1.adopted);
  std::printf("H2: %zu pairs, %zu rejected, %zu without room, %zu adoptable\n", h2.pairs,
              h2.rejected, h2.no_room, h2.adopted);
}

}  // namespace
}  // namespace rtsp
