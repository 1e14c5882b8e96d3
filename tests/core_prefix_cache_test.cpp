// Differential tests for the incremental evaluation engine: every metrics()
// and is_valid() answer must equal the ground truth computed by the full
// Validator replay and schedule_cost re-sum, on valid candidates, broken
// candidates (injected capacity violations, bad sources, wrong end states)
// and across adoptions that shift the base schedule under the prefix cache.
#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/incremental.hpp"
#include "core/validator.hpp"
#include "heuristics/op1.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/surgery.hpp"
#include "test_helpers.hpp"

namespace rtsp {
namespace {

Instance make_instance(std::uint64_t trial) {
  RandomInstanceSpec spec;
  spec.servers = 8;
  spec.objects = 24;
  spec.max_replicas = 3;
  spec.capacity_slack = trial % 3 == 0 ? 0.5 : 0.0;
  Rng rng = Rng::for_trial(0xCAC4E, trial);
  return random_instance(spec, rng);
}

Schedule seed_schedule(const Instance& inst, std::uint64_t trial) {
  Rng rng = Rng::for_trial(0x5EED, trial);
  return make_pipeline("GOLCF").run(inst.model, inst.x_old, inst.x_new, rng);
}

/// Ground truth for one candidate against one evaluator.
void expect_matches_full_evaluation(const IncrementalEvaluator& eval,
                                    const Schedule& cand, const Instance& inst,
                                    std::size_t prefix_hint, std::size_t suffix_hint) {
  const auto m = eval.metrics(cand, prefix_hint, suffix_hint);
  EXPECT_EQ(m.cost, schedule_cost(inst.model, cand));
  EXPECT_EQ(m.dummy_transfers, cand.dummy_transfer_count());
  IncrementalEvaluator::Scratch scratch(inst.model, inst.x_old);
  EXPECT_EQ(eval.is_valid(cand, m, scratch),
            Validator::is_valid(inst.model, inst.x_old, inst.x_new, cand));
}

/// The engine's position index must equal one built from scratch.
void expect_index_matches(const IncrementalEvaluator& eval) {
  const PositionIndex fresh(eval.model().num_servers(), eval.model().num_objects(),
                            eval.schedule());
  for (ServerId i = 0; i < eval.model().num_servers(); ++i) {
    EXPECT_EQ(eval.positions().of_server(i), fresh.of_server(i)) << "server " << i;
  }
  for (ObjectId k = 0; k < eval.model().num_objects(); ++k) {
    EXPECT_EQ(eval.positions().of_object(k), fresh.of_object(k)) << "object " << k;
  }
}

/// One random structure-preserving or structure-breaking edit. Returns the
/// sound (prefix, suffix) hints for it.
std::pair<std::size_t, std::size_t> mutate(Schedule& cand, const SystemModel& model,
                                           Rng& rng) {
  const std::size_t size = cand.size();
  switch (rng.below(5)) {
    case 0: {  // move an action earlier (what OP1/H1 do)
      const std::size_t from = rng.below(size);
      const std::size_t to = rng.below(from + 1);
      move_action_earlier(cand, from, to);
      return {to, size - from - 1};
    }
    case 1: {  // re-source a transfer, possibly to a nonsense server
      const std::size_t p = rng.below(size);
      if (cand[p].is_transfer()) {
        cand[p].source = rng.chance(0.2)
                             ? kDummyServer
                             : static_cast<ServerId>(rng.below(model.num_servers()));
      }
      return {p, size - p - 1};
    }
    case 2: {  // duplicate an action (changes length; often breaks capacity)
      const std::size_t p = rng.below(size);
      const std::size_t at = rng.below(size + 1);
      const Action a = cand[p];
      cand.insert(at, a);
      return {std::min(at, p), 0};
    }
    case 3: {  // drop an action (often leaves the wrong final state)
      const std::size_t p = rng.below(size);
      cand.erase(p);
      return {p, size - p - 1};
    }
    default: {  // inject a capacity violation: duplicate transfers up front
      const std::size_t copies = 1 + rng.below(3);
      for (std::size_t c = 0; c < copies; ++c) {
        const std::size_t p = rng.below(cand.size());
        if (cand[p].is_transfer()) cand.insert(0, cand[p]);
      }
      return {0, 0};
    }
  }
}

TEST(PrefixStateCache, MatchesDirectSimulationAtEveryPosition) {
  const Instance inst = make_instance(1);
  const Schedule h = seed_schedule(inst, 1);
  PrefixStateCache cache(inst.model, inst.x_old, h);
  EXPECT_GE(cache.spacing(), 1u);
  ExecutionState state(inst.model, inst.x_old);
  for (std::size_t pos = 0; pos <= h.size(); pos += 7) {
    cache.state_before(h, pos, state);
    const ExecutionState direct =
        simulate_prefix_lenient(inst.model, inst.x_old, h, pos);
    EXPECT_EQ(state.placement(), direct.placement()) << "pos " << pos;
  }
}

TEST(IncrementalEvaluator, SummaryMatchesFullEvaluationOnSeedSchedules) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const Instance inst = make_instance(trial);
    const Schedule h = seed_schedule(inst, trial);
    IncrementalEvaluator eval(inst.model, inst.x_old, inst.x_new, h);
    EXPECT_EQ(eval.cost(), schedule_cost(inst.model, h));
    EXPECT_EQ(eval.dummy_transfers(), h.dummy_transfer_count());
    EXPECT_EQ(eval.base_valid(),
              Validator::is_valid(inst.model, inst.x_old, inst.x_new, h));
  }
}

TEST(IncrementalEvaluator, DifferentialAgainstValidatorAcrossSeededMutations) {
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const Instance inst = make_instance(trial);
    IncrementalEvaluator eval(inst.model, inst.x_old, inst.x_new,
                              seed_schedule(inst, trial));
    Rng rng = Rng::for_trial(0xD1FF, trial);
    for (int round = 0; round < 40; ++round) {
      Schedule cand = eval.schedule();
      const auto [prefix_hint, suffix_hint] = mutate(cand, inst.model, rng);
      // Identical answers with tight hints, loose hints, and no hints.
      expect_matches_full_evaluation(eval, cand, inst, prefix_hint, suffix_hint);
      expect_matches_full_evaluation(eval, cand, inst, prefix_hint / 2,
                                     suffix_hint / 2);
      expect_matches_full_evaluation(eval, cand, inst, 0, 0);

      // Occasionally adopt a valid candidate so later rounds run against a
      // refreshed prefix cache and updated summary.
      const auto m = eval.metrics(cand, prefix_hint, suffix_hint);
      if (eval.is_valid(cand, m) && rng.chance(0.5)) {
        eval.adopt(std::move(cand), m);
        EXPECT_EQ(eval.cost(), schedule_cost(inst.model, eval.schedule()));
        EXPECT_EQ(eval.dummy_transfers(), eval.schedule().dummy_transfer_count());
        EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, inst.x_new,
                                        eval.schedule()));
        expect_index_matches(eval);
      }
    }
  }
}

TEST(IncrementalEvaluator, PositionIndexFollowsImproverAdoptsAndResets) {
  // H2 adopts candidates two actions longer than the base, so the index must
  // shift every later position; OP1 and H1 adopts are length-preserving.
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const Instance inst = make_instance(trial);
    const Schedule start = seed_schedule(inst, trial);
    IncrementalEvaluator eval(inst.model, inst.x_old, inst.x_new, start);
    expect_index_matches(eval);
    Rng rng(trial);
    const Pipeline chain = make_pipeline("GOLCF+H1+H2+OP1");
    for (const auto& improver : chain.improvers()) {
      improver->improve_incremental(eval, rng);
      expect_index_matches(eval);
    }
    eval.reset(start);
    expect_index_matches(eval);
  }
}

TEST(IncrementalEvaluator, HandlesInvalidBaseByFullFallback) {
  const Instance inst = make_instance(3);
  Schedule h = seed_schedule(inst, 3);
  Schedule valid = h;
  h.erase(h.size() / 2);  // wrong final state: base_valid() must be false
  IncrementalEvaluator eval(inst.model, inst.x_old, inst.x_new, h);
  EXPECT_FALSE(eval.base_valid());
  expect_matches_full_evaluation(eval, valid, inst, 0, 0);
  expect_matches_full_evaluation(eval, h, inst, 0, 0);
}

TEST(Op1ParallelScreen, ProducesByteIdenticalSchedules) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const Instance inst = make_instance(trial);
    Rng build_rng = Rng::for_trial(0xA0B1, trial);
    const Schedule start =
        make_pipeline("GOLCF+H1+H2").run(inst.model, inst.x_old, inst.x_new,
                                         build_rng);

    Op1Options sequential;
    Op1Options parallel;
    parallel.parallel_screen = true;
    parallel.threads = 4;
    for (const auto restart :
         {Op1Options::Restart::FromStart, Op1Options::Restart::Continue}) {
      sequential.restart = restart;
      parallel.restart = restart;
      Rng rng_seq(1);
      Rng rng_par(1);
      const Schedule a = Op1Improver(sequential)
                             .improve(inst.model, inst.x_old, inst.x_new, start,
                                      rng_seq);
      const Schedule b = Op1Improver(parallel)
                             .improve(inst.model, inst.x_old, inst.x_new, start,
                                      rng_par);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t p = 0; p < a.size(); ++p) {
        EXPECT_EQ(a[p], b[p]) << "trial " << trial << " position " << p;
      }
      EXPECT_EQ(schedule_cost(inst.model, a), schedule_cost(inst.model, b));
    }
  }
}

}  // namespace
}  // namespace rtsp
