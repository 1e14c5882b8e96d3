#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/delta.hpp"
#include "test_helpers.hpp"

namespace rtsp {
namespace {

using testutil::matrix_model;

TEST(CostModel, ActionCosts) {
  const SystemModel m = matrix_model({9, 9, 9}, {5, 2},
                                     {{0, 3, 6}, {3, 0, 1}, {6, 1, 0}});
  EXPECT_EQ(action_cost(m, Action::remove(0, 0)), 0);
  EXPECT_EQ(action_cost(m, Action::transfer(0, 0, 1)), 5 * 3);
  EXPECT_EQ(action_cost(m, Action::transfer(2, 1, 1)), 2 * 1);
  EXPECT_EQ(action_cost(m, Action::transfer(1, 1, kDummyServer)), 2 * 7);  // 6+1
}

TEST(CostModel, ScheduleCostSumsTransfersOnly) {
  const SystemModel m = matrix_model({9, 9, 9}, {5, 2},
                                     {{0, 3, 6}, {3, 0, 1}, {6, 1, 0}});
  const Schedule h({Action::remove(0, 0), Action::transfer(0, 0, 1),
                    Action::transfer(1, 1, kDummyServer), Action::remove(2, 1)});
  EXPECT_EQ(schedule_cost(m, h), 15 + 14);
  EXPECT_EQ(dummy_transfer_cost(m, h), 14);
}

TEST(CostModel, EmptyScheduleIsFree) {
  const SystemModel m = matrix_model({1}, {1}, {{0}});
  EXPECT_EQ(schedule_cost(m, Schedule{}), 0);
}

TEST(PlacementDelta, SplitsOutstandingAndSuperfluous) {
  const auto x_old = ReplicationMatrix::from_pairs(3, 3, {{0, 0}, {0, 1}, {1, 2}});
  const auto x_new = ReplicationMatrix::from_pairs(3, 3, {{0, 1}, {2, 0}, {1, 2}});
  const PlacementDelta d(x_old, x_new);
  EXPECT_EQ(d.outstanding(), (std::vector<Replica>{{2, 0}}));
  EXPECT_EQ(d.superfluous(), (std::vector<Replica>{{0, 0}}));
  EXPECT_FALSE(d.empty());
}

TEST(PlacementDelta, IdenticalSchemesAreEmpty) {
  const auto x = ReplicationMatrix::from_pairs(2, 2, {{0, 0}, {1, 1}});
  const PlacementDelta d(x, x);
  EXPECT_TRUE(d.empty());
}

TEST(PlacementDelta, PerServerViews) {
  const auto x_old =
      ReplicationMatrix::from_pairs(3, 4, {{0, 0}, {0, 1}, {1, 2}, {2, 3}});
  const auto x_new =
      ReplicationMatrix::from_pairs(3, 4, {{1, 0}, {1, 1}, {1, 2}, {2, 3}});
  const PlacementDelta d(x_old, x_new);
  EXPECT_EQ(d.outstanding_on(1), (std::vector<Replica>{{1, 0}, {1, 1}}));
  EXPECT_TRUE(d.outstanding_on(2).empty());
  EXPECT_EQ(d.superfluous_on(0), (std::vector<Replica>{{0, 0}, {0, 1}}));
  EXPECT_EQ(d.servers_with_outstanding(), (std::vector<ServerId>{1}));
  EXPECT_EQ(d.servers_with_superfluous(), (std::vector<ServerId>{0}));
}

TEST(PlacementDelta, DenseWordDiffMatchesSparseScan) {
  // 7 x 150 spans three words per row with a partial last word; the dense
  // pair takes the word-parallel path, the sparse pair the per-replica scan.
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    ReplicationMatrix dense_old(7, 150, ReplicationMatrix::Store::kDense);
    ReplicationMatrix dense_new(7, 150, ReplicationMatrix::Store::kDense);
    ReplicationMatrix sparse_old(7, 150, ReplicationMatrix::Store::kSparse);
    ReplicationMatrix sparse_new(7, 150, ReplicationMatrix::Store::kSparse);
    for (ServerId i = 0; i < 7; ++i) {
      for (ObjectId k = 0; k < 150; ++k) {
        const bool in_old = rng.uniform_int(0, 3) == 0;
        const bool in_new = rng.uniform_int(0, 3) == 0;
        dense_old.assign(i, k, in_old);
        sparse_old.assign(i, k, in_old);
        dense_new.assign(i, k, in_new);
        sparse_new.assign(i, k, in_new);
      }
    }
    const PlacementDelta dense(dense_old, dense_new);
    const PlacementDelta sparse(sparse_old, sparse_new);
    EXPECT_EQ(dense.outstanding(), sparse.outstanding());
    EXPECT_EQ(dense.superfluous(), sparse.superfluous());
  }
}

TEST(PlacementDelta, MismatchedShapesThrow) {
  const ReplicationMatrix a(2, 2);
  const ReplicationMatrix b(2, 3);
  EXPECT_THROW(PlacementDelta(a, b), PreconditionError);
}

}  // namespace
}  // namespace rtsp
