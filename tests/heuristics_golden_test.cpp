// Golden schedule hashes of the flagship chain GOLCF+H1+H2+OP1.
//
// Each case pins the FNV-1a hash of the full action sequence (the fold of
// tools/improver_check) on one seeded instance of the paper's experiments.
// A change to the builder, the improvers or the incremental engine that is
// meant to be behaviour-preserving must leave every hash unchanged; a change
// that alters schedules on purpose must re-record them and say why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "core/validator.hpp"
#include "heuristics/registry.hpp"
#include "workload/paper_setup.hpp"

namespace rtsp {
namespace {

/// FNV-1a over (kind, server, object, source) of every action; identical to
/// improver_check's schedule_hash.
std::uint64_t schedule_hash(const Schedule& h) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const Action& a : h) {
    mix(static_cast<std::uint64_t>(a.kind));
    mix(a.server);
    mix(a.object);
    mix(a.is_transfer() ? a.source : 0);
  }
  return hash;
}

enum class Kind { kEqual, kUniform, kExtra };

struct GoldenCase {
  const char* name;
  Kind kind;
  std::size_t objects;
  std::size_t replicas;
  std::uint64_t seed;
  std::uint64_t hash;
};

Instance make_instance(const GoldenCase& c, Rng& rng) {
  PaperSetup setup;
  setup.objects = c.objects;
  switch (c.kind) {
    case Kind::kEqual: return make_equal_size_instance(setup, c.replicas, rng);
    case Kind::kUniform: return make_uniform_size_instance(setup, c.replicas, rng);
    case Kind::kExtra: return make_extra_capacity_instance(setup, c.replicas, 10, rng);
  }
  return make_equal_size_instance(setup, c.replicas, rng);
}

// Recorded before the host-event screening of H2/H1 candidates went in; the
// screening only skips candidates the engine would reject, so it must not
// move any of them.
constexpr GoldenCase kCases[] = {
    {"equal_r1_n600_seed1", Kind::kEqual, 600, 1, 1, 0x8a5293225515b6f1ull},
    {"equal_r1_n600_seed2", Kind::kEqual, 600, 1, 2, 0x3519d0f77d30e018ull},
    {"equal_r1_n600_seed3", Kind::kEqual, 600, 1, 3, 0x46a66456ac91be57ull},
    {"uniform_r1_n600_seed1", Kind::kUniform, 600, 1, 1, 0x405801c566e7cc08ull},
    {"extra_r2_n600_seed1", Kind::kExtra, 600, 2, 1, 0x9e4563287dfceab8ull},
    {"equal_r3_n1000_seed1", Kind::kEqual, 1000, 3, 1, 0x05d69eedd3b44e71ull},
};

TEST(GoldenSchedules, FlagshipChainHashesAreUnchanged) {
  const Pipeline pipeline = make_pipeline("GOLCF+H1+H2+OP1");
  for (const GoldenCase& c : kCases) {
    Rng rng(c.seed);
    const Instance inst = make_instance(c, rng);
    const Schedule h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
    ASSERT_TRUE(Validator::is_valid(inst.model, inst.x_old, inst.x_new, h)) << c.name;
    char actual[24];
    std::snprintf(actual, sizeof actual, "0x%016" PRIx64, schedule_hash(h));
    EXPECT_EQ(schedule_hash(h), c.hash) << c.name << ": got " << actual;
  }
}

}  // namespace
}  // namespace rtsp
