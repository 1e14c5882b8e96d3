#include "core/delta.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"

namespace rtsp {

PlacementDelta::PlacementDelta(const ReplicationMatrix& x_old,
                               const ReplicationMatrix& x_new) {
  RTSP_REQUIRE(x_old.num_servers() == x_new.num_servers());
  RTSP_REQUIRE(x_old.num_objects() == x_new.num_objects());
  if (x_old.is_dense() && x_new.is_dense()) {
    // Row-major words in ascending order keep both lists (server, object)
    // sorted; only the words that differ are decoded, which matters when a
    // few replicas of a large placement move (a daemon epoch).
    const std::vector<std::uint64_t>& a = x_old.words();
    const std::vector<std::uint64_t>& b = x_new.words();
    const std::size_t per_row = a.empty() ? 1 : a.size() / x_old.num_servers();
    const auto decode = [per_row](std::size_t w, std::uint64_t bits,
                                  std::vector<Replica>& out) {
      for (; bits != 0; bits &= bits - 1) {
        out.push_back({static_cast<ServerId>(w / per_row),
                       static_cast<ObjectId>((w % per_row) * 64 +
                                             static_cast<std::size_t>(std::countr_zero(bits)))});
      }
    };
    for (std::size_t w = 0; w < a.size(); ++w) {
      if (a[w] == b[w]) continue;
      decode(w, b[w] & ~a[w], outstanding_);
      decode(w, a[w] & ~b[w], superfluous_);
    }
    return;
  }
  for (ServerId i = 0; i < x_old.num_servers(); ++i) {
    x_new.for_each_object(i, [&](ObjectId k) {
      if (!x_old.test(i, k)) outstanding_.push_back({i, k});
    });
    x_old.for_each_object(i, [&](ObjectId k) {
      if (!x_new.test(i, k)) superfluous_.push_back({i, k});
    });
  }
}

namespace {
// Both lists are (server, object)-sorted, so a server's replicas form a
// contiguous run findable by binary search instead of a full scan.
std::vector<Replica> server_slice(const std::vector<Replica>& replicas, ServerId i) {
  const auto lo = std::lower_bound(
      replicas.begin(), replicas.end(), i,
      [](const Replica& r, ServerId s) { return r.server < s; });
  auto hi = lo;
  while (hi != replicas.end() && hi->server == i) ++hi;
  return std::vector<Replica>(lo, hi);
}
}  // namespace

std::vector<Replica> PlacementDelta::outstanding_on(ServerId i) const {
  return server_slice(outstanding_, i);
}

std::vector<Replica> PlacementDelta::superfluous_on(ServerId i) const {
  return server_slice(superfluous_, i);
}

namespace {
std::vector<ServerId> distinct_servers(const std::vector<Replica>& replicas) {
  std::vector<ServerId> out;
  for (const Replica& r : replicas) {
    // replicas are (server, object)-sorted, so equal servers are adjacent
    if (out.empty() || out.back() != r.server) out.push_back(r.server);
  }
  return out;
}
}  // namespace

std::vector<ServerId> PlacementDelta::servers_with_outstanding() const {
  return distinct_servers(outstanding_);
}

std::vector<ServerId> PlacementDelta::servers_with_superfluous() const {
  return distinct_servers(superfluous_);
}

}  // namespace rtsp
