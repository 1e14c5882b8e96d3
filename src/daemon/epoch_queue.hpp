// Bounded admission queue for the rebalancing daemon: pending target
// placements ordered by sequence number, with a virtual-clock re-admission
// gate (`not_before`) for partially-converged epochs backing off.
//
// The queue itself is a plain data structure — DaemonCore serializes all
// access under its own mutex (admission, processing and checkpointing must
// agree on one consistent view anyway). Pop order is strict sequence
// order: targets apply in submission order so the daemon's placement
// never moves backward to an older target; a backing-off front epoch
// delays the queue (the daemon jumps its virtual clock over the gate)
// rather than being overtaken, and floods are handled by coalescing at
// admission instead of reordering at dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/replication.hpp"
#include "exec/fault_model.hpp"
#include "io/checkpoint_io.hpp"

namespace rtsp::daemon {

using exec::Tick;

/// One queued unit of work: "converge the cluster to `target`".
struct PendingEpoch {
  std::uint64_t seq = 0;
  std::uint32_t attempt = 1;  ///< 1 on admission, bumped per re-admission
  Tick not_before = 0;        ///< earliest virtual clock at which to run
  ReplicationMatrix target;
  /// `target` as the difference from the target of epoch `delta_base`
  /// (0: none), computed once at admission so that checkpoints write a
  /// backlog in O(moves) instead of O(placement) per epoch.
  std::uint64_t delta_base = 0;
  PairDelta delta{};
};

/// What admission does when the queue is full.
enum class QueuePolicy {
  kReject,    ///< bounce the submission with a retry-after hint
  kCoalesce,  ///< replace the newest pending epoch (latest target wins)
};

const char* to_string(QueuePolicy p);

class EpochQueue {
 public:
  explicit EpochQueue(std::size_t max_depth);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= max_depth_; }
  std::size_t max_depth() const { return max_depth_; }

  /// Inserts keeping ascending seq order. Used for admission, re-admission
  /// and recovery replay; asserts on duplicate (seq, attempt).
  void push(PendingEpoch e);

  /// Seq of the newest entry (coalesce victim). Queue must be non-empty.
  std::uint64_t newest_seq() const;

  /// Replaces the entry with seq `victim` by `e` (the coalesce path).
  /// Asserts that the victim exists.
  void replace(std::uint64_t victim, PendingEpoch e);

  /// Lowest-seq entry with not_before <= now, or nullptr when none is
  /// ready (the pointer is invalidated by any mutation).
  const PendingEpoch* next_ready(Tick now) const;

  /// Smallest not_before over all entries — where the daemon clock jumps
  /// when everything pending is backing off. Queue must be non-empty.
  Tick earliest_not_before() const;

  /// Removes and returns the entry (seq, attempt); asserts it exists.
  PendingEpoch pop(std::uint64_t seq, std::uint32_t attempt);

  /// Pending entries in seq order (checkpoint snapshots).
  const std::vector<PendingEpoch>& entries() const { return entries_; }

 private:
  std::size_t max_depth_;
  std::vector<PendingEpoch> entries_;  ///< ascending seq
};

}  // namespace rtsp::daemon
