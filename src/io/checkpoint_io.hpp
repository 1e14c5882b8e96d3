// Crash-safe persistence for the continuous rebalancing daemon
// (`rtsp serve`): a CRC-guarded binary checkpoint (`RTSPCKP2`; `RTSPCKP1`
// is still read) written atomically (tmp + fsync + rename + directory
// fsync), and a CRC-framed append-only write-ahead log (`RTSPWAL1`) whose
// records are fsync'd before the daemon acts on them.
//
// Recovery contract (see docs/daemon.md):
//   * The checkpoint snapshots the full daemon state — placement, virtual
//     clock, admission queue (including partially-converged epochs),
//     sequence high-water mark and counters — under one generation number.
//   * The WAL carries the same generation; after a crash, a WAL one
//     generation behind the checkpoint is stale (its effects are inside
//     the checkpoint) and is discarded, never replayed twice.
//   * Torn or corrupt WAL tails are detected by per-record CRC + length
//     framing; readers report the exact valid prefix so the daemon can
//     roll the file back — a torn tail is truncated and surfaced, never
//     silently accepted. A corrupt checkpoint (bad magic/CRC/bounds) is a
//     hard error: the daemon refuses to start from it.
//
// All integers are little-endian on the wire. Like the rest of io/, every
// parse failure throws std::runtime_error with a descriptive prefix.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace rtsp {

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — the classic
/// zlib polynomial. `seed` chains incremental computations: pass the
/// previous return value to continue a running checksum.
std::uint32_t crc32_ieee(const void* data, std::size_t len,
                         std::uint32_t seed = 0);
inline std::uint32_t crc32_ieee(std::string_view data, std::uint32_t seed = 0) {
  return crc32_ieee(data.data(), data.size(), seed);
}

/// Monotonic daemon counters, persisted so recovery resumes the exact
/// series the uninterrupted run would have produced (the chaos-harness
/// invariant covers converged/cost_paid as well as the placement).
struct DaemonCounters {
  std::uint64_t admitted = 0;        ///< epochs accepted into the queue
  std::uint64_t converged = 0;       ///< epochs that reached their target
  std::uint64_t partial_rounds = 0;  ///< budgeted rounds that stopped early
  std::uint64_t readmissions = 0;    ///< partial epochs re-queued with backoff
  std::uint64_t coalesced = 0;       ///< admissions that replaced a pending epoch
  std::uint64_t rejected = 0;        ///< admissions bounced by backpressure
  std::uint64_t infeasible = 0;      ///< admissions refused (storage-infeasible)
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t actions_applied = 0;  ///< effective actions across all epochs
  std::int64_t cost_paid = 0;         ///< actual executor cost across epochs

  bool operator==(const DaemonCounters&) const = default;
};

/// Replica pairs (server, object) in canonical (server-major ascending) order.
using PairList = std::vector<std::pair<ServerId, ObjectId>>;

/// A placement as the difference from a base placement.
struct PairDelta {
  PairList added;    ///< pairs the base lacks, canonical order
  PairList removed;  ///< pairs of the base to drop, canonical order

  bool operator==(const PairDelta&) const = default;
};

/// The difference that turns canonical `from` into canonical `to`.
PairDelta pair_delta(const PairList& from, const PairList& to);

/// Applies `delta` to canonical `base`. Throws std::runtime_error when an
/// added pair is already in `base`, a removed pair is not, or either list
/// is out of canonical order.
PairList apply_pair_delta(const PairList& base, const PairDelta& delta);

/// One pending epoch inside a checkpoint. Its target is stored as the
/// difference from the previous entry's target (the first entry's from the
/// checkpoint's placement), so a backlog of small epochs costs the size of
/// its moves, not one placement per epoch.
struct CheckpointQueueEntry {
  std::uint64_t seq = 0;
  std::uint32_t attempt = 1;
  std::int64_t not_before = 0;  ///< virtual-clock re-admission gate
  PairDelta target;
};

/// Full daemon snapshot (written as version 2).
struct CheckpointDoc {
  std::uint64_t generation = 0;  ///< increments per checkpoint; ties to the WAL
  std::uint64_t seed = 0;        ///< daemon seed (recovery refuses a mismatch)
  std::uint64_t last_seq = 0;    ///< admission sequence high-water mark
  std::int64_t clock = 0;        ///< daemon virtual clock (ticks)
  std::uint64_t servers = 0;
  std::uint64_t objects = 0;
  std::uint64_t model_crc = 0;   ///< capacities+sizes fingerprint cross-check
  std::vector<std::pair<ServerId, ObjectId>> placement;  ///< current X, canonical order
  std::vector<CheckpointQueueEntry> queue;               ///< pending epochs, pop order
  DaemonCounters counters;
};

/// Writes `doc` atomically: serialize to `path + ".tmp"`, fsync the file,
/// rename over `path`, fsync the directory. A crash at any point leaves
/// either the old checkpoint or the new one, never a torn file. `fsync`
/// false skips the durability syscalls (tests/benchmarks on tmpfs).
void write_checkpoint_file(const std::string& path, const CheckpointDoc& doc,
                           bool fsync = true);

/// Parses and CRC-verifies a checkpoint, version 2 or 1 (whose full queue
/// targets are converted to differences). Throws std::runtime_error
/// prefixed "checkpoint parse error:" on any corruption.
CheckpointDoc read_checkpoint_file(const std::string& path);

/// The queue's full targets, in queue order: each entry's difference applied
/// to the previous target, starting from the placement. Throws
/// std::runtime_error (as apply_pair_delta) on an inconsistent difference.
std::vector<PairList> checkpoint_queue_targets(const CheckpointDoc& doc);

enum class WalRecordType : std::uint8_t {
  kAdmit = 1,   ///< an epoch entered the queue (external or re-admission replay)
  kBegin = 2,   ///< the daemon started processing (seq, attempt)
  kCommit = 3,  ///< processing finished; carries the post-state fingerprint
};

const char* to_string(WalRecordType t);

/// One WAL record. Field meaning depends on `type`:
///   kAdmit : seq/attempt identify the epoch, `clock` is its not_before,
///            `replaces` the seq coalesced away (0 = none), `target` the
///            requested placement pairs.
///   kBegin : seq/attempt + the daemon clock at pop time.
///   kCommit: `converged`, paid `cost`, effective `actions`, the CRC of
///            the canonical post-placement (replay divergence check), and
///            — when the epoch only partially converged — `readmit` with
///            the backoff gate `readmit_not_before`. Folding the
///            re-admission into the commit record makes the
///            "commit + requeue" step atomic on disk.
struct WalRecord {
  WalRecordType type = WalRecordType::kAdmit;
  std::uint64_t seq = 0;
  std::uint32_t attempt = 1;
  std::uint64_t replaces = 0;
  std::int64_t clock = 0;
  bool converged = false;
  bool readmit = false;
  std::int64_t readmit_not_before = 0;
  std::uint64_t placement_crc = 0;
  std::int64_t cost = 0;
  std::uint64_t actions = 0;
  std::vector<std::pair<ServerId, ObjectId>> target;
};

/// Append-only WAL writer. Every append() is length+CRC framed and (when
/// enabled) fsync'd before returning, so a record the daemon has acted on
/// can only be missing from disk if the action never happened either.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates/truncates `path` and writes the header for `generation`.
  void create(const std::string& path, std::uint64_t generation,
              bool fsync = true);

  /// Opens an existing WAL (validated by a prior read_wal_file) for
  /// appending at `offset` — recovery's "continue where the valid prefix
  /// ends" entry point.
  void open_append(const std::string& path, std::uint64_t offset,
                   bool fsync = true);

  bool is_open() const { return fd_ >= 0; }
  std::uint64_t records_appended() const { return appended_; }

  void append(const WalRecord& record);
  void close();

 private:
  int fd_ = -1;
  bool fsync_ = true;
  std::uint64_t appended_ = 0;
  std::string path_;
};

/// Everything read_wal_file found. `valid_bytes` is the offset of the
/// first byte past the last intact record — the truncation point for a
/// torn tail; `rolled_back_bytes` counts the garbage past it.
struct WalReadResult {
  std::uint64_t generation = 0;
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;
  std::uint64_t rolled_back_bytes = 0;
  bool torn() const { return rolled_back_bytes > 0; }
};

/// Reads a WAL: header, then records until EOF or the first torn/corrupt
/// frame (reported via valid_bytes/rolled_back_bytes, not an exception —
/// a torn tail is the expected shape of a crash). Bad magic/version or a
/// file shorter than the header still throw ("wal parse error:").
WalReadResult read_wal_file(const std::string& path);

/// Truncates `path` to `valid_bytes` — rolls a torn tail back on disk.
void truncate_file(const std::string& path, std::uint64_t valid_bytes);

}  // namespace rtsp
