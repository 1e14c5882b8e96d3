// Checkpoint ("RTSPCKP2", and reading "RTSPCKP1") and WAL ("RTSPWAL1")
// persistence: round-trips, queue target differences,
// the append/rotate protocol, and the corruption negative suite — every
// damaged image must surface as a clean error (checkpoint) or a detected
// torn tail (WAL), never be silently accepted.
#include "io/checkpoint_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rtsp {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

// Full targets of sample_doc()'s two queue entries.
const PairList kTarget1 = {{0, 0}, {1, 1}, {3, 5}};
const PairList kTarget2 = {{2, 2}};

CheckpointDoc sample_doc() {
  CheckpointDoc doc;
  doc.generation = 3;
  doc.seed = 42;
  doc.last_seq = 9;
  doc.clock = 1234;
  doc.servers = 4;
  doc.objects = 6;
  doc.model_crc = 0xdeadbeefcafe;
  doc.placement = {{0, 1}, {0, 3}, {1, 0}, {2, 5}, {3, 2}};
  CheckpointQueueEntry e1;
  e1.seq = 8;
  e1.attempt = 2;
  e1.not_before = 1500;
  e1.target = pair_delta(doc.placement, kTarget1);
  CheckpointQueueEntry e2;
  e2.seq = 9;
  e2.target = pair_delta(kTarget1, kTarget2);
  doc.queue = {e1, e2};
  doc.counters.admitted = 9;
  doc.counters.converged = 7;
  doc.counters.partial_rounds = 3;
  doc.counters.readmissions = 3;
  doc.counters.coalesced = 1;
  doc.counters.checkpoints = 3;
  doc.counters.actions_applied = 40;
  doc.counters.cost_paid = 812;
  return doc;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointIo, RoundTripsFullDocument) {
  const std::string path = temp_path("ckp_roundtrip");
  const CheckpointDoc doc = sample_doc();
  write_checkpoint_file(path, doc, /*fsync=*/false);
  const CheckpointDoc back = read_checkpoint_file(path);

  EXPECT_EQ(back.generation, doc.generation);
  EXPECT_EQ(back.seed, doc.seed);
  EXPECT_EQ(back.last_seq, doc.last_seq);
  EXPECT_EQ(back.clock, doc.clock);
  EXPECT_EQ(back.servers, doc.servers);
  EXPECT_EQ(back.objects, doc.objects);
  EXPECT_EQ(back.model_crc, doc.model_crc);
  EXPECT_EQ(back.placement, doc.placement);
  ASSERT_EQ(back.queue.size(), doc.queue.size());
  EXPECT_EQ(back.queue[0].seq, 8u);
  EXPECT_EQ(back.queue[0].attempt, 2u);
  EXPECT_EQ(back.queue[0].not_before, 1500);
  EXPECT_EQ(back.queue[0].target, doc.queue[0].target);
  EXPECT_EQ(back.queue[1].target, doc.queue[1].target);
  EXPECT_EQ(checkpoint_queue_targets(back), (std::vector<PairList>{kTarget1, kTarget2}));
  EXPECT_TRUE(back.counters == doc.counters);
}

/// A version-1 image of `doc` (full queue targets), as the previous writer
/// produced it.
std::string v1_image(const CheckpointDoc& doc, const std::vector<PairList>& targets) {
  std::string body;
  const auto u32 = [&body](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) body.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto u64 = [&body](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) body.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto pairs = [&](const PairList& list) {
    u64(list.size());
    for (const auto& [srv, obj] : list) {
      u32(srv);
      u32(obj);
    }
  };
  for (std::uint64_t v : {doc.generation, doc.seed, doc.last_seq,
                          static_cast<std::uint64_t>(doc.clock), doc.servers,
                          doc.objects, doc.model_crc}) {
    u64(v);
  }
  const DaemonCounters& c = doc.counters;
  for (std::uint64_t v : {c.admitted, c.converged, c.partial_rounds, c.readmissions,
                          c.coalesced, c.rejected, c.infeasible, c.checkpoints,
                          c.recoveries, c.actions_applied,
                          static_cast<std::uint64_t>(c.cost_paid)}) {
    u64(v);
  }
  pairs(doc.placement);
  u64(doc.queue.size());
  for (std::size_t i = 0; i < doc.queue.size(); ++i) {
    u64(doc.queue[i].seq);
    u32(doc.queue[i].attempt);
    u32(0);
    u64(static_cast<std::uint64_t>(doc.queue[i].not_before));
    pairs(targets[i]);
  }
  const std::uint32_t crc = crc32_ieee(body);
  std::string bytes = "RTSPCKP1";
  for (std::uint32_t v : {1u, 0u}) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  }
  bytes += body;
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(crc >> (8 * i)));
  return bytes;
}

TEST(CheckpointIo, ReadsVersionOneImages) {
  const std::string path = temp_path("ckp_v1");
  const CheckpointDoc doc = sample_doc();
  const std::string image = v1_image(doc, {kTarget1, kTarget2});
  spit(path, std::vector<char>(image.begin(), image.end()));
  const CheckpointDoc back = read_checkpoint_file(path);
  EXPECT_EQ(back.generation, doc.generation);
  EXPECT_EQ(back.placement, doc.placement);
  EXPECT_TRUE(back.counters == doc.counters);
  ASSERT_EQ(back.queue.size(), 2u);
  EXPECT_EQ(back.queue[0].target, doc.queue[0].target);
  EXPECT_EQ(back.queue[1].target, doc.queue[1].target);
  EXPECT_EQ(checkpoint_queue_targets(back), (std::vector<PairList>{kTarget1, kTarget2}));
}

TEST(CheckpointIo, QueueCostsItsDifferencesNotOnePlacementPerEntry) {
  // 200 entries that each drop one replica of a 5000-pair placement (the
  // size of daemon-drift's N=5000 placement). Version 1 stored one full
  // target per entry, about 200x the empty-queue file.
  CheckpointDoc doc = sample_doc();
  doc.queue.clear();
  doc.servers = 50;
  doc.objects = 100;
  doc.placement.clear();
  for (ServerId s = 0; s < 50; ++s) {
    for (ObjectId k = 0; k < 100; ++k) doc.placement.emplace_back(s, k);
  }
  const std::string empty_path = temp_path("ckp_empty_queue");
  write_checkpoint_file(empty_path, doc, false);
  PairList target = doc.placement;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    PairList next = target;
    next.erase(next.begin() + static_cast<long>(seq % next.size()));
    CheckpointQueueEntry e;
    e.seq = seq;
    e.target = pair_delta(target, next);
    doc.queue.push_back(e);
    target = std::move(next);
  }
  const std::string full_path = temp_path("ckp_full_queue");
  write_checkpoint_file(full_path, doc, false);
  EXPECT_LT(slurp(full_path).size(), 2 * slurp(empty_path).size());
  EXPECT_EQ(checkpoint_queue_targets(read_checkpoint_file(full_path)).back(), target);
}

TEST(PairDelta, AppliesAndRefusesInconsistentDifferences) {
  const PairList base = {{0, 1}, {0, 3}, {2, 0}};
  const PairList to = {{0, 0}, {0, 3}, {1, 4}, {2, 0}};
  const PairDelta d = pair_delta(base, to);
  EXPECT_EQ(d.added, (PairList{{0, 0}, {1, 4}}));
  EXPECT_EQ(d.removed, (PairList{{0, 1}}));
  EXPECT_EQ(apply_pair_delta(base, d), to);
  EXPECT_EQ(apply_pair_delta(base, PairDelta{}), base);
  // Adding a present pair, removing an absent one, or out-of-order lists.
  EXPECT_THROW(apply_pair_delta(base, PairDelta{{{0, 3}}, {}}), std::runtime_error);
  EXPECT_THROW(apply_pair_delta(base, PairDelta{{}, {{1, 1}}}), std::runtime_error);
  EXPECT_THROW(apply_pair_delta(base, PairDelta{{}, {{3, 0}}}), std::runtime_error);
  EXPECT_THROW(apply_pair_delta(base, PairDelta{{{1, 5}, {1, 4}}, {}}),
               std::runtime_error);
}

TEST(CheckpointIo, RewriteIsAtomicReplacement) {
  const std::string path = temp_path("ckp_rewrite");
  CheckpointDoc doc = sample_doc();
  write_checkpoint_file(path, doc, false);
  doc.generation = 4;
  doc.clock = 2000;
  write_checkpoint_file(path, doc, false);
  const CheckpointDoc back = read_checkpoint_file(path);
  EXPECT_EQ(back.generation, 4u);
  EXPECT_EQ(back.clock, 2000);
}

TEST(CheckpointIo, MissingFileThrows) {
  EXPECT_THROW(read_checkpoint_file(temp_path("ckp_missing")),
               std::runtime_error);
}

TEST(CheckpointIo, BadMagicThrows) {
  const std::string path = temp_path("ckp_magic");
  write_checkpoint_file(path, sample_doc(), false);
  std::vector<char> bytes = slurp(path);
  bytes[0] = 'X';
  spit(path, bytes);
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
}

TEST(CheckpointIo, FlippedPayloadByteFailsCrc) {
  const std::string path = temp_path("ckp_flip");
  write_checkpoint_file(path, sample_doc(), false);
  std::vector<char> bytes = slurp(path);
  // Flip one byte in the middle of the payload; the CRC must catch it.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit(path, bytes);
  EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
}

TEST(CheckpointIo, EveryTruncationFailsCleanly) {
  const std::string path = temp_path("ckp_trunc");
  write_checkpoint_file(path, sample_doc(), false);
  const std::vector<char> bytes = slurp(path);
  const std::string cut = temp_path("ckp_trunc_cut");
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    spit(cut, std::vector<char>(bytes.begin(),
                                bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW(read_checkpoint_file(cut), std::runtime_error)
        << "truncation at " << keep << " bytes parsed successfully";
  }
}

// --- WAL ------------------------------------------------------------------

WalRecord admit_record(std::uint64_t seq) {
  WalRecord r;
  r.type = WalRecordType::kAdmit;
  r.seq = seq;
  r.clock = 10;
  r.target = {{0, 0}, {1, 2}};
  return r;
}

WalRecord begin_record(std::uint64_t seq, std::uint32_t attempt = 1) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.seq = seq;
  r.attempt = attempt;
  r.clock = 25;
  return r;
}

WalRecord commit_record(std::uint64_t seq) {
  WalRecord r;
  r.type = WalRecordType::kCommit;
  r.seq = seq;
  r.converged = false;
  r.readmit = true;
  r.readmit_not_before = 600;
  r.placement_crc = 0x1122334455667788ull;
  r.cost = 77;
  r.actions = 5;
  r.clock = 120;
  return r;
}

TEST(WalIo, RoundTripsAllRecordTypes) {
  const std::string path = temp_path("wal_roundtrip");
  {
    WalWriter w;
    w.create(path, /*generation=*/2, /*fsync=*/false);
    w.append(admit_record(1));
    w.append(begin_record(1));
    w.append(commit_record(1));
    EXPECT_EQ(w.records_appended(), 3u);
  }
  const WalReadResult r = read_wal_file(path);
  EXPECT_EQ(r.generation, 2u);
  EXPECT_FALSE(r.torn());
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].type, WalRecordType::kAdmit);
  EXPECT_EQ(r.records[0].target, admit_record(1).target);
  EXPECT_EQ(r.records[1].type, WalRecordType::kBegin);
  EXPECT_EQ(r.records[1].clock, 25);
  EXPECT_EQ(r.records[2].type, WalRecordType::kCommit);
  EXPECT_TRUE(r.records[2].readmit);
  EXPECT_EQ(r.records[2].readmit_not_before, 600);
  EXPECT_EQ(r.records[2].placement_crc, 0x1122334455667788ull);
  EXPECT_EQ(r.records[2].cost, 77);
  EXPECT_EQ(r.records[2].actions, 5u);
}

TEST(WalIo, OpenAppendContinuesAtValidPrefix) {
  const std::string path = temp_path("wal_append");
  {
    WalWriter w;
    w.create(path, 1, false);
    w.append(admit_record(1));
  }
  const WalReadResult first = read_wal_file(path);
  ASSERT_EQ(first.records.size(), 1u);
  {
    WalWriter w;
    w.open_append(path, first.valid_bytes, false);
    w.append(begin_record(1));
  }
  const WalReadResult second = read_wal_file(path);
  ASSERT_EQ(second.records.size(), 2u);
  EXPECT_EQ(second.records[1].type, WalRecordType::kBegin);
}

TEST(WalIo, GarbageTailDetectedAndTruncatable) {
  const std::string path = temp_path("wal_torn");
  {
    WalWriter w;
    w.create(path, 1, false);
    w.append(admit_record(1));
    w.append(begin_record(1));
  }
  const std::uint64_t clean_bytes = read_wal_file(path).valid_bytes;
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("torn!", 5);
  }
  const WalReadResult torn = read_wal_file(path);
  EXPECT_TRUE(torn.torn());
  EXPECT_EQ(torn.valid_bytes, clean_bytes);
  EXPECT_EQ(torn.rolled_back_bytes, 5u);
  ASSERT_EQ(torn.records.size(), 2u);  // the valid prefix still parses

  truncate_file(path, torn.valid_bytes);
  const WalReadResult clean = read_wal_file(path);
  EXPECT_FALSE(clean.torn());
  EXPECT_EQ(clean.records.size(), 2u);
}

TEST(WalIo, TruncatedRecordIsTornNotFatal) {
  const std::string path = temp_path("wal_cutrec");
  {
    WalWriter w;
    w.create(path, 1, false);
    w.append(admit_record(1));
    w.append(commit_record(1));
  }
  const std::vector<char> bytes = slurp(path);
  const WalReadResult full = read_wal_file(path);
  ASSERT_EQ(full.records.size(), 2u);
  // Cut into the middle of the second record: a classic torn write.
  const std::size_t cut = static_cast<std::size_t>(full.valid_bytes) - 3;
  spit(path, std::vector<char>(bytes.begin(),
                               bytes.begin() + static_cast<long>(cut)));
  const WalReadResult torn = read_wal_file(path);
  EXPECT_TRUE(torn.torn());
  EXPECT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.records[0].type, WalRecordType::kAdmit);
}

TEST(WalIo, CorruptRecordByteIsTornAtThatRecord) {
  const std::string path = temp_path("wal_fliprec");
  {
    WalWriter w;
    w.create(path, 1, false);
    w.append(admit_record(1));
    w.append(admit_record(2));
  }
  std::vector<char> bytes = slurp(path);
  // Flip a byte in the last record's payload; its CRC must reject it and
  // the reader reports everything before it as the valid prefix.
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x10);
  spit(path, bytes);
  const WalReadResult r = read_wal_file(path);
  EXPECT_TRUE(r.torn());
  EXPECT_EQ(r.records.size(), 1u);
}

TEST(WalIo, BadHeaderThrows) {
  const std::string path = temp_path("wal_header");
  {
    WalWriter w;
    w.create(path, 1, false);
  }
  std::vector<char> bytes = slurp(path);
  bytes[1] = 'Z';
  spit(path, bytes);
  EXPECT_THROW(read_wal_file(path), std::runtime_error);

  spit(path, std::vector<char>(bytes.begin(), bytes.begin() + 4));
  EXPECT_THROW(read_wal_file(path), std::runtime_error);
}

TEST(WalIo, MissingFileThrows) {
  EXPECT_THROW(read_wal_file(temp_path("wal_missing")), std::runtime_error);
}

TEST(Crc32Ieee, MatchesKnownVectorAndChains) {
  // The classic zlib test vector. (string_view keeps overload resolution
  // away from the (pointer, length) form.)
  EXPECT_EQ(crc32_ieee(std::string_view("123456789")), 0xCBF43926u);
  const std::uint32_t whole = crc32_ieee(std::string_view("hello world"));
  const std::uint32_t part = crc32_ieee(std::string_view("hello "));
  EXPECT_EQ(crc32_ieee(std::string_view("world"), part), whole);
}

}  // namespace
}  // namespace rtsp
