#include "io/checkpoint_io.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define RTSP_CKP_POSIX 1
#else
#define RTSP_CKP_POSIX 0
#endif

namespace rtsp {

namespace {

constexpr char kCheckpointMagic[8] = {'R', 'T', 'S', 'P', 'C', 'K', 'P', '2'};
constexpr char kCheckpointMagicV1[8] = {'R', 'T', 'S', 'P', 'C', 'K', 'P', '1'};
constexpr char kWalMagic[8] = {'R', 'T', 'S', 'P', 'W', 'A', 'L', '1'};
constexpr std::uint32_t kCheckpointVersion = 2;
constexpr std::uint32_t kWalVersion = 1;
constexpr std::size_t kWalHeaderBytes = 8 + 4 + 4 + 8;  // magic,ver,res,gen
constexpr std::uint64_t kMaxPairs = std::uint64_t{1} << 32;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t len,
                         std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

const char* to_string(WalRecordType t) {
  switch (t) {
    case WalRecordType::kAdmit: return "admit";
    case WalRecordType::kBegin: return "begin";
    case WalRecordType::kCommit: return "commit";
  }
  return "unknown";
}

namespace {

// ---- little-endian encode/decode into std::string buffers ----

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over a byte range.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint8_t u8() {
    need(1);
    return static_cast<unsigned char>(data_[pos_++]);
  }

  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  void need(std::size_t n) {
    if (pos_ + n > size_) {
      throw std::runtime_error(std::string(what_) + ": truncated at byte " +
                               std::to_string(pos_));
    }
  }

  const char* data_;
  std::size_t size_;
  const char* what_;
  std::size_t pos_ = 0;
};

void put_pairs(std::string& out,
               const std::vector<std::pair<ServerId, ObjectId>>& pairs) {
  put_u64(out, pairs.size());
  for (const auto& [s, k] : pairs) {
    put_u32(out, s);
    put_u32(out, k);
  }
}

std::vector<std::pair<ServerId, ObjectId>> get_pairs(Cursor& c,
                                                     const char* what) {
  const std::uint64_t count = c.u64();
  if (count > kMaxPairs) {
    throw std::runtime_error(std::string(what) + ": absurd pair count " +
                             std::to_string(count));
  }
  std::vector<std::pair<ServerId, ObjectId>> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const ServerId s = c.u32();
    const ObjectId k = c.u32();
    pairs.emplace_back(s, k);
  }
  return pairs;
}

/// Sorted, duplicate-free copy (version-1 targets carry set semantics).
PairList canonical(PairList pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

void require_canonical(const PairList& pairs, const char* what) {
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    if (!(pairs[i - 1] < pairs[i])) {
      throw std::runtime_error(std::string("pair delta: ") + what +
                               " pairs out of canonical order");
    }
  }
}

std::string read_whole_file(const std::string& path, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  return data;
}

#if RTSP_CKP_POSIX
void fsync_fd_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error("fsync failed for " + path);
  }
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best-effort: some filesystems refuse O_RDONLY dirs
  ::fsync(fd);
  ::close(fd);
}

void write_file_durably(const std::string& path, const std::string& bytes,
                        bool fsync) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot create " + path);
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("write failed for " + path);
    }
    off += static_cast<std::size_t>(n);
  }
  if (fsync) fsync_fd_or_throw(fd, path);
  ::close(fd);
}
#else
void write_file_durably(const std::string& path, const std::string& bytes,
                        bool) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (n != bytes.size()) throw std::runtime_error("write failed for " + path);
}
#endif

std::string serialize_counters(const DaemonCounters& c) {
  std::string out;
  put_u64(out, c.admitted);
  put_u64(out, c.converged);
  put_u64(out, c.partial_rounds);
  put_u64(out, c.readmissions);
  put_u64(out, c.coalesced);
  put_u64(out, c.rejected);
  put_u64(out, c.infeasible);
  put_u64(out, c.checkpoints);
  put_u64(out, c.recoveries);
  put_u64(out, c.actions_applied);
  put_i64(out, c.cost_paid);
  return out;
}

DaemonCounters parse_counters(Cursor& c) {
  DaemonCounters out;
  out.admitted = c.u64();
  out.converged = c.u64();
  out.partial_rounds = c.u64();
  out.readmissions = c.u64();
  out.coalesced = c.u64();
  out.rejected = c.u64();
  out.infeasible = c.u64();
  out.checkpoints = c.u64();
  out.recoveries = c.u64();
  out.actions_applied = c.u64();
  out.cost_paid = c.i64();
  return out;
}

}  // namespace

PairDelta pair_delta(const PairList& from, const PairList& to) {
  PairDelta d;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < from.size() || j < to.size()) {
    if (j == to.size() || (i < from.size() && from[i] < to[j])) {
      d.removed.push_back(from[i++]);
    } else if (i == from.size() || to[j] < from[i]) {
      d.added.push_back(to[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  return d;
}

PairList apply_pair_delta(const PairList& base, const PairDelta& delta) {
  require_canonical(base, "base");
  require_canonical(delta.added, "added");
  require_canonical(delta.removed, "removed");
  PairList out;
  out.reserve(base.size() + delta.added.size());
  std::size_t a = 0;
  std::size_t r = 0;
  for (const auto& pair : base) {
    while (a < delta.added.size() && delta.added[a] < pair) out.push_back(delta.added[a++]);
    if (a < delta.added.size() && delta.added[a] == pair) {
      throw std::runtime_error("pair delta: added pair already present");
    }
    if (r < delta.removed.size() && delta.removed[r] < pair) break;  // absent
    if (r < delta.removed.size() && delta.removed[r] == pair) {
      ++r;
      continue;
    }
    out.push_back(pair);
  }
  if (r < delta.removed.size()) {
    throw std::runtime_error("pair delta: removed pair not present");
  }
  out.insert(out.end(), delta.added.begin() + static_cast<std::ptrdiff_t>(a),
             delta.added.end());
  return out;
}

std::vector<PairList> checkpoint_queue_targets(const CheckpointDoc& doc) {
  std::vector<PairList> targets;
  targets.reserve(doc.queue.size());
  for (const CheckpointQueueEntry& e : doc.queue) {
    targets.push_back(apply_pair_delta(targets.empty() ? doc.placement : targets.back(),
                                       e.target));
  }
  return targets;
}

void write_checkpoint_file(const std::string& path, const CheckpointDoc& doc,
                           bool fsync) {
  std::string body;
  put_u64(body, doc.generation);
  put_u64(body, doc.seed);
  put_u64(body, doc.last_seq);
  put_i64(body, doc.clock);
  put_u64(body, doc.servers);
  put_u64(body, doc.objects);
  put_u64(body, doc.model_crc);
  body += serialize_counters(doc.counters);
  put_pairs(body, doc.placement);
  put_u64(body, doc.queue.size());
  for (const CheckpointQueueEntry& e : doc.queue) {
    put_u64(body, e.seq);
    put_u32(body, e.attempt);
    put_u32(body, 0);  // reserved / alignment
    put_i64(body, e.not_before);
    put_pairs(body, e.target.added);
    put_pairs(body, e.target.removed);
  }

  std::string bytes(kCheckpointMagic, sizeof kCheckpointMagic);
  put_u32(bytes, kCheckpointVersion);
  put_u32(bytes, 0);  // reserved
  bytes += body;
  put_u32(bytes, crc32_ieee(body));

  const std::string tmp = path + ".tmp";
  write_file_durably(tmp, bytes, fsync);
#if RTSP_CKP_POSIX
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + " failed");
  }
  if (fsync) fsync_parent_dir(path);
#else
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + " failed");
  }
#endif
}

CheckpointDoc read_checkpoint_file(const std::string& path) {
  constexpr const char* kWhat = "checkpoint parse error";
  const std::string bytes = read_whole_file(path, kWhat);
  if (bytes.size() < sizeof kCheckpointMagic + 4 + 4 + 4) {
    throw std::runtime_error(std::string(kWhat) + ": file too short (" +
                             std::to_string(bytes.size()) + " bytes)");
  }
  // Version 1 stored every queue entry's full target.
  const bool v1 =
      std::memcmp(bytes.data(), kCheckpointMagicV1, sizeof kCheckpointMagicV1) == 0;
  if (!v1 &&
      std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) != 0) {
    throw std::runtime_error(std::string(kWhat) + ": bad magic");
  }
  Cursor head(bytes.data() + 8, 8, kWhat);
  const std::uint32_t version = head.u32();
  if (version != (v1 ? 1u : kCheckpointVersion)) {
    throw std::runtime_error(std::string(kWhat) + ": unsupported version " +
                             std::to_string(version));
  }
  const std::size_t body_begin = 16;
  const std::size_t body_size = bytes.size() - body_begin - 4;
  const std::uint32_t stored_crc = [&] {
    Cursor tail(bytes.data() + bytes.size() - 4, 4, kWhat);
    return tail.u32();
  }();
  const std::uint32_t actual_crc =
      crc32_ieee(bytes.data() + body_begin, body_size);
  if (stored_crc != actual_crc) {
    throw std::runtime_error(std::string(kWhat) + ": CRC mismatch (stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(actual_crc) + ")");
  }

  Cursor c(bytes.data() + body_begin, body_size, kWhat);
  CheckpointDoc doc;
  doc.generation = c.u64();
  doc.seed = c.u64();
  doc.last_seq = c.u64();
  doc.clock = c.i64();
  doc.servers = c.u64();
  doc.objects = c.u64();
  doc.model_crc = c.u64();
  doc.counters = parse_counters(c);
  doc.placement = get_pairs(c, kWhat);
  const std::uint64_t queue_count = c.u64();
  if (queue_count > kMaxPairs) {
    throw std::runtime_error(std::string(kWhat) + ": absurd queue count");
  }
  doc.queue.reserve(static_cast<std::size_t>(queue_count));
  PairList previous;  // v1: the previous entry's full target
  if (v1) previous = canonical(doc.placement);
  for (std::uint64_t i = 0; i < queue_count; ++i) {
    CheckpointQueueEntry e;
    e.seq = c.u64();
    e.attempt = c.u32();
    (void)c.u32();  // reserved
    e.not_before = c.i64();
    if (v1) {
      PairList target = canonical(get_pairs(c, kWhat));
      e.target = pair_delta(previous, target);
      previous = std::move(target);
    } else {
      e.target.added = get_pairs(c, kWhat);
      e.target.removed = get_pairs(c, kWhat);
    }
    doc.queue.push_back(std::move(e));
  }
  if (!c.at_end()) {
    throw std::runtime_error(std::string(kWhat) + ": trailing bytes after body");
  }
  for (const auto& [s, k] : doc.placement) {
    if (s >= doc.servers || k >= doc.objects) {
      throw std::runtime_error(std::string(kWhat) + ": placement pair (" +
                               std::to_string(s) + "," + std::to_string(k) +
                               ") out of range");
    }
  }
  return doc;
}

namespace {

std::string serialize_wal_record(const WalRecord& r) {
  std::string payload;
  payload.push_back(static_cast<char>(r.type));
  payload.push_back(static_cast<char>(r.converged ? 1 : 0));
  payload.push_back(static_cast<char>(r.readmit ? 1 : 0));
  payload.push_back(0);  // reserved
  put_u32(payload, r.attempt);
  put_u64(payload, r.seq);
  put_u64(payload, r.replaces);
  put_i64(payload, r.clock);
  put_i64(payload, r.readmit_not_before);
  put_u64(payload, r.placement_crc);
  put_i64(payload, r.cost);
  put_u64(payload, r.actions);
  put_pairs(payload, r.target);

  std::string frame;
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32_ieee(payload));
  frame += payload;
  return frame;
}

WalRecord parse_wal_payload(const char* data, std::size_t size) {
  constexpr const char* kWhat = "wal record parse error";
  Cursor c(data, size, kWhat);
  WalRecord r;
  const std::uint8_t type = c.u8();
  if (type < 1 || type > 3) {
    throw std::runtime_error(std::string(kWhat) + ": unknown record type " +
                             std::to_string(type));
  }
  r.type = static_cast<WalRecordType>(type);
  r.converged = c.u8() != 0;
  r.readmit = c.u8() != 0;
  (void)c.u8();  // reserved
  r.attempt = c.u32();
  r.seq = c.u64();
  r.replaces = c.u64();
  r.clock = c.i64();
  r.readmit_not_before = c.i64();
  r.placement_crc = c.u64();
  r.cost = c.i64();
  r.actions = c.u64();
  r.target = get_pairs(c, kWhat);
  if (!c.at_end()) {
    throw std::runtime_error(std::string(kWhat) + ": trailing payload bytes");
  }
  return r;
}

}  // namespace

WalWriter::~WalWriter() { close(); }

void WalWriter::create(const std::string& path, std::uint64_t generation,
                       bool fsync) {
  close();
  std::string header(kWalMagic, sizeof kWalMagic);
  put_u32(header, kWalVersion);
  put_u32(header, 0);  // reserved
  put_u64(header, generation);
  // Write the fresh WAL via the same tmp+rename dance as the checkpoint so
  // a crash during WAL rotation leaves the previous (stale-generation)
  // file intact rather than a half-written header.
  const std::string tmp = path + ".tmp";
  write_file_durably(tmp, header, fsync);
#if RTSP_CKP_POSIX
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + " failed");
  }
  if (fsync) fsync_parent_dir(path);
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) throw std::runtime_error("cannot reopen wal " + path);
#else
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("rename " + tmp + " -> " + path + " failed");
  }
  fd_ = 0;  // sentinel: stdio fallback reopens per append
#endif
  fsync_ = fsync;
  appended_ = 0;
  path_ = path;
}

void WalWriter::open_append(const std::string& path, std::uint64_t offset,
                            bool fsync) {
  close();
#if RTSP_CKP_POSIX
  fd_ = ::open(path.c_str(), O_WRONLY);
  if (fd_ < 0) throw std::runtime_error("cannot open wal " + path);
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot truncate wal " + path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot seek wal " + path);
  }
#else
  truncate_file(path, offset);
  fd_ = 0;
#endif
  fsync_ = fsync;
  appended_ = 0;
  path_ = path;
}

void WalWriter::append(const WalRecord& record) {
  if (!is_open()) {
    throw std::runtime_error("wal append on a closed writer");
  }
  const std::string frame = serialize_wal_record(record);
#if RTSP_CKP_POSIX
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("wal write failed for " + path_);
    }
    off += static_cast<std::size_t>(n);
  }
  if (fsync_) fsync_fd_or_throw(fd_, path_);
#else
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) throw std::runtime_error("cannot append wal " + path_);
  const std::size_t n = std::fwrite(frame.data(), 1, frame.size(), f);
  std::fclose(f);
  if (n != frame.size()) throw std::runtime_error("wal write failed for " + path_);
#endif
  ++appended_;
}

void WalWriter::close() {
#if RTSP_CKP_POSIX
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
#else
  fd_ = -1;
#endif
}

WalReadResult read_wal_file(const std::string& path) {
  constexpr const char* kWhat = "wal parse error";
  const std::string bytes = read_whole_file(path, kWhat);
  if (bytes.size() < kWalHeaderBytes) {
    throw std::runtime_error(std::string(kWhat) + ": file too short (" +
                             std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof kWalMagic) != 0) {
    throw std::runtime_error(std::string(kWhat) + ": bad magic");
  }
  Cursor head(bytes.data() + 8, kWalHeaderBytes - 8, kWhat);
  const std::uint32_t version = head.u32();
  if (version != kWalVersion) {
    throw std::runtime_error(std::string(kWhat) + ": unsupported version " +
                             std::to_string(version));
  }
  (void)head.u32();  // reserved

  WalReadResult result;
  result.generation = head.u64();
  std::size_t pos = kWalHeaderBytes;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    // Frame: u32 payload length, u32 payload CRC, payload. Anything that
    // does not parse cleanly from here on is a torn tail.
    if (pos + 8 > bytes.size()) break;
    Cursor frame(bytes.data() + pos, 8, kWhat);
    const std::uint32_t len = frame.u32();
    const std::uint32_t crc = frame.u32();
    if (len > (std::uint32_t{1} << 30)) break;  // absurd length: corrupt
    if (pos + 8 + len > bytes.size()) break;    // truncated payload
    const char* payload = bytes.data() + pos + 8;
    if (crc32_ieee(static_cast<const void*>(payload), len) != crc) {
      break;  // bit rot or torn write
    }
    WalRecord record;
    try {
      record = parse_wal_payload(payload, len);
    } catch (const std::runtime_error&) {
      break;  // framing passed but payload malformed: treat as torn
    }
    result.records.push_back(std::move(record));
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  result.rolled_back_bytes = bytes.size() - result.valid_bytes;
  return result;
}

void truncate_file(const std::string& path, std::uint64_t valid_bytes) {
#if RTSP_CKP_POSIX
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    throw std::runtime_error("cannot truncate " + path);
  }
#else
  const std::string bytes = read_whole_file(path, "truncate");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot truncate " + path);
  std::fwrite(bytes.data(), 1,
              std::min<std::size_t>(bytes.size(),
                                    static_cast<std::size_t>(valid_bytes)),
              f);
  std::fclose(f);
#endif
}

}  // namespace rtsp
