// Validates the flight-recorder artifacts of an `rtsp execute` run against
// their versioned schemas:
//
//   obs_lint --journal FILE     execution journal JSONL (io/journal_io)
//   obs_lint --series FILE      metrics time-series (.csv or JSONL)
//   obs_lint --log FILE         structured log JSONL (`rtsp-log` v1)
//   obs_lint --prom FILE        Prometheus text exposition (obs/export)
//   obs_lint --scrape-smoke     start an in-process introspect server,
//                               scrape /metrics /healthz /progress /logz
//                               over real HTTP and lint the payloads
//                               (curl-free; used by scripts/check.sh)
//   obs_lint --checkpoint FILE  daemon checkpoint (`RTSPCKP2` or `RTSPCKP1`)
//   obs_lint --wal FILE         daemon write-ahead log (`RTSPWAL1`)
//
// Any combination may be given. Checks beyond "it parses":
//   journal: known event types; non-negative costs/ids in bounds; ticks
//            non-decreasing in emission order (the executor journals in
//            program order, and drop-newest overflow keeps the retained
//            prefix well-formed); offline_open/offline_close strictly
//            matched per server with equal stall values; event count
//            matches the header.
//   series:  wall_ns non-decreasing; tick >= -1 (-1 = wall sample);
//            non-empty labels; counter deltas present only with non-zero
//            values.
//   log:     versioned header; seq strictly increasing; known levels;
//            non-empty messages; fields (when present) an object of
//            scalars.
//   prom:    every line a header or sample; TYPE before samples; histogram
//            buckets cumulative with le="+Inf" last and equal to _count.
//   checkpoint: CRC-verified parse; canonical (server-major ascending,
//            duplicate-free, in-bounds) placement and queue target
//            differences, each applying cleanly to the target before it;
//            queue seqs unique/ascending and <= last_seq; counters
//            internally consistent.
//   wal:     CRC-framed parse; a torn tail is a violation (a daemon at
//            rest must have rolled it back); ADMIT seqs ascending; at
//            most one BEGIN open at a time and every COMMIT matches the
//            open BEGIN. With --checkpoint given too, the generations
//            must agree.
//
// Exit code 0 when everything passes, 2 on any violation (messages on
// stderr), 1 on usage/IO errors. Wired into scripts/check.sh after a small
// execute + report smoke run.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/checkpoint_io.hpp"
#include "io/journal_io.hpp"
#include "obs/export.hpp"
#include "obs/introspect.hpp"
#include "obs/journal.hpp"
#include "obs/logging.hpp"
#include "obs/series_io.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/net.hpp"

namespace {

int g_violations = 0;

void fail(const std::string& what) {
  std::cerr << "obs_lint: " << what << '\n';
  ++g_violations;
}

void lint_journal(const std::string& path) {
  const rtsp::JournalDoc doc = rtsp::read_journal_file(path);
  // read_journal_file already enforced the format name, version and known
  // event types; re-check the structural invariants the executor promises.
  std::int64_t last_tick = 0;
  // server -> open stall value; offline windows never nest per server.
  std::map<std::int64_t, std::int64_t> open_offline;
  std::size_t line = 0;
  for (const rtsp::obs::JournalEvent& e : doc.events) {
    ++line;
    const std::string where =
        path + ": event " + std::to_string(line) + " (" +
        rtsp::obs::to_string(e.type) + ")";
    if (e.tick < 0) fail(where + ": negative tick " + std::to_string(e.tick));
    if (e.tick < last_tick) {
      fail(where + ": tick " + std::to_string(e.tick) +
           " decreases below " + std::to_string(last_tick));
    }
    last_tick = e.tick;
    if (e.value < 0) fail(where + ": negative value " + std::to_string(e.value));
    if (e.server < -1) fail(where + ": server id " + std::to_string(e.server));
    if (e.object < -1) fail(where + ": object id " + std::to_string(e.object));
    if (e.source < -2) fail(where + ": source id " + std::to_string(e.source));
    switch (e.type) {
      case rtsp::obs::JournalEventType::OfflineOpen:
        if (open_offline.count(e.server) != 0) {
          fail(where + ": offline_open while server " +
               std::to_string(e.server) + " already open");
        }
        open_offline[e.server] = e.value;
        break;
      case rtsp::obs::JournalEventType::OfflineClose: {
        auto it = open_offline.find(e.server);
        if (it == open_offline.end()) {
          fail(where + ": offline_close without matching open on server " +
               std::to_string(e.server));
        } else {
          if (it->second != e.value) {
            fail(where + ": offline_close stall " + std::to_string(e.value) +
                 " != open stall " + std::to_string(it->second));
          }
          open_offline.erase(it);
        }
        break;
      }
      case rtsp::obs::JournalEventType::AttemptStart:
      case rtsp::obs::JournalEventType::AttemptSuccess:
      case rtsp::obs::JournalEventType::TransientFault:
        if (e.server < 0 || e.object < 0) {
          fail(where + ": attempt without server/object ids");
        }
        if (e.extra < 1) {
          fail(where + ": attempt number " + std::to_string(e.extra) + " < 1");
        }
        break;
      default:
        break;
    }
  }
  if (!open_offline.empty()) {
    fail(path + ": " + std::to_string(open_offline.size()) +
         " offline_open without close at end of journal");
  }
  std::cout << "obs_lint: " << path << ": " << doc.events.size()
            << " events, " << doc.dropped << " dropped: "
            << (g_violations == 0 ? "OK" : "VIOLATIONS") << '\n';
}

void lint_series(const std::string& path) {
  const rtsp::obs::SeriesDoc doc = rtsp::obs::read_series_file(path);
  std::uint64_t last_wall = 0;
  std::size_t line = 0;
  const int before = g_violations;
  for (const rtsp::obs::SeriesSample& s : doc.samples) {
    ++line;
    const std::string where = path + ": sample " + std::to_string(line);
    if (s.wall_ns < last_wall) {
      fail(where + ": wall_ns decreases");
    }
    last_wall = s.wall_ns;
    if (s.tick < -1) fail(where + ": tick " + std::to_string(s.tick) + " < -1");
    if (s.label.empty()) fail(where + ": empty label");
    for (const auto& [name, delta] : s.counter_deltas) {
      if (name.empty()) fail(where + ": unnamed counter delta");
      if (delta == 0) fail(where + ": zero delta for counter '" + name + "'");
    }
  }
  std::cout << "obs_lint: " << path << ": " << doc.samples.size()
            << " samples, " << doc.dropped << " dropped: "
            << (g_violations == before ? "OK" : "VIOLATIONS") << '\n';
}

/// Shared `rtsp-log` v1 line validator: used for --log files and for the
/// /logz payload scraped in --scrape-smoke (identical bytes by design).
void lint_log_lines(std::istream& in, const std::string& where) {
  std::string line;
  if (!std::getline(in, line)) {
    fail(where + ": empty (missing header line)");
    return;
  }
  std::size_t records = 0;
  try {
    const rtsp::JsonValue header = rtsp::parse_json(line);
    if (header.at("format").as_string() != rtsp::obs::kLogFormatName) {
      fail(where + ": header format '" + header.at("format").as_string() +
           "' != rtsp-log");
    }
    if (header.at("version").as_int() != rtsp::obs::kLogFormatVersion) {
      fail(where + ": unsupported version " +
           std::to_string(header.at("version").as_int()));
    }
  } catch (const std::exception& e) {
    fail(where + ": header: " + e.what());
  }
  std::int64_t last_seq = -1;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string at = where + ": line " + std::to_string(line_no);
    try {
      const rtsp::JsonValue rec = rtsp::parse_json(line);
      const std::int64_t seq = rec.at("seq").as_int();
      if (seq <= last_seq) {
        fail(at + ": seq " + std::to_string(seq) + " not increasing");
      }
      last_seq = seq;
      if (rec.at("ts_ns").as_int() < 0) fail(at + ": negative ts_ns");
      if (rec.at("thread").as_int() < 0) fail(at + ": negative thread id");
      rtsp::obs::LogLevel level;
      if (!rtsp::obs::log_level_from_string(rec.at("level").as_string(),
                                            level)) {
        fail(at + ": unknown level '" + rec.at("level").as_string() + "'");
      }
      if (rec.at("msg").as_string().empty()) fail(at + ": empty msg");
      if (const rtsp::JsonValue* fields = rec.find("fields")) {
        for (const auto& [key, value] : fields->members()) {
          if (key.empty()) fail(at + ": unnamed field");
          if (value.is_object() || value.is_array()) {
            fail(at + ": field '" + key + "' is not a scalar");
          }
        }
      }
      ++records;
    } catch (const std::exception& e) {
      fail(at + ": " + e.what());
    }
  }
  std::cout << "obs_lint: " << where << ": " << records << " log records: "
            << (g_violations == 0 ? "OK" : "VIOLATIONS") << '\n';
}

void lint_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open log file: " + path);
  lint_log_lines(in, path);
}

void lint_prom_text(const std::string& text, const std::string& where) {
  std::vector<std::string> violations;
  rtsp::obs::lint_prometheus_text(text, violations);
  for (const std::string& v : violations) fail(where + ": " + v);
  std::cout << "obs_lint: " << where << ": "
            << (violations.empty() ? "OK" : "VIOLATIONS") << '\n';
}

void lint_prom(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open exposition file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  lint_prom_text(buffer.str(), path);
}

/// In-process scrape smoke: arm obs, populate one metric of each kind plus
/// a couple of log records and progress slots, start the introspect server
/// on an ephemeral loopback port, fetch every endpoint over real HTTP and
/// lint the payloads. Exercises the exact path `rtsp solve
/// --introspect-port` serves, without needing a long-running solve or curl.
void scrape_smoke() {
  using namespace rtsp;
  obs::set_enabled(true);
  obs::MetricsRegistry::instance().counter("lint.smoke_events").add(3);
  obs::MetricsRegistry::instance().gauge("lint.smoke_depth").set(7);
  obs::LatencyHistogram hist =
      obs::MetricsRegistry::instance().histogram("lint.smoke_latency");
  hist.record_ns(900);
  hist.record_ns(123456);
  obs::Logger::instance().configure(obs::LogLevel::Debug, "");
  obs::Logger::instance().log(obs::LogLevel::Info, "scrape smoke",
                              {obs::log_field("answer", 42)});
  obs::Progress::instance().set_stage("scrape-smoke");
  obs::Progress::instance().set_incumbent(42, 1);
  obs::Progress::instance().set_ticks(10, 100);

  obs::IntrospectOptions options;
  obs::IntrospectServer server(options);
  const std::uint16_t port = server.port();

  const net::HttpResponse metrics = net::http_get("127.0.0.1", port, "/metrics");
  if (metrics.status != 200) {
    fail("scrape /metrics: status " + std::to_string(metrics.status));
  }
  lint_prom_text(metrics.body, "scrape /metrics");

  const net::HttpResponse healthz = net::http_get("127.0.0.1", port, "/healthz");
  if (healthz.status != 200) {
    fail("scrape /healthz: status " + std::to_string(healthz.status));
  }
  try {
    const JsonValue doc = parse_json(healthz.body);
    if (doc.at("status").as_string() != "ok") {
      fail("scrape /healthz: status field '" + doc.at("status").as_string() +
           "'");
    }
  } catch (const std::exception& e) {
    fail(std::string("scrape /healthz: ") + e.what());
  }

  const net::HttpResponse progress =
      net::http_get("127.0.0.1", port, "/progress");
  if (progress.status != 200) {
    fail("scrape /progress: status " + std::to_string(progress.status));
  }
  try {
    const JsonValue doc = parse_json(progress.body);
    if (doc.at("stage").as_string() != "scrape-smoke") {
      fail("scrape /progress: unexpected stage '" +
           doc.at("stage").as_string() + "'");
    }
    if (doc.at("incumbent").at("cost").as_int() != 42) {
      fail("scrape /progress: incumbent cost mismatch");
    }
  } catch (const std::exception& e) {
    fail(std::string("scrape /progress: ") + e.what());
  }

  const net::HttpResponse logz =
      net::http_get("127.0.0.1", port, "/logz?n=10");
  if (logz.status != 200) {
    fail("scrape /logz: status " + std::to_string(logz.status));
  }
  std::istringstream logz_in(logz.body);
  lint_log_lines(logz_in, "scrape /logz");

  const net::HttpResponse missing = net::http_get("127.0.0.1", port, "/nope");
  if (missing.status != 404) {
    fail("scrape /nope: expected 404, got " + std::to_string(missing.status));
  }
  server.stop();
  obs::Logger::instance().shutdown();
}

void lint_pairs(const std::vector<std::pair<rtsp::ServerId, rtsp::ObjectId>>& pairs,
                std::uint64_t servers, std::uint64_t objects,
                const std::string& what) {
  bool first = true;
  std::uint64_t prev = 0;
  for (const auto& [s, k] : pairs) {
    if (s >= servers || k >= objects) {
      fail(what + ": pair (" + std::to_string(s) + "," + std::to_string(k) +
           ") out of " + std::to_string(servers) + "x" + std::to_string(objects));
      return;
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(s) << 32) | k;
    if (!first && key <= prev) {
      fail(what + ": pairs not in canonical server-major ascending order");
      return;
    }
    prev = key;
    first = false;
  }
}

rtsp::CheckpointDoc* g_checkpoint = nullptr;
rtsp::CheckpointDoc g_checkpoint_doc;

void lint_checkpoint(const std::string& path) {
  rtsp::CheckpointDoc doc;
  try {
    doc = rtsp::read_checkpoint_file(path);
  } catch (const std::exception& e) {
    fail(std::string("checkpoint: ") + e.what());
    return;
  }
  if (doc.servers == 0 || doc.objects == 0) {
    fail("checkpoint: zero-sized model");
  }
  if (doc.clock < 0) fail("checkpoint: negative clock");
  lint_pairs(doc.placement, doc.servers, doc.objects, "checkpoint placement");
  std::uint64_t prev_seq = 0;
  for (const rtsp::CheckpointQueueEntry& q : doc.queue) {
    if (q.seq <= prev_seq) {
      fail("checkpoint queue: seqs not strictly ascending");
      break;
    }
    prev_seq = q.seq;
    if (q.seq > doc.last_seq) {
      fail("checkpoint queue: seq " + std::to_string(q.seq) +
           " above last_seq " + std::to_string(doc.last_seq));
    }
    if (q.attempt == 0) fail("checkpoint queue: zero attempt");
    const std::string what = "checkpoint queue seq " + std::to_string(q.seq);
    lint_pairs(q.target.added, doc.servers, doc.objects, what + " added");
    lint_pairs(q.target.removed, doc.servers, doc.objects, what + " removed");
  }
  try {
    rtsp::checkpoint_queue_targets(doc);
  } catch (const std::exception& e) {
    fail(std::string("checkpoint queue: ") + e.what());
  }
  const rtsp::DaemonCounters& c = doc.counters;
  if (c.converged > c.admitted) {
    fail("checkpoint counters: converged above admitted");
  }
  if (c.readmissions > c.partial_rounds) {
    fail("checkpoint counters: readmissions above partial_rounds");
  }
  if (c.coalesced > c.admitted) {
    fail("checkpoint counters: coalesced above admitted");
  }
  if (c.cost_paid < 0) fail("checkpoint counters: negative cost_paid");
  g_checkpoint_doc = doc;
  g_checkpoint = &g_checkpoint_doc;
}

void lint_wal(const std::string& path) {
  rtsp::WalReadResult wal;
  try {
    wal = rtsp::read_wal_file(path);
  } catch (const std::exception& e) {
    fail(std::string("wal: ") + e.what());
    return;
  }
  if (wal.torn()) {
    fail("wal: torn tail (" + std::to_string(wal.rolled_back_bytes) +
         " bytes past the valid prefix) — a daemon at rest must roll it back");
  }
  if (g_checkpoint != nullptr && wal.generation != g_checkpoint->generation) {
    fail("wal generation " + std::to_string(wal.generation) +
         " does not match checkpoint generation " +
         std::to_string(g_checkpoint->generation));
  }
  std::uint64_t prev_admit = 0;
  bool open_begin = false;
  std::uint64_t begin_seq = 0;
  std::uint32_t begin_attempt = 0;
  for (std::size_t i = 0; i < wal.records.size(); ++i) {
    const rtsp::WalRecord& r = wal.records[i];
    const std::string at = "wal record " + std::to_string(i);
    if (r.attempt == 0) fail(at + ": zero attempt");
    switch (r.type) {
      case rtsp::WalRecordType::kAdmit:
        if (r.seq <= prev_admit) fail(at + ": admit seqs not ascending");
        prev_admit = r.seq;
        if (r.target.empty()) fail(at + ": admit without a target");
        break;
      case rtsp::WalRecordType::kBegin:
        if (open_begin) fail(at + ": BEGIN while another epoch is open");
        open_begin = true;
        begin_seq = r.seq;
        begin_attempt = r.attempt;
        break;
      case rtsp::WalRecordType::kCommit:
        if (!open_begin || r.seq != begin_seq || r.attempt != begin_attempt) {
          fail(at + ": COMMIT without matching BEGIN");
        }
        open_begin = false;
        if (r.converged && r.readmit) {
          fail(at + ": converged commit must not readmit");
        }
        if (r.cost < 0) fail(at + ": negative cost");
        break;
      default:
        fail(at + ": unknown record type");
    }
  }
  if (open_begin) {
    fail("wal: trailing BEGIN without COMMIT (recovery should have completed it)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const rtsp::CliOptions opt(argc, argv);
  const std::string journal = opt.get_string("journal", "", "");
  const std::string series = opt.get_string("series", "", "");
  const std::string log = opt.get_string("log", "", "");
  const std::string prom = opt.get_string("prom", "", "");
  const bool smoke = opt.get_bool("scrape-smoke", "", false);
  const std::string checkpoint = opt.get_string("checkpoint", "", "");
  const std::string wal = opt.get_string("wal", "", "");
  if (journal.empty() && series.empty() && log.empty() && prom.empty() &&
      checkpoint.empty() && wal.empty() && !smoke) {
    std::cerr << "usage: obs_lint [--journal FILE] [--series FILE] "
                 "[--log FILE] [--prom FILE] [--checkpoint FILE] "
                 "[--wal FILE] [--scrape-smoke]\n";
    return 1;
  }
  try {
    if (!journal.empty()) lint_journal(journal);
    if (!series.empty()) lint_series(series);
    if (!log.empty()) lint_log(log);
    if (!prom.empty()) lint_prom(prom);
    if (!checkpoint.empty()) lint_checkpoint(checkpoint);
    if (!wal.empty()) lint_wal(wal);
    if (smoke) scrape_smoke();
  } catch (const std::exception& e) {
    std::cerr << "obs_lint: " << e.what() << '\n';
    return 1;
  }
  return g_violations == 0 ? 0 : 2;
}
