// Per-layer accounting of a traced phase. The benchmark's own spans wrap
// each public call (io.load, core.lower_bound, heuristics.run, core.cost,
// io.write, daemon.admit, daemon.step) and the program's recorder adds the
// spans src/ already emits (build.*, improve.*, h1/h2 passes, op1 rounds,
// execute, execute.replan). Spans of one thread nest, so a span's parent is
// the innermost open span that contains it.
#include <algorithm>
#include <cctype>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string lowercase(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Layer a span belongs to; the benchmark's spans already carry theirs.
std::string layer_of(const std::string& span) {
  if (span == "bench.op") return "unattributed";
  if (span.rfind("build.", 0) == 0) return "heuristics.build";
  if (span.rfind("improve.", 0) == 0) return "heuristics." + lowercase(span.substr(8));
  if (span == "h1.pass" || span == "h2.pass" || span == "op1.round") {
    return "heuristics." + span.substr(0, span.find('.'));
  }
  if (span == "execute") return "exec.execute";
  if (span == "execute.replan") return "exec.replan";
  return span;
}

}  // namespace

double LayerTable::self(const std::string& layer) const {
  const auto it = rows.find(layer);
  return it == rows.end() ? 0.0 : it->second.self_s;
}

double LayerTable::inclusive(const std::string& layer) const {
  const auto it = rows.find(layer);
  return it == rows.end() ? 0.0 : it->second.inclusive_s;
}

LayerTable fold_trace(const std::vector<rtsp::obs::TraceEvent>& events) {
  using rtsp::obs::TraceEvent;
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::Complete) by_thread[e.tid].push_back(&e);
  }

  LayerTable table;
  struct Open {
    std::uint64_t end_ns;
    std::string layer;
    LayerTable::Row* row;
  };
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, then the longer span, then the span
    // opened first (ids grow as spans open).
    std::sort(spans.begin(), spans.end(), [](const TraceEvent* a, const TraceEvent* b) {
      if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
      if (a->dur_ns != b->dur_ns) return a->dur_ns > b->dur_ns;
      return a->span_id < b->span_id;
    });
    std::vector<Open> open;
    for (const TraceEvent* e : spans) {
      while (!open.empty() && open.back().end_ns <= e->ts_ns) open.pop_back();
      const std::string layer = layer_of(e->name);
      const double dur = e->dur_ns * 1e-9;
      LayerTable::Row& row = table.rows[layer];
      row.self_s += dur;
      ++row.spans;
      const bool nested_in_same = std::any_of(
          open.begin(), open.end(), [&](const Open& o) { return o.layer == layer; });
      if (!nested_in_same) row.inclusive_s += dur;
      if (open.empty()) {
        table.op_s += dur;
      } else {
        open.back().row->self_s -= dur;
      }
      open.push_back({e->ts_ns + e->dur_ns, layer, &row});
    }
  }
  return table;
}

void print_layer_table(const LayerTable& table, double ops, const char* op_name) {
  std::vector<std::pair<std::string, LayerTable::Row>> rows;
  for (const auto& [layer, row] : table.rows) {
    if (layer != "unattributed") rows.emplace_back(layer, row);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  const auto it = table.rows.find("unattributed");
  rows.emplace_back("unattributed", it == table.rows.end() ? LayerTable::Row{} : it->second);

  const double per = ops > 0 ? 1.0 / ops : 0.0;
  std::printf("layer self time per %s (%.0f %ss traced):\n", op_name, ops, op_name);
  std::printf("  %-24s %14s %8s %10s\n", "layer", "self s/op", "share", "spans");
  for (const auto& [layer, row] : rows) {
    std::printf("  %-24s %14.6f %7.2f%% %10llu\n", layer.c_str(), row.self_s * per,
                table.op_s > 0 ? 100.0 * row.self_s / table.op_s : 0.0,
                static_cast<unsigned long long>(row.spans));
  }
  std::printf("  %-24s %14.6f %7.2f%%\n", "total", table.op_s * per, 100.0);
}

}  // namespace perfbench
