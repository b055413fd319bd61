// gryphon_report — offline analyzer for the observability artifacts.
//
// Two modes:
//
//   gryphon_report SCRAPE.ndjson
//     Reads a --metrics-interval NDJSON scrape (one snapshot per line) and
//     prints per-counter totals and rates ((last - first) / elapsed) plus
//     the per-stage latency percentile table from the final snapshot.
//
//   gryphon_report --validate-trace trace.json [--expect-fault-track]
//     Minimal Chrome trace-event validation: the file must parse as JSON,
//     have a traceEvents array, and its event timestamps must be
//     non-decreasing (metadata "M" events are exempt — they carry no ts).
//     --expect-fault-track additionally requires the dedicated faults
//     process plus at least one fault event (what a chaos export promises).
//
//   gryphon_report --check-bench BENCH.json [--baseline COMMITTED.json]
//     Checks a gryphon-bench-v2 artifact (bench/bench_common.hpp): required
//     fields and blocks, every gate recomputed, and with --baseline each
//     baseline_tolerance metric against (1 - tolerance) x the committed value.
//
// Exit code 0 on success, 1 on validation/analysis failure, 2 on usage.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_gate.hpp"

namespace {

// ------------------------------------------------------------ tiny JSON
// Self-contained recursive-descent parser (the repo deliberately has no
// third-party deps). Good enough for machine-generated JSON: objects,
// arrays, strings with standard escapes, numbers, true/false/null.
struct JValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JValue> array;
  std::vector<std::pair<std::string, JValue>> object;  // insertion order

  [[nodiscard]] const JValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();  // no trailing garbage
  }

  [[nodiscard]] std::string error() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s at byte %zu", err_.c_str(), pos_);
    return buf;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool fail(const char* what) {
    if (err_.empty()) err_ = what;
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool parse_value(JValue& out) {
    if (pos_ >= s_.size()) return fail("unexpected end");
    switch (s_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out.kind = JValue::Kind::kString; return parse_string(out.string);
      case 't': out.kind = JValue::Kind::kBool; out.boolean = true; return literal("true");
      case 'f': out.kind = JValue::Kind::kBool; out.boolean = false; return literal("false");
      case 'n': out.kind = JValue::Kind::kNull; return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JValue& out) {
    out.kind = JValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JValue& out) {
    out.kind = JValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      JValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') { out += c; continue; }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
          pos_ += 4;  // validated length only; analyzer never needs the glyph
          out += '?';
          break;
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JValue& out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out.number = std::strtod(start, &end);
    if (end == start) return fail("bad number");
    out.kind = JValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
};

bool read_file(const char* path, std::string& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

/// Reads and parses one JSON document, reporting why when it cannot.
bool load_json(const char* path, JValue& root) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "gryphon_report: cannot read %s\n", path);
    return false;
  }
  JsonParser parser(text);
  if (!parser.parse(root)) {
    std::fprintf(stderr, "gryphon_report: %s is not valid JSON: %s\n", path,
                 parser.error().c_str());
    return false;
  }
  return true;
}

// ------------------------------------------------------- trace validation
int validate_trace(const char* path, bool expect_fault_track) {
  JValue root;
  if (!load_json(path, root)) return 1;
  const JValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JValue::Kind::kArray) {
    std::fprintf(stderr, "gryphon_report: %s has no traceEvents array\n", path);
    return 1;
  }

  double last_ts = -1.0;
  std::size_t timed_events = 0;
  bool fault_track_named = false;
  std::size_t fault_events = 0;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JValue& e = events->array[i];
    if (e.kind != JValue::Kind::kObject) {
      std::fprintf(stderr, "gryphon_report: event %zu is not an object\n", i);
      return 1;
    }
    const JValue* ph = e.find("ph");
    if (ph == nullptr || ph->kind != JValue::Kind::kString) {
      std::fprintf(stderr, "gryphon_report: event %zu has no ph\n", i);
      return 1;
    }
    if (ph->string == "M") {
      const JValue* name = e.find("name");
      const JValue* args = e.find("args");
      const JValue* aname = args != nullptr ? args->find("name") : nullptr;
      if (name != nullptr && name->string == "process_name" && aname != nullptr &&
          aname->string == "faults") {
        fault_track_named = true;
      }
      continue;  // metadata carries no timeline position
    }
    const JValue* ts = e.find("ts");
    if (ts == nullptr || ts->kind != JValue::Kind::kNumber) {
      std::fprintf(stderr, "gryphon_report: event %zu has no numeric ts\n", i);
      return 1;
    }
    if (ts->number < last_ts) {
      std::fprintf(stderr,
                   "gryphon_report: event %zu goes backwards in time "
                   "(ts %.0f after %.0f)\n",
                   i, ts->number, last_ts);
      return 1;
    }
    last_ts = ts->number;
    ++timed_events;
    const JValue* cat = e.find("cat");
    if (cat != nullptr && cat->string == "fault") ++fault_events;
  }

  if (expect_fault_track && (!fault_track_named || fault_events == 0)) {
    std::fprintf(stderr,
                 "gryphon_report: %s lacks a faults track (named: %s, fault "
                 "events: %zu)\n",
                 path, fault_track_named ? "yes" : "no", fault_events);
    return 1;
  }
  std::printf("%s: OK — %zu timed events, monotonic timestamps, %zu fault events\n",
              path, timed_events, fault_events);
  return 0;
}

// --------------------------------------------------------- scrape report
int report_scrape(const char* path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "gryphon_report: cannot read %s\n", path);
    return 1;
  }
  std::vector<JValue> snapshots;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    if (end > start) {
      const std::string line = text.substr(start, end - start);
      JValue v;
      JsonParser parser(line);
      if (!parser.parse(v)) {
        std::fprintf(stderr, "gryphon_report: %s line %zu: %s\n", path, line_no,
                     parser.error().c_str());
        return 1;
      }
      snapshots.push_back(std::move(v));
    }
    start = end + 1;
  }
  if (snapshots.empty()) {
    std::fprintf(stderr, "gryphon_report: %s has no snapshots\n", path);
    return 1;
  }

  const JValue& first = snapshots.front();
  const JValue& last = snapshots.back();
  const JValue* t0 = first.find("t");
  const JValue* t1 = last.find("t");
  if (t0 == nullptr || t1 == nullptr) {
    std::fprintf(stderr, "gryphon_report: snapshots lack a \"t\" field\n");
    return 1;
  }
  const double elapsed = t1->number - t0->number;
  std::printf("scrape: %zu snapshots over %.1f sim-seconds (t=%.1f .. %.1f)\n\n",
              snapshots.size(), elapsed, t0->number, t1->number);

  // Per-counter totals and rates, node by node.
  const JValue* nodes1 = last.find("nodes");
  const JValue* nodes0 = first.find("nodes");
  if (nodes1 != nullptr && nodes1->kind == JValue::Kind::kObject) {
    std::printf("%-8s %-34s %14s %12s\n", "node", "counter", "total", "rate/s");
    for (const auto& [node_name, node1] : nodes1->object) {
      const JValue* counters1 = node1.find("counters");
      if (counters1 == nullptr) continue;
      const JValue* node0 =
          nodes0 != nullptr ? nodes0->find(node_name) : nullptr;
      const JValue* counters0 = node0 != nullptr ? node0->find("counters") : nullptr;
      for (const auto& [name, v1] : counters1->object) {
        if (v1.number == 0) continue;
        const JValue* v0 =
            counters0 != nullptr ? counters0->find(name) : nullptr;
        const double delta = v1.number - (v0 != nullptr ? v0->number : 0.0);
        if (elapsed > 0) {
          std::printf("%-8s %-34s %14.0f %12.1f\n", node_name.c_str(), name.c_str(),
                      v1.number, delta / elapsed);
        } else {
          std::printf("%-8s %-34s %14.0f %12s\n", node_name.c_str(), name.c_str(),
                      v1.number, "-");
        }
      }
    }
    std::printf("\n");
  }

  // Latency percentile table from the final snapshot.
  const JValue* latency = last.find("latency");
  const JValue* stages = latency != nullptr ? latency->find("stages") : nullptr;
  if (stages != nullptr && stages->kind == JValue::Kind::kObject) {
    std::printf("%-22s %10s %10s %10s %10s %10s\n", "latency stage (ms)", "count",
                "p50", "p90", "p99", "p999");
    for (const auto& [stage_name, s] : stages->object) {
      const JValue* count = s.find("count");
      if (count == nullptr || count->number == 0) continue;
      const auto p = [&s](const char* key) {
        const JValue* v = s.find(key);
        return v != nullptr ? v->number : 0.0;
      };
      std::printf("%-22s %10.0f %10.2f %10.2f %10.2f %10.2f\n", stage_name.c_str(),
                  count->number, p("p50"), p("p90"), p("p99"), p("p999"));
    }
    const JValue* orphans = latency->find("orphan_transitions");
    const JValue* dropped = latency->find("dropped_keys");
    std::printf("\nbookkeeping: orphan transitions %.0f, dropped keys %.0f\n",
                orphans != nullptr ? orphans->number : 0.0,
                dropped != nullptr ? dropped->number : 0.0);
  } else {
    std::printf("(no latency block in final snapshot)\n");
  }
  return 0;
}

// ------------------------------------------------------ bench artifacts

/// The number at `obj[key]`; NaN when absent or not a number (JSON null).
double number_at(const JValue* obj, const std::string& key) {
  const JValue* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->kind == JValue::Kind::kNumber ? v->number : std::nan("");
}

/// An object's members; none for a missing block (already reported).
const std::vector<std::pair<std::string, JValue>>& members(const JValue* obj) {
  static const std::vector<std::pair<std::string, JValue>> kNone;
  return obj != nullptr ? obj->object : kNone;
}

/// `metric` of workload `name` in a committed artifact, its post_pr variant
/// preferred over its run variant; NaN when neither records it.
double committed_value(const JValue& committed, const std::string& name,
                       const std::string& metric) {
  const JValue* workloads = committed.find("workloads");
  if (workloads == nullptr) return std::nan("");
  for (const char* variant : {"post_pr", "run"}) {
    for (const JValue& w : workloads->array) {
      const JValue* n = w.find("name");
      const JValue* v = w.find("variant");
      if (n != nullptr && n->string == name && v != nullptr && v->string == variant) {
        return number_at(w.find("metrics"), metric);
      }
    }
  }
  return std::nan("");
}

int check_bench(const char* path, const char* baseline_path) {
  JValue root;
  JValue committed;
  if (!load_json(path, root) ||
      (baseline_path != nullptr && !load_json(baseline_path, committed))) {
    return 1;
  }
  using K = JValue::Kind;
  std::vector<std::string> errors;
  // `obj[key]` when it has `kind`, else nullptr and an error naming it.
  const auto need = [&errors](const JValue& obj, const char* key, K kind,
                              const std::string& where) -> const JValue* {
    const JValue* v = obj.find(key);
    if (v != nullptr && v->kind == kind) return v;
    errors.push_back(where + ": missing or mistyped \"" + key + "\"");
    return nullptr;
  };
  const auto g = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };

  const JValue* schema = need(root, "schema", K::kString, "file");
  if (schema != nullptr && schema->string != "gryphon-bench-v2") {
    errors.push_back("file: schema is not gryphon-bench-v2");
  }
  if (const JValue* host = need(root, "host", K::kObject, "file")) {
    need(*host, "machine", K::kString, "host");
    need(*host, "kernel", K::kString, "host");
    need(*host, "nproc", K::kNumber, "host");
  }
  need(root, "build_type", K::kString, "file");
  const JValue* workloads = need(root, "workloads", K::kArray, "file");
  if (workloads != nullptr && workloads->array.empty()) errors.push_back("file: no workloads");

  std::size_t gates = 0;
  std::size_t floors = 0;
  static const std::vector<JValue> kNoWorkloads;
  for (const JValue& w : workloads != nullptr ? workloads->array : kNoWorkloads) {
    const JValue* name = need(w, "name", K::kString, "workload");
    const std::string where = "workload " + (name != nullptr ? name->string : "?");
    need(w, "variant", K::kString, where);
    if (!(number_at(&w, "reps") >= 1)) errors.push_back(where + ": reps missing or < 1");
    for (const char* block :
         {"metrics", "spread", "counters", "latency", "gates", "baseline_tolerance"}) {
      need(w, block, K::kObject, where);
    }
    for (const auto& [metric, spread] : members(w.find("spread"))) {
      if (!(number_at(&spread, "min") <= number_at(&spread, "max"))) {
        errors.push_back(where + ": spread " + metric + " is not a min <= max pair");
      }
    }

    // A gate reads a recorded value: its name must be a metrics, counters or
    // latency key holding the same number, so a missing block or a value the
    // run never produced fails its gate like a broken bound does.
    for (const auto& [gate, spec] : members(w.find("gates"))) {
      ++gates;
      double recorded = std::nan("");
      for (const char* block : {"metrics", "counters", "latency"}) {
        if (std::isnan(recorded)) recorded = number_at(w.find(block), gate);
      }
      const double value = number_at(&spec, "value");
      const JValue* op = spec.find("op");
      const std::string op_text = op != nullptr ? op->string : "?";
      if (recorded != value ||
          !gryphon::bench::gate_holds(value, op_text, number_at(&spec, "bound"))) {
        errors.push_back(where + ": gate " + gate + " fails: " + g(value) + " " + op_text +
                         " " + g(number_at(&spec, "bound")) + " (recorded " +
                         g(recorded) + ")");
      }
    }

    for (const auto& [metric, tolerance] : members(w.find("baseline_tolerance"))) {
      const double got = number_at(w.find("metrics"), metric);
      const double tol = tolerance.kind == K::kNumber ? tolerance.number : std::nan("");
      if (!(tol >= 0 && tol < 1) || std::isnan(got)) {
        errors.push_back(where + ": baseline_tolerance " + metric +
                         " needs a tolerance in [0, 1) and a recorded metric");
        continue;
      }
      if (baseline_path == nullptr) continue;
      const double ref = committed_value(committed, name != nullptr ? name->string : "", metric);
      if (std::isnan(ref)) {
        std::printf("%s: no committed %s, no floor applied\n", where.c_str(), metric.c_str());
        continue;
      }
      ++floors;
      const double floor = (1.0 - tol) * ref;
      std::printf("%s %s: %g vs floor %g = (1 - %g) x committed %g: %s\n", where.c_str(),
                  metric.c_str(), got, floor, tol, ref, got >= floor ? "ok" : "BELOW FLOOR");
      if (got < floor) errors.push_back(where + ": " + metric + " below its committed floor");
    }
  }

  for (const auto& e : errors) std::fprintf(stderr, "gryphon_report: %s: %s\n", path, e.c_str());
  if (!errors.empty()) return 1;
  std::printf("%s: OK — %zu workloads, %zu gates hold, %zu baseline floors met\n", path,
              workloads->array.size(), gates, floors);
  return 0;
}

void usage() {
  std::fputs(
      "gryphon_report — analyze observability artifacts\n"
      "  gryphon_report SCRAPE.ndjson\n"
      "      per-counter totals/rates + latency percentile table from a\n"
      "      gryphon_sim --metrics-interval scrape\n"
      "  gryphon_report --validate-trace trace.json [--expect-fault-track]\n"
      "      JSON well-formedness + monotonic-timestamp check for a\n"
      "      --trace-out export\n"
      "  gryphon_report --check-bench BENCH.json [--baseline COMMITTED.json]\n"
      "      schema, gate and committed-floor check of a bench artifact\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--validate-trace") == 0) {
    bool expect_faults = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--expect-fault-track") == 0) {
        expect_faults = true;
      } else {
        usage();
        return 2;
      }
    }
    return validate_trace(argv[2], expect_faults);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--check-bench") == 0) {
    if (argc == 3) return check_bench(argv[2], nullptr);
    if (argc == 5 && std::strcmp(argv[3], "--baseline") == 0) {
      return check_bench(argv[2], argv[4]);
    }
    usage();
    return 2;
  }
  if (argc == 2 && argv[1][0] != '-') {
    return report_scrape(argv[1]);
  }
  usage();
  return 2;
}
