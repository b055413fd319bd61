// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Workloads: live_fanout, reconnect_catchup, sim_fig4_codec (see
// perfbench/README.md). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. The line
// before it records provenance (host, build, settings, validity) and every
// measured metric the result line does not carry. A run that aborts exits
// with status 1 after both lines. A traced run also writes
// DIR/trace/<workload>.seed<N>.trace.json (Chrome trace events) and
// .summary.json (per-layer metrics and span totals).
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload measures each of these (README.md says how the simulator
// workload reads the CPU per event). None is a wall-clock latency: CPU
// steal on a shared host moves those several-fold (README.md, Noise).
constexpr MetricDef kEndToEnd[] = {
    {"broker_cpu_us_per_event", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// The latencies, the throughputs, the catch-up times and failed_frac come
// first: too noisy on a shared host for a regression bound (README.md,
// Noise), or 0 on every correct run. They are reported without a bound in
// the traced run; an untraced run records its own values in the provenance
// line. A metric a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"failed_frac", "fraction"},
    {"sim_deliveries_per_s", "1/s"},
    {"peak_goodput_eps", "1/s"},
    {"e2e_p50_ms", "ms"},
    {"ack_p50_ms", "ms"},
    {"e2e_p99_ms", "ms"},
    {"ack_p99_ms", "ms"},
    {"catchup_p50_ms", "ms"},
    {"catchup_p90_ms", "ms"},
    {"catchup_eps", "1/s"},
    {"net.phb.busy_frac", "fraction"},
    {"net.shb.busy_frac", "fraction"},
    {"net.sys_us_per_event", "us"},
    {"net.polls_per_event", "count"},
    {"net.timers_per_event", "count"},
    {"net.tx_bytes_per_event", "bytes"},
    {"net.reassembly_ns_per_frame", "ns"},
    {"wire.encode_ns_per_frame", "ns"},
    {"wire.decode_ns_per_frame", "ns"},
    {"wire.frames_per_event", "count"},
    {"storage.append_us_per_record", "us"},
    {"storage.records_per_barrier", "count"},
    {"storage.bytes_per_event", "bytes"},
    {"storage.live_mb", "MB"},
    {"matching.match_ns_per_event", "ns"},
    {"matching.candidates_per_event", "count"},
    {"routing.istream_hit_frac", "fraction"},
    {"routing.nacks_per_catchup", "count"},
    {"routing.phb_nack_events_per_catchup", "count"},
    {"core.pfs_records_per_event", "count"},
    {"core.pfs_bytes_per_record", "bytes"},
    {"core.pfs_read_records_per_catchup", "count"},
    {"core.pfs_read_us_per_record", "us"},
    {"core.switchover_frac", "fraction"},
    {"core.publish_dup_frac", "fraction"},
    {"core.gaps", "count"},
    {"sim.tasks_per_delivery", "count"},
    {"sim.ns_per_task", "ns"},
    {"sim.allocs_per_task", "count"},
    {"gen.lag_p99_ms", "ms"},
    {"gen.busy_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance(const RunConfig& config, const Result& r,
                       const std::map<std::string, double>& shown) {
  utsname u{};
  uname(&u);
  std::string out = "{\"provenance\":{";
  const auto field = [&](const std::string& k, const std::string& v) {
    out += json_string(k) + ":" + json_string(v) + ",";
  };
  field("workload", config.workload);
  field("seed", std::to_string(config.seed));
  field("seconds", json_number(config.seconds));
  field("trace", config.trace ? "1" : "0");
  field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  field("cpu_model", cpu_model());
  field("kernel", std::string(u.sysname) + " " + u.release);
  field("compiler", std::string("g++ ") + __VERSION__);
  field("build_type", PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : r.notes) field(k, v);
  for (const auto& why : r.failures) field("failure", why);
  // Every metric the run measured that the result line does not carry.
  out += "\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : r.metrics) {
    if (shown.count(name) != 0) continue;
    out += std::string(first ? "" : ",") + json_string(name) + ":" + json_number(v);
    first = false;
  }
  return out + "}}}";
}

void write_trace_files(const RunConfig& config, const Result& r,
                       const std::map<std::string, double>& layer) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(config.work_dir) / "trace";
  fs::create_directories(dir);
  const std::string stem =
      (dir / (config.workload + ".seed" + std::to_string(config.seed))).string();
  std::vector<const SpanLog*> logs;
  for (const auto& s : r.spans) {
    if (s != nullptr) logs.push_back(s.get());
  }
  std::int64_t epoch = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const auto& span : log->kept()) epoch = std::min(epoch, span.start_ns);
  }
  if (epoch == INT64_MAX) epoch = 0;
  if (!write_chrome_trace(stem + ".trace.json", logs, epoch)) {
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n", stem.c_str());
  }
  std::ofstream out(stem + ".summary.json");
  out << "{\"workload\":" << json_string(config.workload) << ",\"seed\":" << config.seed
      << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, v] : layer) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  out << "},\"spans\":{";
  first = true;
  for (const auto& [name, t] : r.span_summary) {
    out << (first ? "" : ",") << json_string(name) << ":{\"count\":" << t.count
        << ",\"wall_us\":" << json_number(static_cast<double>(t.wall_ns) / 1e3)
        << ",\"cpu_us\":" << json_number(static_cast<double>(t.cpu_ns) / 1e3) << "}";
    first = false;
  }
  out << "}}\n";
  std::fprintf(stderr, "perfbench: wrote %s.trace.json and %s.summary.json\n", stem.c_str(),
               stem.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload live_fanout|reconnect_catchup|sim_fig4_codec "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

int run(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      config.seconds = std::stod(value);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || config.work_dir.empty() || config.seconds <= 0) return usage();

  Result r;
  bool aborted = false;
  try {
    if (config.workload == "live_fanout") {
      r = run_live_fanout(config);
    } else if (config.workload == "reconnect_catchup") {
      r = run_reconnect_catchup(config);
    } else if (config.workload == "sim_fig4_codec") {
      r = run_sim_fig4_codec(config);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    // What the aborted run measured is not comparable: every delivery
    // counts as failed, and the exit status says so.
    aborted = true;
    r.metrics.clear();
    r.failed = std::max<std::uint64_t>(r.attempted, 1);
    r.metrics["failed_frac"] = 1;
    r.failures.push_back(std::string("run aborted: ") + e.what());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::map<std::string, double> shown;
  const auto pick = [&](const auto& defs) {
    for (const MetricDef& m : defs) {
      const auto it = r.metrics.find(m.name);
      shown[m.name] = it == r.metrics.end() ? 0 : it->second;
    }
  };
  if (config.trace) {
    pick(kPerLayer);
    write_trace_files(config, r, shown);
  } else {
    pick(kEndToEnd);
  }

  std::printf("%s\n", provenance(config, r, shown).c_str());
  const std::uint64_t attempted = std::max<std::uint64_t>(r.attempted, 1);
  const bool correct = r.failed == 0 && r.failures.empty();
  std::string line = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(std::min(r.failed, attempted)) +
                     ",\"metrics\":{";
  bool first = true;
  const auto emit = [&](const auto& defs) {
    for (const MetricDef& m : defs) {
      line += std::string(first ? "" : ",") + json_string(m.name) +
              ":{\"value\":" + json_number(shown[m.name]) + ",\"unit\":" + json_string(m.unit) +
              "}";
      first = false;
    }
  };
  if (config.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return aborted ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
