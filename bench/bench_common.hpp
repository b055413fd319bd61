// Shared scaffolding for the figure/table reproduction benchmarks: the
// paper-default system configuration (§5's testbed translated through the
// DESIGN.md §4 substitutions), small table/series printers, and the one
// writer and gate rule of the BENCH_*.json artifacts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/utsname.h>
#include <unistd.h>

#include "bench/bench_gate.hpp"
#include "harness/system.hpp"
#include "harness/workload.hpp"

namespace gryphon::bench {

/// §5 defaults: RS/6000 F80-class brokers (6 cores), event logging at the
/// PHB dominating end-to-end latency at ~44 ms, SSA-class SHB disks, 1 ms
/// broker links, 4 pubends.
inline harness::SystemConfig paper_config() {
  harness::SystemConfig config;
  config.num_pubends = 4;
  config.broker.cores = 6;
  config.broker.costs.publish_base = usec(2000);
  config.phb_disk.sync_latency = msec(43);
  config.phb_disk.write_bandwidth_bytes_per_sec = 40e6;
  config.shb_disk.sync_latency = msec(4);
  config.shb_disk.read_seek_latency = msec(6);
  return config;
}

inline harness::PaperWorkloadConfig paper_workload() {
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 800.0;  // over 4 pubends
  wl.groups = 4;              // each subscriber matches 200 ev/s
  wl.payload_bytes = 250;     // 418 bytes with headers
  return wl;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 18) {
  for (const auto& cell : cells) std::printf("%-*s", width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// --- bench artifacts (gryphon-bench-v2) ---------------------------------
//
// Every committed BENCH_*.json is one write_bench_json() file: host, build
// type, and per workload its variant, reps, metrics, per-rep spread,
// registry counters, latency percentiles, declared gates and
// baseline-tolerance metrics. A bench declares gates on its reports and
// exits through gate_verdict(); `gryphon_report --check-bench` re-checks
// the file (README.md, Bench artifacts).

struct BenchMetric {
  std::string name;
  double value;
};

/// Min and max of one metric over a workload's reps.
struct MetricSpread {
  std::string name;
  double min;
  double max;
};

/// `value op bound` must hold; `name` is the metrics/counters/latency key
/// whose value the gate reads.
struct BenchGate {
  std::string name;
  double value;
  std::string op;
  double bound;
};

/// One measured workload under one build variant ("run", "post_pr",
/// "smoke", ...). The checker's baseline lookup prefers a committed post_pr
/// variant over a run variant of the same workload.
struct WorkloadReport {
  std::string name;
  std::string variant = "run";
  int reps = 1;
  std::vector<BenchMetric> metrics;
  std::vector<MetricSpread> spread;
  /// Broker-internal registry counters (summed across nodes).
  std::vector<BenchMetric> counters;
  /// Per-stage latency percentiles (LatencyRecorder): <stage>.count /
  /// .p50_ms / .p99_ms / .p999_ms.
  std::vector<BenchMetric> latency;
  std::vector<BenchGate> gates;
  /// Metrics checked against a committed artifact: metric -> tolerance.
  std::vector<BenchMetric> baseline_tolerance;

  /// The value of `key` in metrics, counters or latency; NaN when absent.
  [[nodiscard]] double value(const std::string& key) const {
    for (const auto* block : {&metrics, &counters, &latency}) {
      for (const auto& m : *block) {
        if (m.name == key) return m.value;
      }
    }
    return std::nan("");
  }

  /// Declares the gate `value(key) op bound`.
  void gate(const std::string& key, const std::string& op, double bound) {
    gates.push_back({key, value(key), op, bound});
  }

  /// Records the min/max of `metric` over per-rep values.
  void add_spread(const std::string& metric, const std::vector<double>& per_rep) {
    const auto [lo, hi] = std::minmax_element(per_rep.begin(), per_rep.end());
    spread.push_back({metric, *lo, *hi});
  }
};

/// Prints every declared gate's verdict; the bench's exit code.
inline int gate_verdict(const std::vector<WorkloadReport>& reports) {
  bool ok = true;
  for (const auto& r : reports) {
    for (const auto& g : r.gates) {
      const bool holds = gate_holds(g.value, g.op, g.bound);
      ok = ok && holds;
      std::printf("gate %s %s: %g %s %g %s\n", r.name.c_str(), g.name.c_str(), g.value,
                  g.op.c_str(), g.bound, holds ? "ok" : "FAILED");
    }
  }
  std::printf(ok ? "all gates passed\n" : "GATE FAILURE\n");
  return ok ? 0 : 1;
}

/// Sums every node's registry counters into the report's `counters` block
/// (probes refreshed first so storage totals are current). Counter names are
/// per-node-unique, so the sum over nodes is the system total.
inline void attach_registry_metrics(WorkloadReport& report, harness::System& system) {
  std::map<std::string, double> sums;
  for (auto* node : system.nodes()) {
    node->metrics.refresh_probes();
    node->metrics.for_each_counter(
        [&](const std::string& name, std::uint64_t v) {
          sums[name] += static_cast<double>(v);
        });
  }
  for (const auto& [name, v] : sums) report.counters.push_back({name, v});
}

/// Flattens the recorder's histograms into `latency` block entries. Every
/// stage is emitted (zero-count stages included) so the committed JSON's key
/// set never shifts between runs.
inline std::vector<BenchMetric> latency_percentile_metrics(
    const LatencyRecorder& recorder) {
  std::vector<BenchMetric> out;
  out.reserve(kNumLatencyStages * 4);
  for (std::size_t i = 0; i < kNumLatencyStages; ++i) {
    const auto stage = static_cast<LatencyStage>(i);
    const Histogram& h = recorder.stage(stage);
    const std::string prefix = latency_stage_name(stage);
    out.push_back({prefix + ".count", static_cast<double>(h.count())});
    out.push_back({prefix + ".p50_ms", h.percentile(50.0)});
    out.push_back({prefix + ".p99_ms", h.percentile(99.0)});
    out.push_back({prefix + ".p999_ms", h.percentile(99.9)});
  }
  return out;
}

/// A JSON number; a value the run never produced is written as null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

inline void write_bench_json(const std::string& path,
                             const std::vector<WorkloadReport>& reports) {
  std::ofstream out(path);
  GRYPHON_CHECK_MSG(out.good(), "cannot write " << path);
  // One `"key": {...}` block; `entry` writes each element's value.
  const auto block = [&out](const char* key, const auto& items, auto&& entry) {
    out << ",\n      \"" << key << "\": {";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "        \"" << items[i].name << "\": ";
      entry(items[i]);
    }
    out << (items.empty() ? "}" : "\n      }");
  };
  const auto number = [&out](const BenchMetric& m) { out << json_number(m.value); };

  utsname host{};
  uname(&host);
  out << "{\n  \"schema\": \"gryphon-bench-v2\",\n  \"host\": {\"machine\": \""
      << host.machine << "\", \"kernel\": \"" << host.release
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "},\n"
      << "  \"build_type\": \"" << GRYPHON_BUILD_TYPE << "\",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    out << "    {\n      \"name\": \"" << r.name << "\",\n      \"variant\": \""
        << r.variant << "\",\n      \"reps\": " << r.reps;
    block("metrics", r.metrics, number);
    block("spread", r.spread, [&out](const MetricSpread& s) {
      out << "{\"min\": " << json_number(s.min) << ", \"max\": " << json_number(s.max)
          << "}";
    });
    block("counters", r.counters, number);
    block("latency", r.latency, number);
    block("gates", r.gates, [&out](const BenchGate& g) {
      out << "{\"value\": " << json_number(g.value) << ", \"bound\": "
          << json_number(g.bound) << ", \"op\": \"" << g.op << "\"}";
    });
    block("baseline_tolerance", r.baseline_tolerance, number);
    out << "\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace gryphon::bench
