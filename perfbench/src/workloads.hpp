// The benchmark's workloads and what each returns to the driver.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout (WALs, replay files)
};

struct Result {
  /// Deliveries the run expected and how many of them failed (missing at
  /// the deadline, duplicate, gap, out of order, rejected frame, oracle
  /// violation).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Why the run failed, first few reasons.
  std::vector<std::string> failures;
  /// Metric name -> value. Metrics a workload does not exercise are left
  /// unset and reported as 0.
  std::map<std::string, double> metrics;
  /// Provenance and validity notes printed ahead of the result line.
  std::map<std::string, std::string> notes;
  /// Traced runs: every thread's spans, for the trace file.
  std::vector<std::unique_ptr<SpanLog>> spans;
  /// Traced runs: span totals over the measured window plus the replay.
  std::map<std::string, SpanTotals> span_summary;
};

Result run_live_fanout(const RunConfig& config);
Result run_reconnect_catchup(const RunConfig& config);
Result run_sim_fig4_codec(const RunConfig& config);

}  // namespace perfbench
