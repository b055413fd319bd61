// Per-layer metrics derived from MetricsRegistry snapshots and spans, and
// the small statistics helpers every workload shares.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "util/metrics.hpp"

namespace perfbench {

/// A registry snapshot: every counter and (refreshed) gauge by name.
using Registry = std::map<std::string, double>;

[[nodiscard]] Registry snapshot(gryphon::MetricsRegistry& metrics);
/// after - before, name by name (names only in `after` count from 0).
[[nodiscard]] Registry delta(const Registry& before, const Registry& after);
void accumulate(Registry& into, const Registry& add);
[[nodiscard]] double get(const Registry& r, const std::string& name);

using SpanSummary = std::map<std::string, SpanTotals>;
[[nodiscard]] SpanSummary delta(const SpanSummary& before, const SpanSummary& after);
void accumulate(SpanSummary& into, const SpanSummary& add);
/// Mean wall nanoseconds per span of `name` (0 when none).
[[nodiscard]] double mean_ns(const SpanSummary& s, const std::string& name);

/// Registry-derived layer metrics over one measured window. `phb` and
/// `shb` are window deltas (SHBs summed), `end` the SHB+PHB snapshot at the
/// window's end, `events` the events published in the window.
void registry_layer_metrics(const Registry& phb, const Registry& shb, const Registry& end,
                            double events, std::map<std::string, double>& out);

[[nodiscard]] double median(std::vector<double> values);
/// The `want` quantile, lowered so that at least ten samples lie beyond it
/// (0 with fewer than ten samples).
[[nodiscard]] double tail_quantile(std::vector<double> values, double want);
/// CPU time the hypervisor took from the running machine (steal) and all CPU time so
/// far, in /proc/stat ticks (zeros when unreadable).
struct HostTicks {
  double steal = 0;
  double total = 0;
};
[[nodiscard]] HostTicks host_ticks();
/// Share of the machine's CPU time stolen between two readings.
[[nodiscard]] double steal_frac(const HostTicks& from, const HostTicks& to);

/// Ratio that reads 0 instead of dividing by zero.
[[nodiscard]] inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench
