#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

Registry snapshot(gryphon::MetricsRegistry& metrics) {
  Registry out;
  metrics.refresh_probes();
  metrics.for_each_counter(
      [&](const std::string& name, std::uint64_t v) { out[name] = static_cast<double>(v); });
  metrics.for_each_gauge([&](const std::string& name, double v) { out[name] = v; });
  return out;
}

Registry delta(const Registry& before, const Registry& after) {
  Registry out;
  for (const auto& [name, v] : after) out[name] = v - get(before, name);
  return out;
}

void accumulate(Registry& into, const Registry& add) {
  for (const auto& [name, v] : add) into[name] += v;
}

double get(const Registry& r, const std::string& name) {
  const auto it = r.find(name);
  return it == r.end() ? 0 : it->second;
}

SpanSummary delta(const SpanSummary& before, const SpanSummary& after) {
  SpanSummary out;
  for (const auto& [name, t] : after) {
    SpanTotals d = t;
    if (const auto it = before.find(name); it != before.end()) {
      d.count -= it->second.count;
      d.wall_ns -= it->second.wall_ns;
      d.cpu_ns -= it->second.cpu_ns;
    }
    out[name] = d;
  }
  return out;
}

void accumulate(SpanSummary& into, const SpanSummary& add) {
  for (const auto& [name, t] : add) {
    SpanTotals& dst = into[name];
    dst.count += t.count;
    dst.wall_ns += t.wall_ns;
    dst.cpu_ns += t.cpu_ns;
  }
}

double mean_ns(const SpanSummary& s, const std::string& name) {
  const auto it = s.find(name);
  if (it == s.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.wall_ns) / static_cast<double>(it->second.count);
}

void registry_layer_metrics(const Registry& phb, const Registry& shb, const Registry& end,
                            double events, std::map<std::string, double>& out) {
  const auto both = [&](const char* name) { return get(phb, name) + get(shb, name); };
  out["net.tx_bytes_per_event"] = ratio(both("net.tx_bytes"), events);
  out["wire.frames_per_event"] = ratio(both("net.frames_encoded"), events);
  out["storage.records_per_barrier"] =
      ratio(both("log.appended_records"), both("log.barrier_batches"));
  out["storage.bytes_per_event"] = ratio(both("log.appended_bytes"), events);
  out["storage.live_mb"] = get(end, "wal.live_bytes") / 1e6;
  out["matching.candidates_per_event"] = ratio(get(shb, "matching.match_candidates"), events);

  const double catchups = get(shb, "shb.catchup_streams_opened");
  out["routing.istream_hit_frac"] = ratio(get(shb, "shb.catchup_events_served_from_istream"),
                                          get(shb, "shb.catchup_deliveries"));
  out["routing.nacks_per_catchup"] = ratio(get(shb, "shb.nacks_sent_upstream"), catchups);
  out["routing.phb_nack_events_per_catchup"] =
      ratio(get(phb, "phb.nack_events_served"), catchups);

  out["core.pfs_records_per_event"] = ratio(get(shb, "pfs.records_written"), events);
  out["core.pfs_bytes_per_record"] =
      ratio(get(shb, "pfs.record_bytes_written"), get(shb, "pfs.records_written"));
  // shb.pfs_read_records is a histogram without a sum; PFS batch reads are
  // the SHB's only disk reads, so records read = bytes read / record size.
  out["core.pfs_read_records_per_catchup"] =
      ratio(ratio(get(shb, "disk.bytes_read"), out["core.pfs_bytes_per_record"]), catchups);
  out["core.switchover_frac"] = ratio(get(shb, "shb.switchovers"), catchups);
  out["core.publish_dup_frac"] = ratio(get(phb, "phb.duplicates"), get(phb, "phb.publishes"));
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;
  HostTicks t;
  double v = 0;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const HostTicks& from, const HostTicks& to) {
  return ratio(to.steal - from.steal, to.total - from.total);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_quantile(std::vector<double> values, double want) {
  const std::size_t n = values.size();
  if (n < 10) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank, capped so that ten samples stay strictly above it.
  const auto rank = static_cast<std::size_t>(std::ceil(want * static_cast<double>(n)));
  const std::size_t idx = std::min(rank == 0 ? 0 : rank - 1, n - 11);
  return values[idx];
}

}  // namespace perfbench
