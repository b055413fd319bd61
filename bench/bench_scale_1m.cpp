// Million-subscriber scale workload (DESIGN.md §4.8).
//
// The paper's evaluation tops out at hundreds of subscribers per SHB; this
// bench drives the durable-subscription machinery into the 10^6 regime and
// commits the resulting envelope as BENCH_scale_1m.json:
//
//   A. Covering index scaling — 10^4 / 10^5 / 10^6 durable subscriptions
//      drawn with Zipfian skew over a template universe of n/8 predicates.
//      Measures covering-group compression, per-event match cost (wall ns
//      and candidate predicate evaluations), live heap bytes per
//      subscription, and cross-checks the index against a naive
//      every-predicate scan.
//   B. Sharded PFS fan-out — the same filtering facts appended to a 1-shard
//      and a 4-shard PFS must conserve the 16·n per-subscriber entry bytes
//      (sharding splits records, never duplicates entries) and yield
//      byte-identical per-subscriber Q-tick chains.
//   C. Fig4-style parity — a small end-to-end run with pfs_shards = 1 is
//      bit-identical across repeats (digest over per-subscriber counters +
//      the metrics registry), and pfs_shards = 4 delivers exactly the same
//      per-subscriber event counts under churn.
//
// Declared gates (exit 1 when one fails; `gryphon_report --check-bench`
// re-checks them in the committed artifact):
//   group_ratio       groups/subscribers < 0.2 at every size
//   candidate_growth  candidate-evals/event grows < 0.5x population_growth,
//                     the population ratio between smallest/largest tier
//   shard_parity      parts B+C parity checks all hold (== 1)
//
// --smoke runs the 10^4-subscription tier (plus shrunken B/C parts) only.
#include "bench/bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <new>

#include "core/pfs.hpp"
#include "core/sharding.hpp"
#include "matching/parser.hpp"
#include "matching/subscription_index.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

// Counting allocator hook (same shape as bench_micro_datastructures'), plus
// live-byte tracking via malloc_usable_size so part A can report resident
// bytes per subscription rather than cumulative allocation traffic.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_live_bytes{0};

inline void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace gryphon::bench {
namespace {

// ------------------------------------------------------------------ part A

/// Rank-based Zipf(s = 1) sampler over [0, n) via CDF binary search —
/// deterministic given the Rng, heavy head, long tail.
struct ZipfSampler {
  std::vector<double> cdf;

  explicit ZipfSampler(std::size_t n) {
    cdf.resize(n);
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf[r] = sum;
    }
    for (double& c : cdf) c /= sum;
  }

  std::size_t draw(Rng& rng) {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
  }
};

/// Template k's selector. The mix exercises the index tiers that dominate a
/// skewed population: plain equalities and equality-anchored conjunctions
/// (each template's text is unique, so its Zipf duplicates join as exact
/// members — one representative evaluation covers them all), plus a
/// recurring family of range selectors. Range templates take k ≡ 7 (mod 8)
/// and the modulus 100 shares a factor 4 with that stride, so there are at
/// most 25 distinct range selectors regardless of population. They sit in
/// the index's range tier, where an event evaluates only the groups whose
/// interval holds its value; the cap keeps this bench's population shape,
/// and so its committed numbers, stable.
std::string template_predicate(std::size_t k) {
  switch (k % 8) {
    case 5:
    case 6:
      return "g == " + std::to_string(k) + " && v > " + std::to_string(k % 7);
    case 7:
      return "v >= " + std::to_string(k % 100);
    default:
      return "g == " + std::to_string(k);
  }
}

matching::EventData make_scale_event(std::size_t g, int v) {
  return matching::EventData(
      {{"g", matching::Value(static_cast<std::int64_t>(g))},
       {"v", matching::Value(v)}},
      "", 0);
}

struct IndexScaleResult {
  std::size_t subscribers = 0;
  std::size_t groups = 0;
  double build_s = 0;
  double bytes_per_sub = 0;
  double match_ns_per_event = 0;
  double candidates_per_event = 0;
  double matches_per_event = 0;
};

IndexScaleResult run_index_scale(std::size_t n) {
  const std::size_t universe = std::max<std::size_t>(8, n / 8);
  Rng rng(0x5ca1e0000ULL + n);
  ZipfSampler zipf(universe);

  matching::SubscriptionIndex index;
  std::vector<std::pair<SubscriberId, matching::PredicatePtr>> naive;
  naive.reserve(n);

  const std::uint64_t bytes_before = g_live_bytes.load(std::memory_order_relaxed);
  const auto build_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = zipf.draw(rng);
    auto predicate = matching::parse_predicate(template_predicate(k));
    const SubscriberId sid{static_cast<std::uint32_t>(i + 1)};
    index.add(sid, predicate);
    naive.emplace_back(sid, std::move(predicate));
  }
  const auto build_end = std::chrono::steady_clock::now();
  const std::uint64_t bytes_after = g_live_bytes.load(std::memory_order_relaxed);

  // Correctness spot check: the covering index must agree, id for id, with
  // the naive every-predicate scan (the property test covers churn; this
  // covers the at-scale build).
  for (int sample = 0; sample < 4; ++sample) {
    const auto event = make_scale_event(zipf.draw(rng),
                                        static_cast<int>(rng.next_in(0, 999)));
    auto got = index.match(event);
    std::vector<SubscriberId> want;
    for (const auto& [sid, pred] : naive) {
      if (pred->matches(event)) want.push_back(sid);
    }
    std::sort(want.begin(), want.end());
    GRYPHON_CHECK_MSG(got == want, "covering index diverged from naive scan at n="
                                       << n << " sample " << sample);
  }

  // Match cost: Zipf-drawn events through the reused scratch buffer, wall
  // time + deterministic candidate-evaluation count.
  const std::size_t kEvents = 512;
  std::vector<matching::EventData> events;
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.push_back(make_scale_event(zipf.draw(rng),
                                      static_cast<int>(rng.next_in(0, 999))));
  }
  std::vector<SubscriberId> scratch;
  index.match_into(events.front(), scratch);  // warm the scratch capacity
  const std::uint64_t evals_before = index.candidates_evaluated();
  std::uint64_t matched_total = 0;
  const auto match_start = std::chrono::steady_clock::now();
  for (const auto& event : events) {
    index.match_into(event, scratch);
    matched_total += scratch.size();
  }
  const auto match_end = std::chrono::steady_clock::now();

  IndexScaleResult r;
  r.subscribers = n;
  r.groups = index.group_count();
  r.build_s = std::chrono::duration<double>(build_end - build_start).count();
  r.bytes_per_sub =
      static_cast<double>(bytes_after - bytes_before) / static_cast<double>(n);
  r.match_ns_per_event =
      std::chrono::duration<double, std::nano>(match_end - match_start).count() /
      static_cast<double>(kEvents);
  r.candidates_per_event =
      static_cast<double>(index.candidates_evaluated() - evals_before) /
      static_cast<double>(kEvents);
  r.matches_per_event = static_cast<double>(matched_total) / static_cast<double>(kEvents);
  return r;
}

// ------------------------------------------------------------------ part B

/// Self-contained PFS stack (one simulator per instance so log-stream names
/// never collide between the shard variants).
struct PfsRig {
  sim::Simulator sim;
  sim::Network net{sim};
  core::BrokerConfig config{};
  core::NodeResources node{sim, net, "shb", config,
                           storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
  core::CostModel costs{};
  core::PersistentFilteringSubsystem pfs;

  explicit PfsRig(std::size_t shards) : pfs(node, costs, shards) {
    pfs.open({PubendId{1}});
  }

  std::vector<Tick> chain_ticks(SubscriberId s) {
    std::vector<Tick> out;
    bool done = false;
    pfs.read(PubendId{1}, s, 0, 1u << 20,
             [&](core::PersistentFilteringSubsystem::ReadResult r) {
               for (const TickRange& range : r.q_ranges) {
                 for (Tick t = range.from; t <= range.to; ++t) out.push_back(t);
               }
               done = true;
             });
    sim.run_until_idle();
    GRYPHON_CHECK(done);
    return out;
  }
};

struct PfsFanoutResult {
  std::uint64_t records_1shard = 0;
  std::uint64_t records_4shard = 0;
  std::uint64_t bytes_1shard = 0;
  std::uint64_t bytes_4shard = 0;
  bool entry_bytes_conserved = false;
  bool chains_identical = false;
};

PfsFanoutResult run_pfs_fanout(std::size_t subscribers, Tick ticks) {
  PfsRig one(1);
  PfsRig four(4);
  Rng rng(0xfa4007ULL);

  // Same filtering facts into both: per matched tick, a sorted pseudo-random
  // subset of the population (fan-out between 1 and 24 subscribers).
  for (Tick t = 1; t <= ticks; ++t) {
    if (rng.next_bool(0.25)) continue;  // implicit-S tick, nothing written
    const std::size_t fan = static_cast<std::size_t>(rng.next_in(1, 24));
    std::vector<SubscriberId> matching;
    matching.reserve(fan);
    for (std::size_t i = 0; i < fan; ++i) {
      matching.push_back(SubscriberId{static_cast<std::uint32_t>(
          rng.next_in(1, static_cast<std::int64_t>(subscribers)))});
    }
    std::sort(matching.begin(), matching.end());
    matching.erase(std::unique(matching.begin(), matching.end()), matching.end());
    one.pfs.append(PubendId{1}, t, matching);
    four.pfs.append(PubendId{1}, t, matching);
  }
  bool synced1 = false;
  bool synced4 = false;
  one.pfs.sync([&] { synced1 = true; });
  four.pfs.sync([&] { synced4 = true; });
  one.sim.run_until_idle();
  four.sim.run_until_idle();
  GRYPHON_CHECK(synced1 && synced4);

  PfsFanoutResult r;
  r.records_1shard = one.pfs.records_written();
  r.records_4shard = four.pfs.records_written();
  r.bytes_1shard = one.pfs.payload_bytes_written();
  r.bytes_4shard = four.pfs.payload_bytes_written();
  // Splitting a record across shards repeats the 8-byte tick header per
  // non-empty shard but must never duplicate a 16-byte subscriber entry.
  using P = core::PersistentFilteringSubsystem;
  r.entry_bytes_conserved =
      r.bytes_1shard - P::kRecordFixedBytes * r.records_1shard ==
      r.bytes_4shard - P::kRecordFixedBytes * r.records_4shard;

  r.chains_identical = true;
  for (std::uint32_t s = 1; s <= subscribers; ++s) {
    if (one.chain_ticks(SubscriberId{s}) != four.chain_ticks(SubscriberId{s})) {
      r.chains_identical = false;
      break;
    }
  }
  return r;
}

// ------------------------------------------------------------------ part C

struct ParityRun {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_sub;  // events, gaps
};

void mix64(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
}

/// A shrunken fig4 run with reconnect churn (so the PFS catchup path is
/// exercised), publishers stopped before quiescing so the delivered set is
/// identical across configurations.
ParityRun run_parity(std::size_t pfs_shards, int subscribers, SimDuration window) {
  auto config = paper_config();
  config.num_shbs = 1;
  config.broker.pfs_shards = pfs_shards;
  harness::System system(config);

  auto wl = paper_workload();
  wl.input_rate_eps = 400.0;
  const int n_pubends = static_cast<int>(system.pubends().size());
  const auto interval =
      static_cast<SimDuration>(std::llround(1e6 * n_pubends / wl.input_rate_eps));
  std::vector<core::Publisher*> publishers;
  int pi = 0;
  for (PubendId p : system.pubends()) {
    auto& pub = system.add_publisher(
        p, interval, harness::group_event_factory(wl.groups, wl.payload_bytes),
        /*start_offset=*/interval * pi / n_pubends);
    pub.start();
    publishers.push_back(&pub);
    ++pi;
  }
  auto subs = harness::add_group_subscribers(system, 0, subscribers, wl.groups,
                                             /*first_id=*/1000, /*machines=*/3);

  system.run_for(sec(5));  // connect + fill pipelines
  harness::ChurnDriver churn(system, subs, sec(6), sec(2));
  system.run_for(window);
  churn.stop();
  for (auto* pub : publishers) pub->stop();
  system.run_for(sec(25));  // drain reconnects, catchup, in-flight events
  system.verify_exactly_once();

  ParityRun r;
  r.delivered = system.oracle().delivered_count();
  std::uint64_t h = 1469598103934665603ULL;
  for (auto* sub : system.subscribers()) {
    r.per_sub.emplace_back(sub->events_received(), sub->gaps_received());
    mix64(h, sub->id().value());
    mix64(h, sub->events_received());
    mix64(h, sub->gaps_received());
  }
  mix64(h, r.delivered);
  std::string metrics_json;
  system.append_metrics_json(metrics_json);
  for (char c : metrics_json) mix64(h, static_cast<unsigned char>(c));
  r.digest = h;
  return r;
}

/// Pull the matching.* covering-index probes (gauges, refreshed at snapshot
/// time) into the report's counters block alongside the summed counters.
void attach_matching_probes(WorkloadReport& report, harness::System& system) {
  std::map<std::string, double> sums;
  for (auto* node : system.nodes()) {
    node->metrics.refresh_probes();
    node->metrics.for_each_gauge([&](const std::string& name, double v) {
      if (name.rfind("matching.", 0) == 0) sums[name] += v;
    });
  }
  for (const auto& [name, v] : sums) report.counters.push_back({name, v});
}

}  // namespace
}  // namespace gryphon::bench

int main(int argc, char** argv) {
  using namespace gryphon;
  using namespace gryphon::bench;

  bool smoke = false;
  std::string out_path = "BENCH_scale_1m.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  print_header(smoke ? "Million-subscriber scale bench (smoke: 10^4 tier)"
                     : "Million-subscriber scale bench (10^4 / 10^5 / 10^6)");

  // ---- part A: covering index scaling ----
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  print_row({"subs", "groups", "ratio", "build s", "B/sub", "ns/event",
             "cand/event", "match/event"});
  std::vector<WorkloadReport> reports;
  std::vector<IndexScaleResult> scale;
  for (const std::size_t n : sizes) {
    const auto r = run_index_scale(n);
    scale.push_back(r);
    const double ratio =
        static_cast<double>(r.groups) / static_cast<double>(r.subscribers);
    print_row({std::to_string(r.subscribers), std::to_string(r.groups), fmt(ratio, 4),
               fmt(r.build_s, 2), fmt(r.bytes_per_sub, 0),
               fmt(r.match_ns_per_event, 0), fmt(r.candidates_per_event, 1),
               fmt(r.matches_per_event, 1)});

    WorkloadReport report;
    report.name = "scale_index_" + std::to_string(n);
    report.metrics.push_back({"subscribers", static_cast<double>(r.subscribers)});
    report.metrics.push_back({"covering_groups", static_cast<double>(r.groups)});
    report.metrics.push_back({"group_ratio", ratio});
    report.metrics.push_back({"build_s", r.build_s});
    report.metrics.push_back({"bytes_per_subscription", r.bytes_per_sub});
    report.metrics.push_back({"match_ns_per_event", r.match_ns_per_event});
    report.metrics.push_back({"match_candidates_per_event", r.candidates_per_event});
    report.metrics.push_back({"matches_per_event", r.matches_per_event});
    report.gate("group_ratio", "<", 0.2);
    reports.push_back(std::move(report));
  }

  // Sublinear gate on the deterministic candidate counts: growing the
  // population by R must grow per-event candidate work by < R/2 (in practice
  // it stays nearly flat — that is the point of the covering tiers).
  const double size_ratio = static_cast<double>(scale.back().subscribers) /
                            static_cast<double>(scale.front().subscribers);
  const double cand_ratio =
      scale.back().candidates_per_event /
      std::max(1.0, scale.front().candidates_per_event);
  WorkloadReport& largest = reports.back();
  largest.metrics.push_back({"population_growth", size_ratio});
  largest.metrics.push_back({"candidate_growth", cand_ratio});
  largest.gate("candidate_growth", "<", 0.5 * size_ratio);
  std::printf("\nsublinear: candidates/event ratio %.2fx over a %.0fx population "
              "(gate: < %.0fx)\n",
              cand_ratio, size_ratio, 0.5 * size_ratio);

  // ---- part B: sharded PFS fan-out conservation ----
  const auto fanout = smoke ? run_pfs_fanout(400, 800) : run_pfs_fanout(2'000, 4'000);
  std::printf("\nPFS fan-out, same facts: 1 shard %llu records / %llu B, 4 shards "
              "%llu records / %llu B, entries conserved %s, chains identical %s\n",
              static_cast<unsigned long long>(fanout.records_1shard),
              static_cast<unsigned long long>(fanout.bytes_1shard),
              static_cast<unsigned long long>(fanout.records_4shard),
              static_cast<unsigned long long>(fanout.bytes_4shard),
              fanout.entry_bytes_conserved ? "yes" : "NO",
              fanout.chains_identical ? "yes" : "NO");

  // ---- part C: end-to-end parity ----
  const int parity_subs = smoke ? 12 : 24;
  const SimDuration parity_window = smoke ? sec(8) : sec(15);
  const auto base = run_parity(1, parity_subs, parity_window);
  const auto repeat = run_parity(1, parity_subs, parity_window);
  const auto sharded = run_parity(4, parity_subs, parity_window);
  const bool deterministic = base.digest == repeat.digest;
  const bool delivery_parity =
      base.per_sub == sharded.per_sub && base.delivered == sharded.delivered;
  std::printf("fig4 parity: shards=1 digest %016llx repeat %s; shards=4 per-sub "
              "deliveries %s (%llu events)\n",
              static_cast<unsigned long long>(base.digest),
              deterministic ? "identical" : "DIVERGED",
              delivery_parity ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(base.delivered));

  const bool parity =
      fanout.entry_bytes_conserved && fanout.chains_identical && deterministic &&
      delivery_parity;

  {
    // One more tiny system just to snapshot the matching.* probes into the
    // artifact's counters block (satellite of DESIGN.md §4.8).
    auto config = paper_config();
    config.num_shbs = 1;
    harness::System system(config);
    harness::add_group_subscribers(system, 0, 16, 4, 1000);
    system.run_for(sec(2));

    WorkloadReport report;
    report.name = "scale_parity";
    report.metrics.push_back({"pfs_records_1shard",
                              static_cast<double>(fanout.records_1shard)});
    report.metrics.push_back({"pfs_records_4shard",
                              static_cast<double>(fanout.records_4shard)});
    report.metrics.push_back({"pfs_bytes_1shard",
                              static_cast<double>(fanout.bytes_1shard)});
    report.metrics.push_back({"pfs_bytes_4shard",
                              static_cast<double>(fanout.bytes_4shard)});
    report.metrics.push_back({"delivered_events", static_cast<double>(base.delivered)});
    report.metrics.push_back({"shard_parity", parity ? 1.0 : 0.0});
    report.gate("shard_parity", "==", 1);
    attach_matching_probes(report, system);
    attach_registry_metrics(report, system);
    reports.push_back(std::move(report));
  }

  write_bench_json(out_path, reports);
  std::printf("\nwrote %s\n", out_path.c_str());
  return gate_verdict(reports);
}
