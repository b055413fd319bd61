// sim_fig4_codec: the simulator on the Figure-4 4-SHB deployment with the
// byte-accurate codec transport, oracle on.
//
// Set-up builds the deployment and runs a 10 s simulated warm-up; it is
// repeated kSetupReps times and every repetition must reproduce the same
// digest of simulated outputs (executed tasks, deliveries). The measured
// part then advances a fixed simulated window, kSimSecondsPerWallSecond x
// --seconds, in 1 s simulated chunks; deliveries per wall-second is the
// median over chunks. (A fixed simulated window keeps the work, and so the
// memory, of a run independent of the host's speed.)
//
// The simulator runs on this one thread, so its costs are read from the
// thread's CPU clock, which CPU steal on a shared host does not advance:
// setup_s is the set-up's CPU time and broker_cpu_us_per_event the CPU per
// published event. e2e_p50_ms and ack_p50_ms are the simulated median
// latencies (publish -> first delivery, publish -> persist at the PHB)
// times the CPU the simulator spends per simulated second: the simulator
// CPU it takes to carry an event along the median path (README.md).
#include <cstdlib>
#include <map>
#include <new>
#include <utility>

#include "harness/system.hpp"
#include "harness/workload.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "replay.hpp"
#include "timing_transport.hpp"
#include "util/logging.hpp"
#include "wire/codec_transport.hpp"
#include "workloads.hpp"

// Heap allocations of the calling thread (sim.allocs_per_task). A
// thread-local counter: the runtime workloads' broker threads never touch
// a shared cache line for it.
namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Every unaligned form is replaced so that each new pairs with a free().
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

namespace {

namespace harness = gryphon::harness;
using gryphon::sec;
using gryphon::usec;
using gryphon::msec;

constexpr int kSetupReps = 3;
constexpr int kShbs = 4;
constexpr int kSubscribersPerShb = 100;
constexpr int kGroups = 4;
constexpr std::size_t kPayloadBytes = 250;
constexpr std::size_t kKeepSpans = 20'000;
constexpr std::size_t kKeepFrames = 4'000;
constexpr std::size_t kReplayEvents = 20'000;
/// About real time x 3 on a 4-core Xeon: a --seconds run measures for about
/// --seconds of wall time there.
constexpr int kSimSecondsPerWallSecond = 3;

/// The Figure-4 deployment (the same constants as the repo's figure and
/// wall-clock benches): 4 pubends, 6-core brokers, the paper's disks.
harness::SystemConfig fig4_config() {
  harness::SystemConfig c;
  c.num_pubends = 4;
  c.num_shbs = kShbs;
  c.broker.cores = 6;
  c.broker.costs.publish_base = usec(2000);
  c.phb_disk.sync_latency = msec(43);
  c.phb_disk.write_bandwidth_bytes_per_sec = 40e6;
  c.shb_disk.sync_latency = msec(4);
  c.shb_disk.read_seek_latency = msec(6);
  c.wire = harness::WireMode::kCodec;
  return c;
}

/// Subscriber id block of SHB i: the seed moves the blocks, which moves
/// every id-hashed decision (reconnect jitter, PFS record order).
std::uint32_t first_id(std::uint64_t seed, int shb) {
  return static_cast<std::uint32_t>(1000 * (shb + 1) + (seed % 10'000) * 5000);
}

struct Deployment {
  explicit Deployment(std::uint64_t seed) : system(fig4_config()) {
    harness::PaperWorkloadConfig wl;
    wl.input_rate_eps = 800;
    wl.groups = kGroups;
    wl.payload_bytes = kPayloadBytes;
    harness::start_paper_publishers(system, wl);
    for (int i = 0; i < kShbs; ++i) {
      harness::add_group_subscribers(system, i, kSubscribersPerShb, kGroups, first_id(seed, i),
                                     /*machines=*/5);
    }
  }
  harness::System system;
};

/// Simulated latencies of the sampled ticks published while `measuring`:
/// publish -> persist (ack) and publish -> first delivery (e2e), from the
/// records' exact timestamps. Installed on every node tracer next to the
/// System's latency recorder, whose histograms round to their buckets.
class PathTimer final : public gryphon::TraceSink {
 public:
  explicit PathTimer(harness::System& sys) {
    fanout_.add(&sys.latency());
    fanout_.add(this);
    const auto nodes = sys.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->tracer.set_sink(&fanout_, static_cast<std::uint32_t>(i));
    }
  }

  void on_trace(std::uint32_t, const gryphon::TraceRecord& rec) override {
    using gryphon::TraceMilestone;
    if (rec.milestone == TraceMilestone::kPublish) {
      if (measuring) open_[{rec.pubend, rec.tick}] = Open{rec.at, false};
      return;
    }
    const bool persist = rec.milestone == TraceMilestone::kPersist;
    if (!persist && rec.milestone != TraceMilestone::kDeliverConstream) return;
    auto it = open_.lower_bound({rec.pubend, rec.tick});
    while (it != open_.end() && it->first.first == rec.pubend && it->first.second <= rec.tick2) {
      Open& o = it->second;
      const double ms = static_cast<double>(rec.at - o.at) / 1e3;
      if (persist) {
        if (!o.acked) ack_ms.push_back(ms);
        o.acked = true;
        ++it;
      } else {
        e2e_ms.push_back(ms);
        it = open_.erase(it);
      }
    }
  }

  bool measuring = false;
  std::vector<double> ack_ms;
  std::vector<double> e2e_ms;

 private:
  struct Open {
    gryphon::SimTime at;
    bool acked;
  };
  gryphon::TraceFanout fanout_;
  std::map<std::pair<std::int64_t, gryphon::Tick>, Open> open_;
};

std::uint64_t output_digest(harness::System& s) {
  std::uint64_t h = mix64(s.simulator().executed_tasks());
  h = mix64(h ^ s.oracle().delivered_count());
  return mix64(h ^ s.oracle().published_count());
}

Registry sum_shbs(harness::System& s) {
  Registry out;
  for (int i = 0; i < s.num_shbs(); ++i) accumulate(out, snapshot(s.shb_node(i).metrics));
  return out;
}

}  // namespace

Result run_sim_fig4_codec(const RunConfig& config) {
  gryphon::Logger::instance().set_level(gryphon::LogLevel::kError);
  Result r;
  std::unique_ptr<SpanLog> spans;
  if (config.trace) spans = std::make_unique<SpanLog>("sim", kKeepSpans);

  std::vector<double> setup_s;
  std::vector<std::uint64_t> digests;
  std::unique_ptr<PathTimer> paths;  // outlives the System whose tracers feed it
  std::unique_ptr<Deployment> d;
  std::unique_ptr<gryphon::wire::CodecTransport> codec;
  std::unique_ptr<TimingTransport> timing;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    timing.reset();
    codec.reset();
    d.reset();
    paths.reset();
    const std::int64_t t0 = thread_cpu_ns();
    d = std::make_unique<Deployment>(config.seed);
    paths = std::make_unique<PathTimer>(d->system);
    if (spans != nullptr && rep + 1 == kSetupReps) {
      // A fresh codec with the System's own options, installed before any
      // traffic: the schedule is the one the untraced run executes.
      gryphon::wire::CodecTransport::Options options;
      options.verify_every = fig4_config().wire_verify_every;
      codec = std::make_unique<gryphon::wire::CodecTransport>(options);
      timing = std::make_unique<TimingTransport>(*codec, *spans, kKeepFrames);
      d->system.network().set_transport(timing.get());
    }
    d->system.run_for(sec(10));
    setup_s.push_back((thread_cpu_ns() - t0) / 1e9);
    digests.push_back(output_digest(d->system));
  }
  r.metrics["setup_s"] = median(setup_s);
  harness::System& sys = d->system;
  r.notes["output_digest"] = std::to_string(digests.back());
  bool same = true;
  for (const std::uint64_t dg : digests) same = same && dg == digests.front();
  if (!same) {
    r.failed += 1;
    r.failures.push_back("set-up repetitions produced different simulated outputs");
  }

  const Registry phb0 = snapshot(sys.phb_node().metrics);
  const Registry shb0 = sum_shbs(sys);
  const SpanSummary spans0 = spans != nullptr ? spans->totals() : SpanSummary{};
  const std::uint64_t tasks0 = sys.simulator().executed_tasks();
  const std::uint64_t delivered0 = sys.oracle().delivered_count();
  const std::uint64_t published0 = sys.oracle().published_count();
  const std::uint64_t allocs0 = t_allocs;
  const HostTicks host0 = host_ticks();
  const std::int64_t t0 = now_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  paths->measuring = true;
  const auto chunks = static_cast<int>(config.seconds * kSimSecondsPerWallSecond);
  std::vector<double> rates;
  for (int chunk = 0; chunk < std::max(chunks, 1); ++chunk) {
    const std::uint64_t before = sys.oracle().delivered_count();
    const std::int64_t c0 = now_ns();
    sys.run_for(sec(1));
    const std::int64_t c1 = now_ns();
    if (spans != nullptr) spans->record("Simulator::run_for(1s)", c0, c1);
    rates.push_back(static_cast<double>(sys.oracle().delivered_count() - before) /
                    ((c1 - c0) / 1e9));
  }
  const std::int64_t wall_ns = now_ns() - t0;
  const std::int64_t cpu_ns = thread_cpu_ns() - cpu0;
  paths->measuring = false;
  const double tasks = static_cast<double>(sys.simulator().executed_tasks() - tasks0);
  const double delivered = static_cast<double>(sys.oracle().delivered_count() - delivered0);
  const double published = static_cast<double>(sys.oracle().published_count() - published0);
  const double allocs = static_cast<double>(t_allocs - allocs0);
  r.metrics["sim_deliveries_per_s"] = median(rates);
  r.metrics["broker_cpu_us_per_event"] = ratio(static_cast<double>(cpu_ns) / 1e3, published);
  const double cpu_per_sim_s = static_cast<double>(cpu_ns) / 1e9 / std::max(chunks, 1);
  r.metrics["e2e_p50_ms"] = median(paths->e2e_ms) * cpu_per_sim_s;
  r.metrics["ack_p50_ms"] = median(paths->ack_ms) * cpu_per_sim_s;
  r.metrics["sim.e2e_p50_ms"] = median(paths->e2e_ms);
  r.metrics["sim.ack_p50_ms"] = median(paths->ack_ms);
  r.notes["e2e_samples"] = std::to_string(paths->e2e_ms.size());
  r.notes["ack_samples"] = std::to_string(paths->ack_ms.size());
  r.notes["sim_chunks"] = std::to_string(rates.size());
  r.metrics["host_steal_frac"] = steal_frac(host0, host_ticks());

  if (spans != nullptr) {
    const Registry phb1 = snapshot(sys.phb_node().metrics);
    const Registry shb1 = sum_shbs(sys);
    Registry end = phb1;
    accumulate(end, shb1);
    registry_layer_metrics(delta(phb0, phb1), delta(shb0, shb1), end, published, r.metrics);
    r.span_summary = delta(spans0, spans->totals());
    r.metrics["wire.encode_ns_per_frame"] = mean_ns(r.span_summary, "wire::encode");
    r.metrics["wire.decode_ns_per_frame"] = mean_ns(r.span_summary, "wire::decode");
    r.metrics["sim.tasks_per_delivery"] = ratio(tasks, delivered);
    r.metrics["sim.ns_per_task"] = ratio(static_cast<double>(wall_ns), tasks);
    r.metrics["sim.allocs_per_task"] = ratio(allocs, tasks);
    double span_count = 0;
    for (const auto& [name, t] : r.span_summary) span_count += static_cast<double>(t.count);
    r.metrics["trace.overhead_frac"] =
        ratio(span_count * calibrate_span_cost_ns(false), static_cast<double>(wall_ns));
  }

  // Quiesce outside the measured window, then the exactly-once oracle.
  sys.run_for(sec(5));
  const auto violations = sys.oracle().verify_all();
  const std::uint64_t rejects = sys.network().decode_rejects();
  r.attempted = sys.oracle().delivered_count();
  r.failed += violations.size() + rejects;
  for (std::size_t i = 0; i < violations.size() && r.failures.size() < 5; ++i) {
    r.failures.push_back(violations[i]);
  }
  if (rejects > 0) r.failures.push_back("decode rejects in a clean run");

  if (spans != nullptr) {
    ReplayInputs replay;
    for (int i = 0; i < kSubscribersPerShb; ++i) {
      replay.selectors.push_back(harness::group_predicate(i % kGroups));
    }
    const auto factory = harness::group_event_factory(kGroups, kPayloadBytes);
    for (std::size_t n = 1; n <= kReplayEvents; ++n) replay.events.push_back(factory(n));
    replay.frames = timing->frames();
    auto replay_spans = std::make_unique<SpanLog>("replay", kKeepSpans);
    const ReplayResult rr =
        run_replay(replay, config.work_dir + "/replay", *replay_spans, r.metrics);
    if (rr.reassembly_rejects + rr.decode_rejects > 0) {
      r.failed += rr.reassembly_rejects + rr.decode_rejects;
      r.failures.push_back("replayed frames rejected");
    }
    accumulate(r.span_summary, replay_spans->totals());
    sys.network().set_transport(nullptr);
    r.spans.push_back(std::move(spans));
    r.spans.push_back(std::move(replay_spans));
  }
  r.metrics["failed_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  r.notes["cost_model"] = "the paper's CostModel (Figure-4 configuration, simulated)";
  return r;
}

}  // namespace perfbench
