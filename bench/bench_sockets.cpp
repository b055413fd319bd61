// Real-socket vs simulated throughput on the same workload.
//
// The stand-alone runtime (src/net) hosts the exact broker state machines
// the simulator runs, so the same delivery workload can be timed both ways:
//
//   * real    — one OS process, four threads, each thread an EventLoop +
//               BrokerProcess (PHB <- SHB brokers, one publisher, one
//               durable subscriber), every hop a real loopback TCP socket
//               with codec frames, FileBackend WALs under a temp dir.
//   * sim     — the harness System on the same PHB <- SHB topology with
//               paper publishers and one match-everything subscriber,
//               driven as fast as the simulator can execute.
//
// Both legs run until N events are delivered exactly-once; the report is
// wall-clock events/second for each. The real leg's demo oracle (received
// == published, zero gaps, zero decode / reassembly rejects) is a set of
// declared gates — a bench run that loses an event is a failure, not a
// data point.
//
//   bench_sockets [--events N] [--out FILE] [--smoke]
#include "bench/bench_common.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <thread>

#include <unistd.h>

#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "util/logging.hpp"

namespace gryphon::bench {
namespace {

namespace fs = std::filesystem;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RealLeg {
  bool completed = false;
  double wall_s = 0;
  std::uint64_t received = 0;
  std::uint64_t gaps = 0;
  std::uint64_t decode_rejects = 0;
  std::uint64_t reassembly_rejects = 0;
};

/// Runs a role to completion on its own thread: construct, publish the bound
/// port, then spin the loop until the stop flag (brokers) or the client
/// workload finishes. `on_exit` samples the process before teardown.
void run_role(net::ProcessOptions opt, std::atomic<bool>& stop,
              std::promise<std::uint16_t>* port_out, SimDuration run_cap,
              std::function<void(net::BrokerProcess&)> on_exit,
              std::promise<void>* started_out = nullptr) {
  net::EventLoop loop;
  net::BrokerProcess proc(loop, std::move(opt));
  if (port_out != nullptr) port_out->set_value(proc.port());
  std::function<void()> poll_started = [&] {
    if (proc.started()) {
      started_out->set_value();
      return;
    }
    loop.schedule_after(msec(5), [&] { poll_started(); });
  };
  if (started_out != nullptr) poll_started();
  std::function<void()> watch = [&] {
    if (stop.load(std::memory_order_relaxed)) {
      loop.stop();
      return;
    }
    loop.schedule_after(msec(10), [&] { watch(); });
  };
  watch();
  loop.run_for(run_cap);
  if (on_exit) on_exit(proc);
}

RealLeg run_real(std::uint64_t events, std::size_t payload_bytes) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("gryphon_bench_sockets." + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "phb");
  fs::create_directories(dir / "shb");

  std::atomic<bool> stop{false};
  std::promise<std::uint16_t> phb_port_p, shb_port_p;
  auto phb_port_f = phb_port_p.get_future();
  auto shb_port_f = shb_port_p.get_future();
  const SimDuration cap = sec(120);

  std::thread phb_thread([&] {
    net::ProcessOptions o;
    o.name = "phb";
    o.role = "phb";
    o.expected_children = 1;
    o.storage.file_dir = (dir / "phb").string();
    run_role(std::move(o), stop, &phb_port_p, cap, nullptr);
  });
  const std::uint16_t phb_port = phb_port_f.get();

  std::thread shb_thread([&] {
    net::ProcessOptions o;
    o.name = "shb0";
    o.role = "shb";
    o.parent_port = phb_port;
    o.storage.file_dir = (dir / "shb").string();
    run_role(std::move(o), stop, &shb_port_p, cap, nullptr);
  });
  const std::uint16_t shb_port = shb_port_f.get();

  // Clock starts as the clients launch: it covers the hello/READY handshake
  // (a few round trips) plus the full publish -> persist -> deliver stream.
  RealLeg leg;
  bool pub_done = false;
  std::promise<void> sub_started_p;
  auto sub_started_f = sub_started_p.get_future();
  std::thread sub_thread([&] {
    net::ProcessOptions o;
    o.name = "sub1";
    o.role = "sub";
    o.parent_port = shb_port;
    o.expect_events = events;
    run_role(
        std::move(o), stop, nullptr, cap,
        [&](net::BrokerProcess& p) {
          leg.completed = p.done();
          leg.received = p.subscriber()->events_received();
          leg.gaps = p.subscriber()->gaps_received();
          leg.decode_rejects = p.network().decode_rejects();
          leg.reassembly_rejects = p.reassembly_rejects();
        },
        &sub_started_p);
  });
  // A durable subscription covers ticks from its establishment onward, so
  // the first publish must land after the subscribe round trip — wait for
  // the subscriber to start, plus a margin for the subscribe to settle.
  sub_started_f.wait_for(std::chrono::seconds(30));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Clock covers the measured stream only: publish -> persist -> deliver.
  const auto t0 = std::chrono::steady_clock::now();
  std::thread pub_thread([&] {
    net::ProcessOptions o;
    o.name = "pub1";
    o.role = "pub";
    o.parent_port = phb_port;
    o.publish_count = events;
    o.publish_interval = msec(1);
    o.publish_burst = 16;
    o.payload_bytes = payload_bytes;
    run_role(std::move(o), stop, nullptr, cap,
             [&](net::BrokerProcess& p) { pub_done = p.done(); });
  });

  pub_thread.join();
  sub_thread.join();
  leg.wall_s = wall_seconds_since(t0);
  leg.completed = leg.completed && pub_done;
  stop.store(true, std::memory_order_relaxed);
  phb_thread.join();
  shb_thread.join();
  fs::remove_all(dir);
  return leg;
}

struct SimLeg {
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t delivered = 0;
};

SimLeg run_sim(std::uint64_t events, std::size_t payload_bytes) {
  harness::SystemConfig config;
  config.num_shbs = 1;
  config.num_intermediates = 0;
  harness::System system(config);
  harness::PaperWorkloadConfig wl;
  wl.input_rate_eps = 8000;
  wl.groups = 1;  // the single subscriber matches every event
  wl.payload_bytes = payload_bytes;
  harness::start_paper_publishers(system, wl);
  harness::add_group_subscribers(system, 0, 1, 1, 1);

  SimLeg leg;
  const SimTime sim0 = system.simulator().now();
  const auto t0 = std::chrono::steady_clock::now();
  while (system.oracle().delivered_count() < events) {
    system.run_for(msec(100));
  }
  leg.wall_s = wall_seconds_since(t0);
  leg.sim_s = to_seconds(system.simulator().now() - sim0);
  leg.delivered = system.oracle().delivered_count();
  return leg;
}

int run(std::uint64_t events, std::size_t payload_bytes, const std::string& out) {
  print_header("bench_sockets: real loopback TCP vs simulation, " +
               std::to_string(events) + " events");

  const RealLeg real = run_real(events, payload_bytes);
  const double real_eps = static_cast<double>(real.received) / real.wall_s;
  std::printf("real: %s in %.3fs (%.0f ev/s), gaps=%llu rejects=%llu/%llu\n",
              real.completed ? "completed" : "INCOMPLETE", real.wall_s, real_eps,
              static_cast<unsigned long long>(real.gaps),
              static_cast<unsigned long long>(real.decode_rejects),
              static_cast<unsigned long long>(real.reassembly_rejects));

  const SimLeg sim = run_sim(events, payload_bytes);
  const double sim_eps = static_cast<double>(sim.delivered) / sim.wall_s;
  std::printf("sim:  %llu delivered in %.3fs wall / %.3fs simulated (%.0f ev/wall-s)\n",
              static_cast<unsigned long long>(sim.delivered), sim.wall_s,
              sim.sim_s, sim_eps);

  WorkloadReport report;
  report.name = "sockets_vs_sim";
  report.metrics = {
      {"events", static_cast<double>(events)},
      {"payload_bytes", static_cast<double>(payload_bytes)},
      {"real.completed", real.completed ? 1.0 : 0.0},
      {"real.events_received", static_cast<double>(real.received)},
      {"real.wall_s", real.wall_s},
      {"real.events_per_wall_s", real_eps},
      {"real.gaps", static_cast<double>(real.gaps)},
      {"real.decode_rejects", static_cast<double>(real.decode_rejects)},
      {"real.reassembly_rejects", static_cast<double>(real.reassembly_rejects)},
      {"sim.wall_s", sim.wall_s},
      {"sim.sim_s", sim.sim_s},
      {"sim.events_per_wall_s", sim_eps},
  };
  // The socket leg's exactly-once oracle: a run that loses an event is a
  // failure, not a data point.
  report.gate("real.completed", "==", 1);
  report.gate("real.events_received", "==", static_cast<double>(events));
  report.gate("real.gaps", "==", 0);
  report.gate("real.decode_rejects", "==", 0);
  report.gate("real.reassembly_rejects", "==", 0);
  if (!out.empty()) {
    write_bench_json(out, {report});
    std::printf("wrote %s\n", out.c_str());
  }
  return gate_verdict({report});
}

}  // namespace
}  // namespace gryphon::bench

int main(int argc, char** argv) {
  std::uint64_t events = 20000;
  std::size_t payload = 64;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--payload") == 0 && i + 1 < argc) {
      payload = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      events = 2000;
      out.clear();
    } else {
      std::fprintf(stderr,
                   "usage: bench_sockets [--events N] [--payload B] [--out FILE] "
                   "[--smoke]\n");
      return 2;
    }
  }
  gryphon::Logger::instance().set_level(gryphon::LogLevel::kWarn);
  return gryphon::bench::run(events, payload, out);
}
