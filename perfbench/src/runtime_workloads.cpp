// The two runtime workloads: real net::BrokerProcess brokers (PHB <- SHB
// over loopback TCP, FileBackend WALs) driven by bench-owned clients.
//
// Threads (at most three): the PHB loop, the SHB loop, and the calling
// thread, which runs one client EventLoop hosting the publisher, the
// subscribers and the open-loop generator. Client connections (at most
// four): publisher -> PHB; parked population, live probe and connected
// subscribers -> SHB, one connection each. Several clients share a
// connection; frames are routed to them by the client id the message names.
//
// Every CostModel CPU charge and every DiskConfig delay is zero, so a
// broker pays what its code costs and nothing the 2003 model adds.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/messages.hpp"
#include "core/publisher_client.hpp"
#include "core/subscriber_client.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "net/broker_process.hpp"
#include "net/event_loop.hpp"
#include "net/socket_transport.hpp"
#include "net/tcp.hpp"
#include "replay.hpp"
#include "timing_transport.hpp"
#include "util/logging.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = gryphon::core;
namespace net = gryphon::net;
namespace sim = gryphon::sim;
using gryphon::msec;
using gryphon::PubendId;
using gryphon::PublisherId;
using gryphon::SubscriberId;
using gryphon::Tick;

// --- workload shape -------------------------------------------------------
/// Open-loop rate of the paced phases, about a third of what the saturated
/// closed loop sustains on a 4-core host (11-19k events/s). Unbatched, the
/// SHB thread is busy about 0.3 + 60 us x rate of a CPU (0.5-0.66 here),
/// which keeps headroom for the spells in which a shared host runs slower;
/// at 6000 events/s such a spell let the SHB fall seconds behind.
/// Lower rates leave the loops idle between events, and each wake-up of an
/// idle vCPU on a shared host adds latency that varies from run to run.
constexpr double kPacedRateEps = 4000;
/// Closed-loop window: at most this many events unacked by the PHB and at
/// most this many not yet delivered to the probe. The second bound keeps
/// the loop closed end to end: acks alone let the PHB run ahead of the SHB
/// and the backlog between them grow without bound. Small enough that an
/// ack never waits near the publisher's 500 ms retry.
constexpr std::size_t kClosedWindow = 1024;
/// Saturated-phase length: 0.5 x --seconds x this many events (a 4-core
/// host delivers 11-19k events/s, so about a third of --seconds there).
constexpr double kSaturatedEventsPerSecond = 10'000;
constexpr double kSaturatedTimeoutS = 60;
constexpr std::size_t kParked = 2000;
constexpr std::size_t kLiveConnected = 3;
constexpr std::size_t kCyclingConnected = 24;
constexpr std::size_t kPayloadBytes = 250;  // the paper's event payload
constexpr int kSetupReps = 3;
constexpr double kWarmupS = 0.5;
constexpr double kBootTimeoutS = 30;
constexpr double kDrainTimeoutS = 15;
/// Goodput is the median over bins of the saturated phase (after a ramp):
/// the closed loop delivers in bursts, so a slow bin is followed by a fast
/// one and neither quartile is the undisturbed rate.
constexpr double kGoodputRampS = 0.5;
constexpr double kGoodputBinS = 0.5;
/// Validity: the generator, not the brokers, limited the run.
constexpr double kGenBusyLimit = 0.9;
constexpr double kGenLagLimitMs = 5.0;
/// Validity: the hypervisor took more than this share of the machine's CPU
/// during the measured window (README.md, Noise). The window is cut into
/// kStealBinNs bins, and latency samples of bins above the limit are set
/// aside as long as at least half of the bins stay below it.
constexpr double kStealLimit = 0.03;
constexpr std::int64_t kStealBinNs = 500'000'000;

constexpr std::uint32_t kProbeId = 100'001;  // connected ids follow it
/// First reconnect retry of a bench subscriber: longer than any run, so a
/// ConnectMsg is sent once per connect(). The TCP links lose nothing (a
/// lost link aborts the run), so a retry could only be a duplicate, and the
/// SHB restarts a live session from a duplicate's older CT, which the client
/// rejects as a duplicate delivery (README.md, Known defects).
constexpr gryphon::SimDuration kConnectRetry = gryphon::sec(3600);
constexpr std::size_t kKeepSpans = 20'000;
constexpr std::size_t kKeepFrames = 4'000;
constexpr std::size_t kReplayEvents = 20'000;

const sim::LinkConfig kProxyLink{/*latency=*/0, /*bandwidth_bytes_per_sec=*/1e12};

core::BrokerConfig zero_cost_broker() {
  core::BrokerConfig b;
  core::CostModel& c = b.costs;
  c.publish_base = 0;
  c.per_child_forward = 0;
  c.shb_event_process = 0;
  c.per_delivery = 0;
  c.per_catchup_delivery = 0;
  c.nack_process = 0;
  c.per_nack_response_event = 0;
  c.pfs_read_per_record = 0;
  c.control_process = 0;
  // Catch-up is limited by the code, not by the client token bucket.
  c.catchup_rate_limit_eps = 1e9;
  return b;
}

std::int64_t rusage_ns(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1000;
}

struct ThreadCpu {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
};

ThreadCpu this_thread_cpu() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return {rusage_ns(ru.ru_utime), rusage_ns(ru.ru_stime)};
}

// --- broker threads -------------------------------------------------------

struct BrokerSample {
  ThreadCpu cpu;
  std::uint64_t polls = 0;
  std::uint64_t timers = 0;
  std::uint64_t decode_rejects = 0;
  std::uint64_t reassembly_rejects = 0;
  Registry registry;
  SpanSummary spans;
};

/// One broker role on its own thread and EventLoop. The calling thread
/// talks to it through a nonblocking pipe the loop watches: 'S' asks for a
/// sample (taken on the broker thread, so nothing is shared unlocked), 'Q'
/// halts the loop.
///
/// Teardown is two-phase: halt() stops the loop but keeps the broker and
/// its sockets, release() destroys them. Halting every broker (and the
/// client loop) before any is destroyed means no loop ever writes into a
/// peer that is closing: a write that fails inside Connection::send_bytes
/// runs the close handler, which destroys the connection under the call.
class BrokerThread {
 public:
  BrokerThread(std::string label, net::ProcessOptions options, bool traced)
      : label_(std::move(label)) {
    if (::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
    }
    if (traced) spans_ = std::make_unique<SpanLog>(label_, kKeepSpans);
    auto port = port_.get_future();
    thread_ = std::thread([this, options = std::move(options)]() mutable {
      run(std::move(options));
    });
    if (port.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      release();
      throw std::runtime_error(label_ + " did not start");
    }
    port_number_ = port.get();  // rethrows a construction failure
  }

  ~BrokerThread() {
    release();
    ::close(wake_[0]);
    ::close(wake_[1]);
  }
  BrokerThread(const BrokerThread&) = delete;
  BrokerThread& operator=(const BrokerThread&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_number_; }

  BrokerSample sample() {
    std::unique_lock lock(mu_);
    const std::uint64_t want = ++requested_;
    poke('S');
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return answered_ >= want || !error_.empty() || halted_; })) {
      throw std::runtime_error(label_ + " did not answer a sample request");
    }
    if (!error_.empty()) throw std::runtime_error(label_ + " failed: " + error_);
    if (answered_ < want) throw std::runtime_error(label_ + " sampled after halt");
    return last_;
  }

  /// Throws if the broker thread died.
  void check() {
    std::lock_guard lock(mu_);
    if (!error_.empty()) throw std::runtime_error(label_ + " failed: " + error_);
  }

  /// Stops the loop; returns once it no longer ticks.
  void halt() {
    if (!thread_.joinable()) return;
    poke('Q');
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return halted_; });
  }

  /// Destroys the broker (after halt()) and joins the thread.
  void release() {
    if (!thread_.joinable()) return;
    halt();
    {
      std::lock_guard lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  [[nodiscard]] SpanLog* spans() { return spans_.get(); }
  /// After release(): the thread's spans and captured frames.
  std::unique_ptr<SpanLog> take_spans() { return std::move(spans_); }
  std::vector<std::vector<std::byte>>& frames() { return frames_; }

 private:
  void poke(char c) {
    const ssize_t n = ::write(wake_[1], &c, 1);
    (void)n;  // a full pipe already holds a pending wake-up
  }

  void answer(net::EventLoop& loop, net::BrokerProcess& proc) {
    const std::int64_t t0 = now_ns();
    BrokerSample s;
    s.cpu = this_thread_cpu();
    s.polls = loop.polls();
    s.timers = loop.timers_fired();
    s.decode_rejects = proc.network().decode_rejects();
    s.reassembly_rejects = proc.reassembly_rejects();
    s.registry = snapshot(proc.node()->metrics);
    if (spans_ != nullptr) {
      s.spans = spans_->totals();
      spans_->record("MetricsRegistry::snapshot", t0, now_ns());
    }
    std::lock_guard lock(mu_);
    last_ = std::move(s);
    answered_ = requested_;
    cv_.notify_all();
  }

  void run(net::ProcessOptions options) {
    bool port_set = false;
    try {
      net::EventLoop loop;
      net::BrokerProcess proc(loop, std::move(options));
      sim::Transport* original = proc.network().transport();
      std::unique_ptr<TimingTransport> timing;
      if (spans_ != nullptr) {
        timing = std::make_unique<TimingTransport>(*original, *spans_, kKeepFrames);
        proc.network().set_transport(timing.get());
      }
      port_.set_value(proc.port());
      port_set = true;
      bool quit = false;
      loop.watch_fd(wake_[0], true, false, [&](std::uint32_t) {
        char buf[64];
        const ssize_t n = ::read(wake_[0], buf, sizeof buf);
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == 'Q') quit = true;
          if (buf[i] == 'S') answer(loop, proc);
        }
      });
      while (!quit) {
        if (spans_ == nullptr) {
          loop.tick(msec(500));
          continue;
        }
        const std::int64_t t0 = now_ns();
        const std::int64_t c0 = thread_cpu_ns();
        loop.tick(msec(500));
        const std::int64_t c1 = thread_cpu_ns();
        spans_->record("EventLoop::tick", t0, now_ns(), c1 - c0);
      }
      loop.unwatch_fd(wake_[0]);
      if (timing != nullptr) {
        frames_ = timing->frames();
        proc.network().set_transport(original);
      }
      std::unique_lock lock(mu_);
      halted_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    } catch (const std::exception& e) {
      std::lock_guard lock(mu_);
      error_ = e.what();
      halted_ = true;
      cv_.notify_all();
      if (!port_set) port_.set_exception(std::current_exception());
    }
  }

  std::string label_;
  int wake_[2] = {-1, -1};
  std::promise<std::uint16_t> port_;
  std::uint16_t port_number_ = 0;
  std::unique_ptr<SpanLog> spans_;
  std::vector<std::vector<std::byte>> frames_;

  std::mutex mu_;  // guards the fields below
  std::condition_variable cv_;
  std::uint64_t requested_ = 0;
  std::uint64_t answered_ = 0;
  BrokerSample last_;
  std::string error_;
  bool halted_ = false;    // the loop no longer ticks
  bool released_ = false;  // the broker may be destroyed

  std::thread thread_;  // last: started after everything it uses exists
};

// --- client side ----------------------------------------------------------

/// The client id a broker->client message is addressed to (0 if none).
std::uint32_t client_id_of(const core::Msg& msg) {
  switch (msg.kind()) {
    case core::MsgKind::kPublishAck:
      return static_cast<const core::PublishAckMsg&>(msg).publisher.value();
    case core::MsgKind::kConnected:
      return static_cast<const core::ConnectedMsg&>(msg).subscriber.value();
    case core::MsgKind::kEventDelivery:
      return static_cast<const core::EventDeliveryMsg&>(msg).subscriber.value();
    case core::MsgKind::kSilenceDelivery:
      return static_cast<const core::SilenceDeliveryMsg&>(msg).subscriber.value();
    case core::MsgKind::kGapDelivery:
      return static_cast<const core::GapDeliveryMsg&>(msg).subscriber.value();
    default:
      return 0;
  }
}

/// The client EventLoop with its Network, SocketTransport and connections.
class ClientHub {
 public:
  struct Link {
    std::string name;
    std::unique_ptr<net::Connection> conn;
    sim::EndpointId proxy = 0;
    bool ready = false;
    bool lost = false;
    std::unordered_map<std::uint32_t, sim::EndpointId> clients;
  };

  explicit ClientHub(SpanLog* spans) : net_(loop_), spans_(spans) {
    if (spans_ != nullptr) {
      timing_ = std::make_unique<TimingTransport>(transport_, *spans_, kKeepFrames);
      net_.set_transport(timing_.get());
    } else {
      net_.set_transport(&transport_);
    }
  }
  ClientHub(const ClientHub&) = delete;
  ClientHub& operator=(const ClientHub&) = delete;

  [[nodiscard]] net::EventLoop& loop() { return loop_; }
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] SpanLog* spans() { return spans_; }

  Link& dial(std::uint16_t port, const std::string& name, const std::string& role) {
    std::string err;
    const int fd = net::tcp_connect_start("127.0.0.1", port, &err);
    if (fd < 0) throw std::runtime_error("dial " + name + ": " + err);
    auto owned = std::make_unique<Link>();
    Link* link = owned.get();
    link->name = name;
    net::FrameReassembler::Options ro;
    ro.max_kind = static_cast<std::uint8_t>(core::MsgKind::kJmsConsumed);
    link->conn = std::make_unique<net::Connection>(loop_, fd, name, /*connecting=*/true, ro);
    link->proxy = net_.add_endpoint("proxy." + name, [link](sim::EndpointId, sim::MessagePtr m) {
      if (link->conn != nullptr && link->conn->is_open()) link->conn->send_bytes(m->wire_bytes());
    });
    transport_.mark_proxy(link->proxy);
    link->conn->set_on_line([link](const std::string& line) {
      if (line == "GRYREADY") {
        link->ready = true;
      } else {
        link->conn->fail("unexpected preamble '" + line + "'");
      }
    });
    link->conn->set_on_frame([this, link](std::shared_ptr<const sim::FrameMessage> frame) {
      route(*link, std::move(frame));
    });
    link->conn->set_on_close([link](const std::string&) { link->lost = true; });
    link->conn->start();
    link->conn->send_line("GRYHELLO " + name + " " + role);
    links_.push_back(std::move(owned));
    return *link;
  }

  void attach(Link& link, sim::EndpointId client, std::uint32_t id) {
    net_.connect(client, link.proxy, kProxyLink);
    link.clients[id] = client;
  }

  void detach(Link& link, sim::EndpointId client, std::uint32_t id) {
    link.clients.erase(id);
    net_.set_handler(client, [](sim::EndpointId, sim::MessagePtr) {});
  }

  /// Ticks the loop until `done()` or the timeout; `check()` runs between
  /// ticks (broker health). Returns whether `done()` held.
  bool run_until(const std::function<bool()>& done, double timeout_s,
                 const std::function<void()>& check) {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (!done()) {
      if (now_ns() >= deadline) return false;
      tick();
      check();
    }
    return true;
  }

  void tick() {
    if (spans_ == nullptr) {
      loop_.tick(msec(5));
      return;
    }
    const std::int64_t t0 = now_ns();
    const std::int64_t c0 = thread_cpu_ns();
    loop_.tick(msec(5));
    const std::int64_t c1 = thread_cpu_ns();
    spans_->record("EventLoop::tick", t0, now_ns(), c1 - c0);
  }

  [[nodiscard]] bool all_ready() const {
    return std::all_of(links_.begin(), links_.end(), [](const auto& l) { return l->ready; });
  }
  [[nodiscard]] bool any_lost() const {
    return std::any_of(links_.begin(), links_.end(), [](const auto& l) { return l->lost; });
  }
  [[nodiscard]] std::uint64_t reassembly_rejects() const {
    std::uint64_t n = 0;
    for (const auto& l : links_) n += l->conn->reassembly_rejects();
    return n;
  }
  [[nodiscard]] std::uint64_t decode_rejects() const {
    return net_.decode_rejects() + route_rejects_;
  }
  [[nodiscard]] std::vector<std::vector<std::byte>> frames() const {
    return timing_ != nullptr ? timing_->frames() : std::vector<std::vector<std::byte>>{};
  }

 private:
  void route(Link& link, std::shared_ptr<const sim::FrameMessage> frame) {
    sim::EndpointId to = 0;
    if (link.clients.size() == 1) {
      to = link.clients.begin()->second;
    } else {
      const auto decoded = gryphon::wire::decode(frame->wire_bytes());
      if (decoded.msg == nullptr) {
        ++route_rejects_;
        return;
      }
      const auto it = link.clients.find(client_id_of(*decoded.msg));
      if (it == link.clients.end()) return;  // a parked client, already gone
      to = it->second;
    }
    net_.send(link.proxy, to, std::move(frame));
  }

  net::EventLoop loop_;
  sim::Network net_;
  net::SocketTransport transport_;
  SpanLog* spans_;
  std::unique_ptr<TimingTransport> timing_;
  std::uint64_t route_rejects_ = 0;
  std::vector<std::unique_ptr<Link>> links_;  // after net_: proxies capture links
};

/// Delivery oracle and latency recorder for the connected subscribers and
/// the publisher. Expected deliveries come from the benchmark's own
/// evaluation of each selector at send time.
class Book final : public core::SubscriberObserver, public core::PublisherObserver {
 public:
  struct Sub {
    Selector selector;
    bool probe = false;
    core::DurableSubscriber* client = nullptr;
    std::vector<std::uint64_t> expected;  // stream indices, ascending
    std::size_t next = 0;                 // expected[next] is due next
    Tick last_tick = 0;
    bool confirmed = false;  // the subscription's first ConnectedMsg arrived
    bool up = false;         // the current connect() was confirmed
    std::int64_t connect_ns = 0;  // of the current reconnect (0: none yet)
    bool catching_up = false;
    std::int64_t reconnect_ns = 0;
    std::uint64_t target = 0;  // last matching event sent before the reconnect
    std::uint64_t missed = 0;
  };
  struct Sample {
    std::int64_t at_ns;  // the event's due time
    double ms;
  };
  struct Catchup {
    std::int64_t at_ns;
    double ms;
    std::uint64_t missed;
  };
  struct StealBin {
    std::int64_t from_ns;
    double steal;
  };

  Book(std::int64_t epoch_ns, SpanLog* spans) : epoch_ns_(epoch_ns), spans_(spans) {}

  std::vector<Sub> subs;  // subscriber id kProbeId + i
  std::uint64_t failures = 0;
  std::vector<std::string> reasons;
  std::uint64_t gaps = 0;
  std::vector<Sample> e2e;  // probe deliveries of events due in the window
  std::vector<Sample> ack;  // PHB acks of events due in the window
  std::vector<std::int64_t> probe_rx_ns;
  std::vector<Catchup> catchups;
  std::vector<StealBin> steal_bins;  // of the latency window, in time order
  std::int64_t window_from_ns = 0;  // latency samples: due time in the window
  std::int64_t window_to_ns = 0;
  std::int64_t catchup_until_ns = 0;  // reconnects before this are sampled
  std::size_t confirmed_count = 0;
  std::vector<double> connect_ms;  // reconnects: connect() -> ConnectedMsg
  std::uint64_t unconfirmed_deferrals = 0;  // 20 ms waits of a disconnect for one
  std::function<void()> on_progress;  // closed-loop top-up (acks, probe deliveries)

  void fail(const std::string& why, std::uint64_t n = 1) {
    failures += n;
    if (reasons.size() < 5) reasons.push_back(why);
  }

  [[nodiscard]] bool drained() const {
    return std::all_of(subs.begin(), subs.end(), [](const Sub& s) {
      return s.next >= s.expected.size() && !s.catching_up;
    });
  }

  void on_send(std::uint64_t n, const EventAttrs& e) {
    for (Sub& s : subs) {
      if (s.selector.matches(e, static_cast<std::int64_t>(n))) s.expected.push_back(n);
    }
  }

  void start_catchup(Sub& s, std::int64_t at_ns) {
    s.catching_up = false;
    if (s.next >= s.expected.size() || at_ns >= catchup_until_ns) return;
    s.catching_up = true;
    s.reconnect_ns = at_ns;
    s.target = s.expected.back();
    s.missed = s.expected.size() - s.next;
  }

  void on_event(SubscriberId id, PubendId, Tick tick, const gryphon::matching::EventDataPtr& ev,
                bool, gryphon::SimTime) override {
    const std::int64_t now = now_ns();
    Sub* s = find(id);
    if (s == nullptr) return;
    const auto* nv = ev->attribute("n");
    const auto* dv = ev->attribute("due");
    if (nv == nullptr || dv == nullptr) {
      fail("delivery without n/due attributes");
      return;
    }
    const auto n = static_cast<std::uint64_t>(nv->as_double());
    const auto due = static_cast<std::int64_t>(dv->as_double()) + epoch_ns_;
    if (tick <= s->last_tick) fail("tick did not increase");
    s->last_tick = tick;
    accept(*s, n);
    if (s->probe) {
      probe_rx_ns.push_back(now);
      if (on_progress) on_progress();
      if (due >= window_from_ns && due < window_to_ns) e2e.push_back({due, (now - due) / 1e6});
    }
    if (s->catching_up && n >= s->target) {
      catchups.push_back({s->reconnect_ns, (now - s->reconnect_ns) / 1e6, s->missed});
      s->catching_up = false;
    }
    if (spans_ != nullptr) spans_->record("SubscriberObserver::on_event", now, now_ns());
  }

  void on_gap(SubscriberId id, PubendId, gryphon::TickRange, gryphon::SimTime) override {
    if (find(id) == nullptr) return;
    ++gaps;
    fail("gap delivered");
  }

  void on_connected(SubscriberId id, gryphon::SimTime) override {
    Sub* s = find(id);
    if (s == nullptr) return;
    if (!s->confirmed) ++confirmed_count;
    s->confirmed = true;
    s->up = true;
    if (s->connect_ns != 0) connect_ms.push_back((now_ns() - s->connect_ns) / 1e6);
  }

  void on_published(PublisherId, PubendId, Tick, const gryphon::matching::EventDataPtr& ev,
                    gryphon::SimTime, gryphon::SimTime) override {
    const std::int64_t now = now_ns();
    if (const auto* dv = ev->attribute("due")) {
      const auto due = static_cast<std::int64_t>(dv->as_double()) + epoch_ns_;
      if (due >= window_from_ns && due < window_to_ns) ack.push_back({due, (now - due) / 1e6});
    }
    if (on_progress) on_progress();
  }

  /// Counts every expected delivery still missing at the deadline.
  void finish() {
    for (const Sub& s : subs) {
      if (s.next < s.expected.size()) {
        fail("deliveries missing at the deadline", s.expected.size() - s.next);
      }
    }
  }

  [[nodiscard]] std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const Sub& s : subs) n += s.expected.size();
    return n;
  }

 private:
  Sub* find(SubscriberId id) {
    const std::uint32_t v = id.value();
    if (v < kProbeId || v - kProbeId >= subs.size()) return nullptr;
    return &subs[v - kProbeId];
  }

  void accept(Sub& s, std::uint64_t n) {
    if (s.next < s.expected.size() && s.expected[s.next] == n) {
      ++s.next;
      return;
    }
    const auto it = std::lower_bound(s.expected.begin(), s.expected.end(), n);
    if (it == s.expected.end() || *it != n) {
      fail("delivery of an event the selector does not match");
      return;
    }
    const auto idx = static_cast<std::size_t>(it - s.expected.begin());
    if (idx < s.next) {
      fail("duplicate delivery");
      return;
    }
    fail("events skipped (out of order or lost)", idx - s.next);
    s.next = idx + 1;
  }

  std::int64_t epoch_ns_;
  SpanLog* spans_;
};

/// Counts the parked population's subscribe confirmations.
class ParkCounter final : public core::SubscriberObserver {
 public:
  std::size_t connected = 0;
  void on_connected(SubscriberId, gryphon::SimTime) override { ++connected; }
};

/// Stream event `n` as published: its seeded attributes plus its index and
/// due time (nanoseconds after the run's epoch).
gryphon::matching::EventDataPtr make_event(std::uint64_t n, const EventAttrs& e,
                                           std::int64_t due) {
  gryphon::matching::EventData::AttributeList attrs{
      {"due", gryphon::matching::Value(due)},
      {"n", gryphon::matching::Value(static_cast<std::int64_t>(n))},
      {"px", gryphon::matching::Value(e.px)},
      {"qty", gryphon::matching::Value(e.qty)},
      {"sym", gryphon::matching::Value(e.sym)}};
  return std::make_shared<gryphon::matching::EventData>(std::move(attrs), std::string{},
                                                        kPayloadBytes);
}

/// Open-loop (paced) and closed-loop (windowed) event generator.
///
/// Paced sends are scheduled from due times on a timerfd the client loop
/// watches, so a send fires at its due time to the microsecond instead of
/// at the loop's millisecond poll granularity; lateness is recorded.
class Generator {
 public:
  Generator(ClientHub& hub, const Inputs& inputs, Book& book, core::Publisher& publisher,
            std::int64_t epoch_ns)
      : hub_(hub), inputs_(inputs), book_(book), publisher_(publisher), epoch_ns_(epoch_ns) {
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (tfd_ < 0) throw std::runtime_error("timerfd_create failed");
    hub_.loop().watch_fd(tfd_, true, false, [this](std::uint32_t) { on_timer(); });
  }
  ~Generator() {
    hub_.loop().unwatch_fd(tfd_);
    ::close(tfd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends due at start + i / rate for every such time before `end`.
  void start_paced(double rate_eps, std::int64_t start_ns, std::int64_t end_ns) {
    closed_ = false;
    period_ns_ = 1e9 / rate_eps;
    paced_start_ns_ = start_ns;
    paced_end_ns_ = end_ns;
    paced_i_ = 0;
    arm(start_ns);
  }

  /// Keeps `window` publishes outstanding until `count` more are sent.
  void start_closed(std::size_t window, std::uint64_t count) {
    paced_end_ns_ = 0;
    closed_ = true;
    window_ = window;
    closed_last_n_ = next_n_ + count;
    top_up();
  }

  void stop() {
    paced_end_ns_ = 0;
    closed_ = false;
  }

  void top_up() {
    if (!closed_) return;
    while (publisher_.unacked() < window_ && next_n_ - book_.probe_rx_ns.size() < window_) {
      if (next_n_ >= closed_last_n_) {
        closed_ = false;
        return;
      }
      send(now_ns());
    }
  }

  [[nodiscard]] bool paced_done() const { return paced_next() >= paced_end_ns_; }
  [[nodiscard]] std::uint64_t sent() const { return next_n_; }
  std::vector<double> lag_ms;  // paced sends: send time - due time

 private:
  [[nodiscard]] std::int64_t paced_next() const {
    return paced_start_ns_ + static_cast<std::int64_t>(static_cast<double>(paced_i_) * period_ns_);
  }

  void arm(std::int64_t at_ns) {
    itimerspec spec{};
    spec.it_value.tv_sec = at_ns / 1'000'000'000;
    spec.it_value.tv_nsec = at_ns % 1'000'000'000;
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) spec.it_value.tv_nsec = 1;
    ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void on_timer() {
    std::uint64_t expirations = 0;
    const ssize_t n = ::read(tfd_, &expirations, sizeof expirations);
    (void)n;
    while (!paced_done() && paced_next() <= now_ns()) {
      const std::int64_t due = paced_next();
      send(due);
      lag_ms.push_back((now_ns() - due) / 1e6);
      ++paced_i_;
    }
    if (!paced_done()) arm(paced_next());
  }

  void send(std::int64_t due_ns) {
    const std::uint64_t n = next_n_++;
    const EventAttrs e = inputs_.event(n);
    book_.on_send(n, e);
    auto event = make_event(n, e, due_ns - epoch_ns_);
    if (hub_.spans() == nullptr) {
      publisher_.publish(std::move(event));
      return;
    }
    const std::int64_t t0 = now_ns();
    publisher_.publish(std::move(event));
    hub_.spans()->record("Publisher::publish", t0, now_ns());
  }

  ClientHub& hub_;
  const Inputs& inputs_;
  Book& book_;
  core::Publisher& publisher_;
  std::int64_t epoch_ns_;
  int tfd_ = -1;
  std::uint64_t next_n_ = 0;
  double period_ns_ = 0;
  std::int64_t paced_start_ns_ = 0;
  std::int64_t paced_end_ns_ = 0;
  std::uint64_t paced_i_ = 0;
  bool closed_ = false;
  std::size_t window_ = 0;
  std::uint64_t closed_last_n_ = 0;
};

core::DurableSubscriber::Options subscriber_options(std::uint32_t id, std::string predicate) {
  core::DurableSubscriber::Options o;
  o.id = SubscriberId(id);
  o.predicate = std::move(predicate);
  o.backoff.base = kConnectRetry;
  o.backoff.max = kConnectRetry;
  return o;
}

// --- topology -------------------------------------------------------------

/// One booted deployment: brokers, client hub, subscribers, generator.
class Topology {
 public:
  Topology(const Inputs& inputs, const std::string& dir, bool traced)
      : dir_(dir), epoch_ns_(now_ns()) {
    try {
      boot(inputs, traced);
    } catch (...) {
      halt();  // no broker may write into the client sockets torn down next
      throw;
    }
  }

  void boot(const Inputs& inputs, bool traced) {
    namespace fs = std::filesystem;
    fs::remove_all(dir_);
    fs::create_directories(dir_ + "/phb");
    fs::create_directories(dir_ + "/shb");

    net::ProcessOptions base;
    base.num_pubends = 1;
    base.broker = zero_cost_broker();
    base.disk = zero_delay_disk();
    net::ProcessOptions phb_opts = base;
    phb_opts.name = "phb";
    phb_opts.role = "phb";
    phb_opts.expected_children = 1;
    phb_opts.storage.file_dir = dir_ + "/phb";
    phb = std::make_unique<BrokerThread>("phb", phb_opts, traced);
    net::ProcessOptions shb_opts = base;
    shb_opts.name = "shb";
    shb_opts.role = "shb";
    shb_opts.parent_port = phb->port();
    shb_opts.storage.file_dir = dir_ + "/shb";
    shb = std::make_unique<BrokerThread>("shb", shb_opts, traced);

    if (traced) client_spans_ = std::make_unique<SpanLog>("client", kKeepSpans);
    hub = std::make_unique<ClientHub>(client_spans_.get());
    auto& pub_link = hub->dial(phb->port(), "pub", "pub");
    auto& park_link = hub->dial(shb->port(), "park", "sub");
    auto& probe_link = hub->dial(shb->port(), "probe", "sub");
    auto& live_link = hub->dial(shb->port(), "live", "sub");
    wait([&] { return hub->all_ready(); }, kBootTimeoutS, "broker handshakes");

    // Parked population: subscribe, confirm, disconnect, drop the client
    // objects (their durable subscriptions live on at the SHB).
    {
      ParkCounter counter;
      std::vector<std::unique_ptr<core::DurableSubscriber>> parked;
      parked.reserve(inputs.parked().size());
      for (std::size_t i = 0; i < inputs.parked().size(); ++i) {
        const auto o =
            subscriber_options(static_cast<std::uint32_t>(i + 1), inputs.parked()[i].text());
        auto sub = std::make_unique<core::DurableSubscriber>(hub->loop(), hub->network(), o,
                                                             park_link.proxy, &counter);
        hub->attach(park_link, sub->endpoint(), o.id.value());
        sub->connect();
        parked.push_back(std::move(sub));
      }
      wait([&] { return counter.connected >= parked.size(); }, kBootTimeoutS,
           "parked subscriptions");
      for (auto& sub : parked) {
        sub->disconnect();
        hub->detach(park_link, sub->endpoint(), sub->id().value());
      }
    }

    book = std::make_unique<Book>(epoch_ns_, client_spans_.get());
    core::Publisher::Options po;
    po.id = PublisherId(1);
    po.pubend = PubendId(1);
    po.interval = core::Publisher::Options::kManualOnly;
    publisher = std::make_unique<core::Publisher>(
        hub->loop(), hub->network(), po, pub_link.proxy,
        [](std::uint64_t) -> gryphon::matching::EventDataPtr { return nullptr; }, book.get());
    hub->attach(pub_link, publisher->endpoint(), po.id.value());

    std::vector<Selector> selectors{Inputs::probe_selector()};
    selectors.insert(selectors.end(), inputs.connected().begin(), inputs.connected().end());
    for (std::size_t i = 0; i < selectors.size(); ++i) {
      const auto o =
          subscriber_options(kProbeId + static_cast<std::uint32_t>(i), selectors[i].text());
      auto& link = i == 0 ? probe_link : live_link;
      auto sub = std::make_unique<core::DurableSubscriber>(hub->loop(), hub->network(), o,
                                                           link.proxy, book.get());
      hub->attach(link, sub->endpoint(), o.id.value());
      Book::Sub rec;
      rec.selector = selectors[i];
      rec.probe = i == 0;
      rec.client = sub.get();
      book->subs.push_back(std::move(rec));
      connected.push_back(std::move(sub));
    }
    for (auto& sub : connected) sub->connect();
    wait([&] { return book->confirmed_count >= connected.size(); }, kBootTimeoutS,
         "connected subscribers");

    generator = std::make_unique<Generator>(*hub, inputs, *book, *publisher, epoch_ns_);
    book->on_progress = [g = generator.get()] { g->top_up(); };
    // Warm-up: paced traffic through every layer before anything is timed.
    const std::int64_t t0 = now_ns();
    generator->start_paced(kPacedRateEps, t0, t0 + static_cast<std::int64_t>(kWarmupS * 1e9));
    wait([&] { return generator->paced_done() && book->drained(); }, kBootTimeoutS, "warm-up");
  }

  ~Topology() {
    halt();
    generator.reset();
    connected.clear();
    publisher.reset();
    hub.reset();
    shb.reset();
    phb.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Stops both broker loops; the client loop only runs when called.
  void halt() {
    if (phb != nullptr) phb->halt();
    if (shb != nullptr) shb->halt();
  }

  void check() {
    phb->check();
    shb->check();
    if (hub->any_lost()) throw std::runtime_error("a client connection was lost");
  }

  void wait(const std::function<bool()>& done, double timeout_s, const char* what) {
    if (!hub->run_until(done, timeout_s, [this] { check(); })) {
      throw std::runtime_error(std::string("timed out waiting for ") + what);
    }
  }

  /// Runs the client loop from `from_ns` until the wall clock reaches
  /// `until_ns`, reading the host's CPU steal into the book's steal bins.
  void run_to(std::int64_t from_ns, std::int64_t until_ns) {
    HostTicks ticks0 = host_ticks();
    hub->run_until([until_ns] { return now_ns() >= until_ns; }, 1e9, [&] {
      check();
      if (now_ns() < from_ns + kStealBinNs) return;
      const HostTicks ticks1 = host_ticks();
      book->steal_bins.push_back({from_ns, steal_frac(ticks0, ticks1)});
      from_ns += kStealBinNs;
      ticks0 = ticks1;
    });
  }

  [[nodiscard]] std::int64_t epoch_ns() const { return epoch_ns_; }

  std::string dir_;
  std::int64_t epoch_ns_;
  std::unique_ptr<BrokerThread> phb;
  std::unique_ptr<BrokerThread> shb;
  std::unique_ptr<SpanLog> client_spans_;
  std::unique_ptr<ClientHub> hub;
  std::unique_ptr<Book> book;
  std::unique_ptr<core::Publisher> publisher;
  std::vector<std::unique_ptr<core::DurableSubscriber>> connected;
  std::unique_ptr<Generator> generator;
};

/// Boots the deployment kSetupReps times (tearing down all but the last)
/// and reports the median boot-to-first-measured-event time.
std::unique_ptr<Topology> set_up(const RunConfig& config, const Inputs& inputs, Result& result) {
  std::vector<double> times;
  std::unique_ptr<Topology> topo;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    topo.reset();
    const std::int64_t t0 = now_ns();
    topo = std::make_unique<Topology>(inputs, config.work_dir + "/run" + std::to_string(rep),
                                      config.trace && rep + 1 == kSetupReps);
    times.push_back((now_ns() - t0) / 1e9);
  }
  result.metrics["setup_s"] = median(times);
  return topo;
}

struct Window {
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
  BrokerSample phb0, phb1, shb0, shb1;
  ThreadCpu client0, client1;
  SpanSummary client_spans0, client_spans1;
  std::uint64_t sent0 = 0, sent1 = 0;
  HostTicks host0, host1;
};

void open_window(Topology& t, Window& w) {
  // Keep the measured window's spans for the trace file, not set-up's.
  const std::int64_t now = now_ns();
  for (SpanLog* log : {t.phb->spans(), t.shb->spans(), t.hub->spans()}) {
    if (log != nullptr) log->keep_from(now);
  }
  w.phb0 = t.phb->sample();
  w.shb0 = t.shb->sample();
  w.client0 = this_thread_cpu();
  if (t.hub->spans() != nullptr) w.client_spans0 = t.hub->spans()->totals();
  w.sent0 = t.generator->sent();
  w.host0 = host_ticks();
  w.from_ns = now_ns();
}

void close_window(Topology& t, Window& w) {
  w.to_ns = now_ns();
  w.host1 = host_ticks();
  w.sent1 = t.generator->sent();
  w.client1 = this_thread_cpu();
  if (t.hub->spans() != nullptr) w.client_spans1 = t.hub->spans()->totals();
  w.phb1 = t.phb->sample();
  w.shb1 = t.shb->sample();
}

double cpu_ns(const ThreadCpu& a, const ThreadCpu& b) {
  return static_cast<double>((b.user_ns - a.user_ns) + (b.sys_ns - a.sys_ns));
}

/// Whether at least half of the latency window's steal bins stayed at or
/// below kStealLimit, so that latency samples are taken from those alone.
bool steal_filtered(const Book& b) {
  std::size_t clean = 0;
  for (const auto& bin : b.steal_bins) clean += bin.steal <= kStealLimit ? 1 : 0;
  return clean * 2 >= b.steal_bins.size() && !b.steal_bins.empty();
}

/// Latency percentiles over the samples (events due in the window) of the
/// bins the hypervisor left alone; over all samples when fewer than half of
/// the bins were left alone.
double percentile(const Book& b, const std::vector<Book::Sample>& samples, bool tail) {
  const bool filter = steal_filtered(b);
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const auto& s : samples) {
    if (filter) {
      const auto idx = static_cast<std::size_t>((s.at_ns - b.steal_bins.front().from_ns) /
                                                kStealBinNs);
      if (idx >= b.steal_bins.size() || b.steal_bins[idx].steal > kStealLimit) continue;
    }
    ms.push_back(s.ms);
  }
  return tail ? tail_quantile(std::move(ms), 0.99) : median(std::move(ms));
}

void latency_metrics(const Book& b, Result& r) {
  r.metrics["e2e_p50_ms"] = percentile(b, b.e2e, false);
  r.metrics["e2e_p99_ms"] = percentile(b, b.e2e, true);
  r.metrics["ack_p50_ms"] = percentile(b, b.ack, false);
  r.metrics["ack_p99_ms"] = percentile(b, b.ack, true);
  std::size_t clean = 0;
  std::string bins;
  for (const auto& bin : b.steal_bins) {
    clean += bin.steal <= kStealLimit ? 1 : 0;
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.3f ", bin.steal);
    bins += buf;
  }
  r.notes["steal_bins"] = bins;
  r.notes["clean_bins"] = std::to_string(clean) + "/" + std::to_string(b.steal_bins.size());
  r.notes["e2e_samples"] = std::to_string(b.e2e.size());
  r.notes["ack_samples"] = std::to_string(b.ack.size());
}

/// End-to-end and validity metrics common to both runtime workloads.
void window_metrics(const Window& w, Result& r) {
  const double events = static_cast<double>(w.sent1 - w.sent0);
  const double broker_ns = cpu_ns(w.phb0.cpu, w.phb1.cpu) + cpu_ns(w.shb0.cpu, w.shb1.cpu);
  r.metrics["broker_cpu_us_per_event"] = ratio(broker_ns / 1e3, events);
  const double wall = static_cast<double>(w.to_ns - w.from_ns);
  r.metrics["gen.busy_frac"] = ratio(cpu_ns(w.client0, w.client1), wall);
  r.metrics["net.phb.busy_frac"] = ratio(cpu_ns(w.phb0.cpu, w.phb1.cpu), wall);
  r.metrics["net.shb.busy_frac"] = ratio(cpu_ns(w.shb0.cpu, w.shb1.cpu), wall);
  // Latency on a shared host follows CPU steal (README.md, Noise).
  r.metrics["host_steal_frac"] = steal_frac(w.host0, w.host1);
}

/// Per-layer metrics of the traced run over the window `w`.
void layer_metrics(Topology& t, const Window& w, Result& r) {
  const double events = static_cast<double>(w.sent1 - w.sent0);
  r.metrics["net.sys_us_per_event"] = ratio(
      static_cast<double>((w.phb1.cpu.sys_ns - w.phb0.cpu.sys_ns) +
                          (w.shb1.cpu.sys_ns - w.shb0.cpu.sys_ns)) / 1e3,
      events);
  r.metrics["net.polls_per_event"] = ratio(
      static_cast<double>((w.phb1.polls - w.phb0.polls) + (w.shb1.polls - w.shb0.polls)), events);
  r.metrics["net.timers_per_event"] = ratio(
      static_cast<double>((w.phb1.timers - w.phb0.timers) + (w.shb1.timers - w.shb0.timers)),
      events);
  Registry end = w.phb1.registry;
  accumulate(end, w.shb1.registry);
  registry_layer_metrics(delta(w.phb0.registry, w.phb1.registry),
                         delta(w.shb0.registry, w.shb1.registry), end, events, r.metrics);
  r.metrics["core.gaps"] = static_cast<double>(t.book->gaps);

  SpanSummary spans = delta(w.phb0.spans, w.phb1.spans);
  accumulate(spans, delta(w.shb0.spans, w.shb1.spans));
  accumulate(spans, delta(w.client_spans0, w.client_spans1));
  r.metrics["wire.encode_ns_per_frame"] = mean_ns(spans, "wire::encode");
  r.metrics["wire.decode_ns_per_frame"] = mean_ns(spans, "wire::decode");

  // Tracing overhead: spans recorded in the window at their calibrated
  // cost, over the CPU the traced threads spent in the window.
  double span_cost_ns = 0;
  const double tick_cost = calibrate_span_cost_ns(true);
  const double plain_cost = calibrate_span_cost_ns(false);
  for (const auto& [name, totals] : spans) {
    span_cost_ns += static_cast<double>(totals.count) *
                    (name == "EventLoop::tick" ? tick_cost : plain_cost);
  }
  const double traced_cpu = cpu_ns(w.phb0.cpu, w.phb1.cpu) + cpu_ns(w.shb0.cpu, w.shb1.cpu) +
                            cpu_ns(w.client0, w.client1);
  r.metrics["trace.overhead_frac"] = ratio(span_cost_ns, traced_cpu);
  r.span_summary = spans;
}

std::uint64_t frame_rejects(Topology& t, const BrokerSample& phb, const BrokerSample& shb) {
  return phb.decode_rejects + phb.reassembly_rejects + shb.decode_rejects +
         shb.reassembly_rejects + t.hub->decode_rejects() + t.hub->reassembly_rejects();
}

/// Drains, checks the oracle, replays (traced), and tears down.
void finish(Topology& t, const RunConfig& config, const Inputs& inputs, Result& r) {
  t.generator->stop();
  t.hub->run_until([&] { return t.book->drained(); }, kDrainTimeoutS, [&] { t.check(); });
  t.book->finish();
  const BrokerSample phb = t.phb->sample();
  const BrokerSample shb = t.shb->sample();
  const std::uint64_t rejects = frame_rejects(t, phb, shb);
  if (rejects > 0) t.book->fail("frames rejected (decode or reassembly)", rejects);

  const double lag_p99 = tail_quantile(t.generator->lag_ms, 0.99);
  r.metrics["gen.lag_p99_ms"] = lag_p99;
  if (get(r.metrics, "gen.busy_frac") > kGenBusyLimit || lag_p99 > kGenLagLimitMs) {
    r.notes["invalid_reason"] = "the generator, not the brokers, limited the run";
  } else if (get(r.metrics, "host_steal_frac") > kStealLimit || !steal_filtered(*t.book)) {
    r.notes["invalid_reason"] = "the hypervisor took CPU from the measured window";
  }
  r.notes["valid"] = r.notes.count("invalid_reason") == 0 ? "true" : "false";

  if (config.trace) {
    ReplayInputs replay;
    for (const auto& s : inputs.parked()) replay.selectors.push_back(s.text());
    for (const auto& s : t.book->subs) replay.selectors.push_back(s.selector.text());
    const std::uint64_t events = std::min<std::uint64_t>(t.generator->sent(), kReplayEvents);
    for (std::uint64_t n = 0; n < events; ++n) {
      replay.events.push_back(make_event(n, inputs.event(n), 0));
    }
    // Stop the brokers first: their captured frames are theirs until then.
    t.halt();
    t.shb->release();
    t.phb->release();
    for (BrokerThread* b : {t.phb.get(), t.shb.get()}) {
      auto& frames = b->frames();
      replay.frames.insert(replay.frames.end(), frames.begin(), frames.end());
    }
    const auto client_frames = t.hub->frames();
    replay.frames.insert(replay.frames.end(), client_frames.begin(), client_frames.end());
    auto replay_spans = std::make_unique<SpanLog>("replay", kKeepSpans);
    const ReplayResult rr =
        run_replay(replay, config.work_dir + "/replay", *replay_spans, r.metrics);
    if (rr.reassembly_rejects + rr.decode_rejects > 0) {
      t.book->fail("replayed frames rejected", rr.reassembly_rejects + rr.decode_rejects);
    }
    accumulate(r.span_summary, replay_spans->totals());
    r.spans.push_back(t.phb->take_spans());
    r.spans.push_back(t.shb->take_spans());
    r.spans.push_back(std::move(t.client_spans_));
    r.spans.push_back(std::move(replay_spans));
  }

  r.attempted = t.book->attempted();
  r.failed = t.book->failures;
  r.failures = t.book->reasons;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  r.metrics["failed_frac"] = static_cast<double>(r.failed) / attempted;
}

void common_notes(const Inputs& inputs, Result& r) {
  r.notes["input_digest"] = std::to_string(inputs.digest(100'000));
  r.notes["paced_rate_eps"] = std::to_string(kPacedRateEps);
  r.notes["parked_subscriptions"] = std::to_string(kParked);
  r.notes["cost_model"] =
      "all CostModel CPU charges 0, catchup_rate_limit_eps 1e9, protocol timers default";
  r.notes["disk_config"] =
      "sync_latency 0, read_seek_latency 0, bandwidth 1e12 B/s (FileBackend WALs)";
}

void set_log_level() {
  gryphon::Logger::instance().set_level(gryphon::LogLevel::kError);
}

}  // namespace

Result run_live_fanout(const RunConfig& config) {
  set_log_level();
  InputSpec spec;
  spec.parked = kParked;
  spec.connected = kLiveConnected;
  const Inputs inputs(config.seed, spec);
  Result r;
  common_notes(inputs, r);
  auto topo = set_up(config, inputs, r);
  Topology& t = *topo;
  const auto paced_ns = static_cast<std::int64_t>(config.seconds * 1e9);

  // Phase paced: open loop at the fixed rate; latency and CPU cost.
  Window paced;
  open_window(t, paced);
  t.book->window_from_ns = paced.from_ns;
  t.book->window_to_ns = paced.from_ns + paced_ns;
  t.generator->start_paced(kPacedRateEps, paced.from_ns, paced.from_ns + paced_ns);
  t.run_to(paced.from_ns, paced.from_ns + paced_ns);
  close_window(t, paced);
  window_metrics(paced, r);

  // Phase saturated, traced run only: closed loop; delivered events per
  // wall-second. It feeds peak_goodput_eps alone, which has no bound, so
  // the untraced run gives the whole of --seconds to the paced window.
  if (config.trace) {
    // A fixed event count, not a fixed time: the memory the run retains (the
    // parked subscriptions never release) then does not depend on host speed.
    const auto saturated_events =
        static_cast<std::uint64_t>(config.seconds * 0.5 * kSaturatedEventsPerSecond);
    const std::int64_t sat_from = now_ns();
    const std::uint64_t sat_end = t.generator->sent() + saturated_events;
    t.generator->start_closed(kClosedWindow, saturated_events);
    // A lost or duplicated delivery leaves the count short of sat_end; the
    // wait then ends at its timeout and finish() counts what is missing.
    const bool sat_done = t.hub->run_until(
        [&] { return t.book->probe_rx_ns.size() >= sat_end; }, kSaturatedTimeoutS,
        [&] { t.check(); });
    const std::int64_t sat_to = now_ns();
    if (!sat_done) r.notes["saturated_timed_out"] = "true";
    r.notes["saturated_sent"] = std::to_string(t.generator->sent() - paced.sent1);
    r.notes["probe_rx"] = std::to_string(t.book->probe_rx_ns.size());
    std::vector<double> bins;
    const auto bin_ns = static_cast<std::int64_t>(kGoodputBinS * 1e9);
    for (std::int64_t from = sat_from + static_cast<std::int64_t>(kGoodputRampS * 1e9);
         from + bin_ns <= sat_to; from += bin_ns) {
      const auto& rx = t.book->probe_rx_ns;
      const auto lo = std::lower_bound(rx.begin(), rx.end(), from);
      const auto hi = std::lower_bound(rx.begin(), rx.end(), from + bin_ns);
      bins.push_back(static_cast<double>(hi - lo) / kGoodputBinS);
    }
    r.metrics["peak_goodput_eps"] = median(bins);
    r.notes["goodput_bins"] = std::to_string(bins.size());
    layer_metrics(t, paced, r);
  }
  finish(t, config, inputs, r);
  latency_metrics(*t.book, r);  // after the drain: every window event arrived
  return r;
}

Result run_reconnect_catchup(const RunConfig& config) {
  set_log_level();
  const auto window_ns = static_cast<std::int64_t>(config.seconds * 1e9);
  InputSpec spec;
  spec.parked = kParked;
  spec.connected = kCyclingConnected;
  spec.cycling = true;
  spec.schedule_us = window_ns / 1000;
  const Inputs inputs(config.seed, spec);
  Result r;
  common_notes(inputs, r);
  auto topo = set_up(config, inputs, r);
  Topology& t = *topo;

  Window w;
  open_window(t, w);
  const std::int64_t end_ns = w.from_ns + window_ns;
  t.book->window_from_ns = w.from_ns;
  t.book->window_to_ns = end_ns;
  t.book->catchup_until_ns = end_ns;
  t.generator->start_paced(kPacedRateEps, w.from_ns, end_ns);

  // The reconnect schedule: subscriber i (connected sub i + 1; the probe
  // never cycles) alternates its seeded up/down periods. A disconnect due
  // while the reconnect is unconfirmed or its catch-up still runs waits for
  // both: a ConnectedMsg names no connect attempt, so a client that
  // disconnects and reconnects before it arrives takes the old session's
  // confirmation for the new one (README.md, Known defects).
  struct Cycler {
    std::size_t sub;
    std::size_t cycle = 0;
  };
  std::vector<Cycler> cyclers;
  for (std::size_t i = 0; i < inputs.schedule().size(); ++i) cyclers.push_back({i + 1});
  std::function<void(Cycler&)> go_down;
  std::function<void(Cycler&)> come_up = [&](Cycler& c) {
    Book::Sub& s = t.book->subs[c.sub];
    s.up = false;
    s.connect_ns = now_ns();
    t.book->start_catchup(s, s.connect_ns);
    s.client->connect();
    ++c.cycle;
    const auto& cycles = inputs.schedule()[c.sub - 1];
    if (c.cycle < cycles.size() && now_ns() + cycles[c.cycle].up_us * 1000 < end_ns) {
      t.hub->loop().schedule_after(cycles[c.cycle].up_us, [&, cp = &c] { go_down(*cp); });
    }
  };
  go_down = [&](Cycler& c) {
    Book::Sub& s = t.book->subs[c.sub];
    if (s.catching_up || !s.up) {
      if (!s.up) ++t.book->unconfirmed_deferrals;
      t.hub->loop().schedule_after(msec(20), [&, cp = &c] { go_down(*cp); });
      return;
    }
    s.client->disconnect();
    const auto& cycle = inputs.schedule()[c.sub - 1][c.cycle];
    t.hub->loop().schedule_after(cycle.down_us, [&, cp = &c] { come_up(*cp); });
  };
  for (Cycler& c : cyclers) {
    t.hub->loop().schedule_after(inputs.schedule()[c.sub - 1][0].up_us,
                                 [&, cp = &c] { go_down(*cp); });
  }
  t.run_to(w.from_ns, end_ns);
  close_window(t, w);

  window_metrics(w, r);
  if (config.trace) layer_metrics(t, w, r);
  // Outstanding reconnects and catch-ups complete during the drain.
  finish(t, config, inputs, r);
  latency_metrics(*t.book, r);

  std::vector<double> ms;
  double missed = 0;
  double total_s = 0;
  for (const auto& c : t.book->catchups) {
    ms.push_back(c.ms);
    missed += static_cast<double>(c.missed);
    total_s += c.ms / 1e3;
  }
  const std::size_t catchups = ms.size();
  r.metrics["catchup_p50_ms"] = median(ms);
  r.metrics["catchup_p90_ms"] = tail_quantile(std::move(ms), 0.90);
  r.metrics["catchup_eps"] = ratio(missed, total_s);
  r.notes["catchups"] = std::to_string(catchups);
  r.notes["reconnects"] = std::to_string(t.book->connect_ms.size());
  r.notes["unconfirmed_deferrals"] = std::to_string(t.book->unconfirmed_deferrals);
  r.metrics["connect_p50_ms"] = median(t.book->connect_ms);
  r.metrics["connect_max_ms"] =
      t.book->connect_ms.empty()
          ? 0
          : *std::max_element(t.book->connect_ms.begin(), t.book->connect_ms.end());

  return r;
}

}  // namespace perfbench
