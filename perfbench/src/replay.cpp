#include "replay.hpp"

#include <filesystem>

#include "core/event_codec.hpp"
#include "core/node_resources.hpp"
#include "core/pfs.hpp"
#include "layers.hpp"
#include "matching/parser.hpp"
#include "matching/subscription_index.hpp"
#include "net/frame_stream.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "storage/log_volume.hpp"
#include "wire/codec.hpp"

namespace perfbench {

namespace {

using gryphon::PubendId;
using gryphon::SubscriberId;
using gryphon::Tick;
namespace core = gryphon::core;
namespace storage = gryphon::storage;

constexpr std::size_t kReadChunk = 4096;      // bytes per reassembler feed
constexpr std::size_t kPfsSyncEvery = 200;    // the CostModel default batch
constexpr std::size_t kPfsReadSubscribers = 200;
constexpr std::size_t kPfsReadPositions = 5000;

std::vector<std::vector<SubscriberId>> replay_matching(const ReplayInputs& in, SpanLog& spans,
                                                       std::map<std::string, double>& out) {
  gryphon::matching::SubscriptionIndex index;
  for (std::size_t i = 0; i < in.selectors.size(); ++i) {
    index.add(SubscriberId(static_cast<std::uint32_t>(i + 1)),
              gryphon::matching::parse_predicate(in.selectors[i]));
  }
  std::vector<std::vector<SubscriberId>> matches(in.events.size());
  std::int64_t total = 0;
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const std::int64_t t0 = now_ns();
    index.match_into(*in.events[i], matches[i]);
    const std::int64_t t1 = now_ns();
    spans.record("SubscriptionIndex::match_into", t0, t1);
    total += t1 - t0;
  }
  out["matching.match_ns_per_event"] =
      ratio(static_cast<double>(total), static_cast<double>(in.events.size()));
  return matches;
}

ReplayResult replay_frames(const ReplayInputs& in, SpanLog& spans,
                           std::map<std::string, double>& out) {
  std::vector<std::byte> stream;
  for (const auto& frame : in.frames) stream.insert(stream.end(), frame.begin(), frame.end());
  gryphon::net::FrameReassembler::Options options;
  options.max_kind = static_cast<std::uint8_t>(core::MsgKind::kJmsConsumed);
  gryphon::net::FrameReassembler reassembler(options);
  std::vector<std::shared_ptr<const gryphon::sim::FrameMessage>> frames;
  std::int64_t feed_ns = 0;
  for (std::size_t at = 0; at < stream.size(); at += kReadChunk) {
    const std::size_t len = std::min(kReadChunk, stream.size() - at);
    const std::int64_t t0 = now_ns();
    reassembler.feed(std::span<const std::byte>(stream.data() + at, len));
    while (auto frame = reassembler.next()) frames.push_back(std::move(frame));
    const std::int64_t t1 = now_ns();
    spans.record("FrameReassembler::feed", t0, t1);
    feed_ns += t1 - t0;
  }
  out["net.reassembly_ns_per_frame"] =
      ratio(static_cast<double>(feed_ns), static_cast<double>(frames.size()));

  ReplayResult result;
  result.reassembly_rejects = reassembler.rejects();
  for (const auto& frame : frames) {
    std::int64_t t0 = now_ns();
    const auto decoded = gryphon::wire::decode(frame->wire_bytes(), frame->wire_owner());
    spans.record("wire::decode (replay)", t0, now_ns());
    if (decoded.msg == nullptr) {
      ++result.decode_rejects;
      continue;
    }
    t0 = now_ns();
    const auto bytes = gryphon::wire::encode(*decoded.msg);
    spans.record("wire::encode (replay)", t0, now_ns());
  }
  return result;
}

void replay_log(const ReplayInputs& in, const std::string& dir, SpanLog& spans,
                std::map<std::string, double>& out) {
  gryphon::sim::Simulator sim;
  storage::SimDisk disk(sim, "replay.disk", zero_delay_disk());
  storage::StorageOptions options;
  options.file_dir = dir + "/log";
  storage::LogVolume volume(disk, options, "log");
  const auto stream = volume.open_stream("events");
  std::int64_t total = 0;
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    core::LoggedEvent record;
    record.tick = static_cast<Tick>(i + 1);
    record.publisher = gryphon::PublisherId(1);
    record.seq = i + 1;
    record.event = in.events[i];
    auto bytes = core::encode_logged_event(record, volume.acquire_buffer());
    bool durable = false;
    const std::int64_t t0 = now_ns();
    volume.append(stream, std::move(bytes));
    volume.sync([&durable] { durable = true; });
    sim.run_until_idle();
    const std::int64_t t1 = now_ns();
    spans.record("LogVolume::append+sync", t0, t1);
    total += t1 - t0;
    if (!durable) throw std::runtime_error("replay: log sync did not complete");
    volume.chop(stream, static_cast<gryphon::storage::LogIndex>(i + 1));
  }
  out["storage.append_us_per_record"] =
      ratio(static_cast<double>(total) / 1e3, static_cast<double>(in.events.size()));
}

void replay_pfs(const std::vector<std::vector<SubscriberId>>& matches, const std::string& dir,
                SpanLog& spans, std::map<std::string, double>& out) {
  gryphon::sim::Simulator sim;
  gryphon::sim::Network network(sim);
  core::BrokerConfig broker;
  storage::StorageOptions options;
  options.file_dir = dir + "/pfs";
  core::NodeResources node(sim, network, "replay.shb", broker, zero_delay_disk(), 1, options);
  core::PersistentFilteringSubsystem pfs(node, broker.costs);
  const PubendId pubend(1);
  pfs.open({pubend});

  std::vector<SubscriberId> readers;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    if (matches[i].empty()) continue;
    const std::int64_t t0 = now_ns();
    pfs.append(pubend, static_cast<Tick>(i + 1), matches[i]);
    spans.record("Pfs::append", t0, now_ns());
    if ((i + 1) % kPfsSyncEvery == 0) {
      pfs.sync([] {});
      sim.run_until_idle();
    }
    for (const SubscriberId s : matches[i]) {
      if (readers.size() < kPfsReadSubscribers &&
          std::find(readers.begin(), readers.end(), s) == readers.end()) {
        readers.push_back(s);
      }
    }
  }
  pfs.sync([] {});
  sim.run_until_idle();

  std::int64_t read_ns = 0;
  std::size_t records = 0;
  for (const SubscriberId s : readers) {
    bool done = false;
    const std::int64_t t0 = now_ns();
    pfs.read(pubend, s, gryphon::kTickZero, kPfsReadPositions,
             [&](core::PersistentFilteringSubsystem::ReadResult r) {
               records += r.records_traversed;
               done = true;
             });
    sim.run_until_idle();
    const std::int64_t t1 = now_ns();
    spans.record("Pfs::read", t0, t1);
    read_ns += t1 - t0;
    if (!done) throw std::runtime_error("replay: PFS read did not complete");
  }
  out["core.pfs_read_us_per_record"] =
      ratio(static_cast<double>(read_ns) / 1e3, static_cast<double>(records));
}

}  // namespace

storage::DiskConfig zero_delay_disk() {
  storage::DiskConfig d;
  d.sync_latency = 0;
  d.read_seek_latency = 0;
  d.write_bandwidth_bytes_per_sec = 1e12;
  d.read_bandwidth_bytes_per_sec = 1e12;
  return d;
}

ReplayResult run_replay(const ReplayInputs& inputs, const std::string& dir, SpanLog& spans,
                        std::map<std::string, double>& out) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto matches = replay_matching(inputs, spans, out);
  const ReplayResult result = replay_frames(inputs, spans, out);
  replay_log(inputs, dir, spans, out);
  replay_pfs(matches, dir, spans, out);
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench
