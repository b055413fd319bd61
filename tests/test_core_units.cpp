// Unit tests for core building blocks in isolation: checkpoint tokens,
// event codec, ChildStream fan-out/nack logic, the Downstream child links
// (chunking, release mins, child-filter rows across a restart), release
// policies, Pubend ladder + release protocol, and the baseline
// per-subscriber event log.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "sim/simulator.hpp"
#include "core/baseline_event_log.hpp"
#include "core/checkpoint_token.hpp"
#include "core/child_stream.hpp"
#include "core/event_codec.hpp"
#include "core/node_resources.hpp"
#include "core/phb.hpp"
#include "core/pubend.hpp"
#include "core/release_policy.hpp"
#include "matching/parser.hpp"

namespace gryphon::core {
namespace {

matching::EventDataPtr event(int g = 0) {
  return std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"g", matching::Value(g)}}, "", 64);
}

// -------------------------------------------------------- CheckpointToken

TEST(CheckpointToken, AdvanceIsMonotonic) {
  CheckpointToken ct;
  EXPECT_EQ(ct.of(PubendId{1}), kTickZero);
  ct.advance(PubendId{1}, 10);
  ct.advance(PubendId{1}, 5);  // no-op
  EXPECT_EQ(ct.of(PubendId{1}), 10);
  ct.set(PubendId{1}, 3);  // explicit set may rewind (deliberate old CT)
  EXPECT_EQ(ct.of(PubendId{1}), 3);
}

TEST(CheckpointToken, MergeAndDomination) {
  CheckpointToken a;
  a.set(PubendId{1}, 10);
  a.set(PubendId{2}, 5);
  CheckpointToken b;
  b.set(PubendId{1}, 7);
  b.set(PubendId{2}, 9);
  EXPECT_FALSE(a.dominated_by(b));
  a.merge(b);
  EXPECT_EQ(a.of(PubendId{1}), 10);
  EXPECT_EQ(a.of(PubendId{2}), 9);
  EXPECT_TRUE(b.dominated_by(a));
}

TEST(CheckpointToken, SerializationRoundTrip) {
  CheckpointToken ct;
  ct.set(PubendId{1}, 100);
  ct.set(PubendId{7}, 12345678901LL);
  BufWriter w;
  ct.serialize(w);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4 + 2 * 12);
  BufReader r(bytes);
  const auto back = CheckpointToken::deserialize(r);
  EXPECT_EQ(back.of(PubendId{1}), 100);
  EXPECT_EQ(back.of(PubendId{7}), 12345678901LL);
  EXPECT_TRUE(r.done());
}

// ------------------------------------------------------------ event codec

TEST(EventCodec, RoundTripsEverything) {
  auto ev = std::make_shared<matching::EventData>(
      std::map<std::string, matching::Value>{{"sym", matching::Value("IBM")},
                                             {"price", matching::Value(101.5)},
                                             {"urgent", matching::Value(true)}},
      "payload-bytes", 250);
  const LoggedEvent in{4242, PublisherId{9}, 77, ev};
  const auto bytes = encode_logged_event(in);
  const LoggedEvent out = decode_logged_event(bytes);
  EXPECT_EQ(out.tick, 4242);
  EXPECT_EQ(out.publisher, PublisherId{9});
  EXPECT_EQ(out.seq, 77u);
  EXPECT_EQ(out.event->payload(), "payload-bytes");
  EXPECT_EQ(out.event->payload_size(), 250u);
  EXPECT_EQ(*out.event->attribute("sym"), matching::Value("IBM"));
  EXPECT_EQ(*out.event->attribute("price"), matching::Value(101.5));
  EXPECT_EQ(*out.event->attribute("urgent"), matching::Value(true));
}

TEST(EventCodec, CorruptRecordThrows) {
  auto bytes = encode_logged_event({1, PublisherId{1}, 1, event()});
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_logged_event(bytes), InvariantViolation);
}

// ------------------------------------------------------------ ChildStream

TEST(ChildStream, FreshStreamingAdvancesSentUpto) {
  ChildStream cs(10);
  std::vector<routing::KnowledgeItem> items{
      {routing::TickValue::kS, {11, 14}, nullptr},
      {routing::TickValue::kD, {15, 15}, event()},
  };
  const auto out = cs.on_items(items);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(cs.sent_upto(), 15);
  // Replaying the same items yields nothing new.
  EXPECT_TRUE(cs.on_items(items).empty());
}

TEST(ChildStream, StaleKnowledgeOnlyFlowsToPendingNacks) {
  ChildStream cs(100);
  routing::TickMap cache(0);  // empty cache: nacks all go pending
  const auto outcome = cs.on_nack({{40, 60}}, cache);
  EXPECT_TRUE(outcome.respond.empty());
  ASSERT_EQ(outcome.unknown.size(), 1u);
  EXPECT_EQ(outcome.unknown[0], (TickRange{40, 60}));

  // Old knowledge arrives: only the nacked window is forwarded.
  std::vector<routing::KnowledgeItem> items{
      {routing::TickValue::kS, {30, 70}, nullptr}};
  const auto out = cs.on_items(items);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].range, (TickRange{40, 60}));
  EXPECT_TRUE(cs.pending_nacks().empty());
  EXPECT_EQ(cs.sent_upto(), 100);  // stale data does not move the cursor
}

TEST(ChildStream, NackServedFromCache) {
  ChildStream cs(100);
  routing::TickMap cache(0);
  cache.set_silence(40, 49);
  cache.set_data(50, event());
  const auto outcome = cs.on_nack({{40, 55}}, cache);
  ASSERT_EQ(outcome.respond.size(), 2u);
  ASSERT_EQ(outcome.unknown.size(), 1u);
  EXPECT_EQ(outcome.unknown[0], (TickRange{51, 55}));
  EXPECT_TRUE(cs.pending_nacks().covers(51, 55));
}

TEST(ChildStream, ResetDropsCuriosity) {
  ChildStream cs(0);
  routing::TickMap cache(0);
  (void)cs.on_nack({{1, 10}}, cache);
  EXPECT_FALSE(cs.pending_nacks().empty());
  cs.reset(50);
  EXPECT_TRUE(cs.pending_nacks().empty());
  EXPECT_EQ(cs.sent_upto(), 50);
}

TEST(FilterItems, ConvertsNonMatchingDataToSilenceAndMerges) {
  matching::SubscriptionIndex filter;
  filter.add(SubscriberId{1}, matching::parse_predicate("g == 1"));
  std::vector<routing::KnowledgeItem> items{
      {routing::TickValue::kS, {1, 4}, nullptr},
      {routing::TickValue::kD, {5, 5}, event(2)},   // filtered out
      {routing::TickValue::kS, {6, 9}, nullptr},
      {routing::TickValue::kD, {10, 10}, event(1)},  // kept
  };
  const auto out = filter_items(items, &filter);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, routing::TickValue::kS);
  EXPECT_EQ(out[0].range, (TickRange{1, 9}));  // S runs merged across the 5
  EXPECT_EQ(out[1].value, routing::TickValue::kD);
  // Null filter forwards everything.
  EXPECT_EQ(filter_items(items, nullptr).size(), 4u);
}

// ------------------------------------------------------------- Downstream

/// A broker node with child endpoints that record the knowledge they get.
struct DownstreamFixture : ::testing::Test {
  sim::Simulator sim;
  sim::Network net{sim};
  BrokerConfig config{};
  NodeResources node{sim, net, "imb", config, storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
  Downstream downstream{node, {PubendId{1}}, "child_subs"};
  /// Per child name, the items of each StreamDataMsg it received.
  std::map<std::string, std::vector<std::vector<routing::KnowledgeItem>>> got;

  sim::EndpointId add_child(const std::string& name) {
    const auto ep = net.add_endpoint(name, [this, name](sim::EndpointId, sim::MessagePtr m) {
      const auto* data = dynamic_cast<const StreamDataMsg*>(m.get());
      ASSERT_NE(data, nullptr);
      got[name].push_back(data->items);
    });
    net.connect(node.endpoint, ep);
    downstream.add_child(ep, [](PubendId) { return kTickZero; });
    return ep;
  }
};

TEST_F(DownstreamFixture, BurstLongerThanChunkLimitLeavesInSeveralMessages) {
  const auto a = add_child("a");
  downstream.subscribe(a, SubscriberId{1}, "g == 1");
  constexpr std::size_t kLimit = Downstream::kMaxItemsPerMsg;
  std::vector<routing::KnowledgeItem> burst;
  for (Tick t = 1; t <= static_cast<Tick>(2 * kLimit + 5); ++t) {
    burst.push_back({routing::TickValue::kD, {t, t}, event(1)});
  }
  downstream.fanout(PubendId{1}, burst);
  sim.run_until_idle();
  const auto& msgs = got["a"];
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].size(), kLimit);
  EXPECT_EQ(msgs[1].size(), kLimit);
  EXPECT_EQ(msgs[2].size(), 5u);
  // In order, nothing lost across the chunk boundaries.
  Tick next = 1;
  for (const auto& m : msgs) {
    for (const auto& item : m) EXPECT_EQ(item.range.from, next++);
  }
}

TEST_F(DownstreamFixture, ReleaseMinsAreTakenOverEveryChild) {
  const PubendId p{1};
  EXPECT_FALSE(downstream.release_mins(p).has_value());  // no children
  const auto a = add_child("a");
  const auto b = add_child("b");
  const auto c = add_child("c");
  downstream.on_release_update(a, ReleaseUpdateMsg(p, 40, 90));
  downstream.on_release_update(b, ReleaseUpdateMsg(p, 70, 60));
  // c has not reported yet: it pins both mins at zero.
  auto mins = downstream.release_mins(p);
  ASSERT_TRUE(mins.has_value());
  EXPECT_EQ(mins->released, kTickZero);
  EXPECT_EQ(mins->latest_delivered, kTickZero);

  downstream.on_release_update(c, ReleaseUpdateMsg(p, 55, 80));
  mins = downstream.release_mins(p);
  EXPECT_EQ(mins->released, 40);
  EXPECT_EQ(mins->latest_delivered, 60);

  // released is taken as reported (a migration may lower it);
  // latest_delivered only moves forward.
  downstream.on_release_update(a, ReleaseUpdateMsg(p, 30, 50));
  downstream.on_release_update(b, ReleaseUpdateMsg(p, 75, 95));
  mins = downstream.release_mins(p);
  EXPECT_EQ(mins->released, 30);
  EXPECT_EQ(mins->latest_delivered, 80);  // a keeps 90, b 95, c 80
}

// A broker restarted over its WAL in a fresh process numbers its endpoints
// anew: the runtime assigns them in the order children say hello. The
// child-filter rows must still reach the child that subscribed, or a child
// gets S for ticks its subscribers need.
TEST(ChildFilterRows, FollowTheChildAcrossARestartThatRenumbersEndpoints) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gryphon_child_rows." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  storage::StorageOptions storage;
  storage.file_dir = dir.string();
  const storage::DiskConfig disk{msec(2), 1e9, 1e9, msec(1)};
  const BrokerConfig config{};
  const PubendId p{1};
  const auto ignore = [](sim::EndpointId, sim::MessagePtr) {};

  {  // First incarnation: children a, b created in that order.
    sim::Simulator sim;
    sim::Network net{sim};
    NodeResources node{sim, net, "phb", config, disk, 1, storage};
    const auto a = net.add_endpoint("a", ignore);
    const auto b = net.add_endpoint("b", ignore);
    net.connect(node.endpoint, a);
    net.connect(node.endpoint, b);
    PublisherHostingBroker phb(node, config, {p});
    phb.add_child(a);
    phb.add_child(b);
    net.send(a, node.endpoint, std::make_shared<SubscribeMsg>(SubscriberId{1}, "g == 1"));
    net.send(b, node.endpoint, std::make_shared<SubscribeMsg>(SubscriberId{2}, "g == 2"));
    sim.run_until(sec(1));
  }

  // Second incarnation over the same WAL files: the children come back in
  // the reverse order.
  sim::Simulator sim;
  sim::Network net{sim};
  NodeResources node{sim, net, "phb", config, disk, 1, storage};
  node.log_volume.adopt();
  node.database.adopt();
  std::map<std::string, std::vector<routing::KnowledgeItem>> got;
  const auto capture = [&got](std::string name) {
    return [&got, name](sim::EndpointId, sim::MessagePtr m) {
      if (const auto* data = dynamic_cast<const StreamDataMsg*>(m.get())) {
        for (const auto& item : data->items) got[name].push_back(item);
      }
    };
  };
  const auto b = net.add_endpoint("b", capture("b"));
  const auto a = net.add_endpoint("a", capture("a"));
  const auto pub = net.add_endpoint("pub", ignore);
  for (const auto ep : {a, b, pub}) net.connect(node.endpoint, ep);
  PublisherHostingBroker phb(node, config, {p});
  phb.add_child(b);
  phb.add_child(a);
  phb.recover();
  phb.start();
  net.send(pub, node.endpoint,
           std::make_shared<PublishMsg>(PublisherId{1}, 1, 1, p, event(1)));
  sim.run_until(sim.now() + sec(1));
  std::filesystem::remove_all(dir);

  // The event matches only a's filter: a gets it as D, b as S.
  const auto data_ticks = [&got](const std::string& name) {
    std::vector<Tick> out;
    for (const auto& item : got[name]) {
      if (item.value == routing::TickValue::kD) out.push_back(item.range.from);
    }
    return out;
  };
  EXPECT_TRUE(data_ticks("b").empty()) << "child b got an event it never asked for";
  const auto at_a = data_ticks("a");
  ASSERT_EQ(at_a.size(), 1u) << "child a did not get the event it subscribed to";
  bool b_silenced = false;
  for (const auto& item : got["b"]) {
    b_silenced |= item.value == routing::TickValue::kS && item.range.from <= at_a[0] &&
                  at_a[0] <= item.range.to;
  }
  EXPECT_TRUE(b_silenced);
}

// --------------------------------------------------------- ReleasePolicy

TEST(ReleasePolicy, NoEarlyReleaseSticksToTr) {
  NoEarlyReleasePolicy p;
  EXPECT_EQ(p.release_upto(100, 500, 10'000), 100);
}

TEST(ReleasePolicy, MaxRetainHonorsTdAndRetention) {
  MaxRetainPolicy p(1000);
  // T - maxRetain - 1 within (Tr, Td]: release up to it.
  EXPECT_EQ(p.release_upto(100, 5000, 4000), 2999);
  // Never beyond Td.
  EXPECT_EQ(p.release_upto(100, 2000, 9000), 2000);
  // Never below Tr.
  EXPECT_EQ(p.release_upto(100, 5000, 500), 100);
}

// ----------------------------------------------------------------- Pubend

struct PubendFixture : ::testing::Test {
  sim::Simulator sim;
  sim::Network net{sim};
  BrokerConfig config{};
  NodeResources node{sim, net, "phb", config, storage::DiskConfig{msec(2), 1e9, 1e9, msec(1)}};
};

TEST_F(PubendFixture, AssignsMonotonicTicksAndDedups) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  const auto a = pe.accept_publish(PublisherId{1}, 1, 1, event(), sim.now());
  const auto b = pe.accept_publish(PublisherId{1}, 2, 1, event(), sim.now());
  EXPECT_FALSE(a.duplicate);
  EXPECT_LT(a.tick, b.tick);
  // A retry of an accepted seq is acked with the tick it was assigned the
  // first time, without re-logging — even when later seqs were accepted in
  // between (a retried backlog after a PHB outage arrives exactly so).
  const auto dup = pe.accept_publish(PublisherId{1}, 1, 1, event(), sim.now());
  EXPECT_TRUE(dup.duplicate);
  EXPECT_EQ(dup.tick, a.tick);
  EXPECT_EQ(pe.events_logged(), 2u);
}

TEST_F(PubendFixture, AnnouncesDataWithSilenceFill) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  const auto a = pe.accept_publish(PublisherId{1}, 1, 1, event(), sec(1));
  const auto region = pe.announce_data(a.tick, event());
  EXPECT_EQ(region.to, a.tick);
  EXPECT_EQ(pe.head(), a.tick);
  EXPECT_EQ(pe.ticks().value_at(a.tick), routing::TickValue::kD);
  if (a.tick > 1) EXPECT_EQ(pe.ticks().value_at(a.tick - 1), routing::TickValue::kS);
}

TEST_F(PubendFixture, SilenceStopsAtPendingUnloggedEvent) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  const auto a = pe.accept_publish(PublisherId{1}, 1, 1, event(), sec(1));
  // Event accepted but not yet announced: silence may not pass it.
  const auto region = pe.announce_silence(sec(5));
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->to, a.tick - 1);
  pe.announce_data(a.tick, event());
  const auto region2 = pe.announce_silence(sec(5));
  ASSERT_TRUE(region2.has_value());
  EXPECT_EQ(region2->to, tick_of_simtime(sec(5)) - 1);
  EXPECT_FALSE(pe.announce_silence(sec(5)).has_value());  // nothing new
}

TEST_F(PubendFixture, ReleaseConvertsPrefixToLostAndChopsLog) {
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  std::vector<Tick> ticks;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const auto acc = pe.accept_publish(PublisherId{1}, i, i, event(), sec(i));
    pe.announce_data(acc.tick, event());
    ticks.push_back(acc.tick);
  }
  EXPECT_EQ(pe.retained_events(), 5u);
  pe.update_mins(ticks[2], ticks[3]);
  const auto lost = pe.apply_release(sec(10));
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->to, ticks[2]);
  EXPECT_EQ(pe.lost_upto(), ticks[2]);
  EXPECT_EQ(pe.retained_events(), 2u);
  EXPECT_EQ(pe.ticks().value_at(ticks[1]), routing::TickValue::kL);
  EXPECT_EQ(pe.ticks().value_at(ticks[3]), routing::TickValue::kD);
  // No further release without new mins.
  EXPECT_FALSE(pe.apply_release(sec(11)).has_value());
}

TEST_F(PubendFixture, ReleasedMinMayRegressButLossIsMonotone) {
  // A migration can legitimately lower Tr; delivered stays monotone, and a
  // regressed Tr only delays future releases — it never un-loses a prefix.
  Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  std::vector<Tick> ticks;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const auto acc = pe.accept_publish(PublisherId{1}, i, i, event(), sec(i));
    pe.announce_data(acc.tick, event());
    ticks.push_back(acc.tick);
  }
  pe.update_mins(ticks[1], ticks[2]);
  ASSERT_TRUE(pe.apply_release(sec(9)).has_value());
  const Tick lost = pe.lost_upto();
  EXPECT_EQ(lost, ticks[1]);

  pe.update_mins(ticks[0], ticks[2]);  // regressed pin (migration)
  EXPECT_EQ(pe.released_min(), ticks[0]);
  EXPECT_EQ(pe.delivered_min(), ticks[2]);
  EXPECT_FALSE(pe.apply_release(sec(10)).has_value());
  EXPECT_EQ(pe.lost_upto(), lost);  // loss never regresses
}

TEST_F(PubendFixture, RecoveryRebuildsLadderAndDedup) {
  {
    Pubend pe(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      const auto acc = pe.accept_publish(PublisherId{7}, i, i, event(), sec(i));
      pe.announce_data(acc.tick, event());
    }
    node.log_volume.sync([] {});
    sim.run_until_idle();
  }
  node.crash();
  node.restart();
  Pubend pe2(PubendId{1}, node, std::make_shared<NoEarlyReleasePolicy>());
  pe2.recover();
  EXPECT_EQ(pe2.head(), tick_of_simtime(sec(3)));
  EXPECT_EQ(pe2.ticks().value_at(pe2.head()), routing::TickValue::kD);
  // Replayed publishes are recognized as duplicates.
  const auto dup = pe2.accept_publish(PublisherId{7}, 3, 3, event(), sec(10));
  EXPECT_TRUE(dup.duplicate);
  const auto fresh = pe2.accept_publish(PublisherId{7}, 4, 4, event(), sec(10));
  EXPECT_FALSE(fresh.duplicate);
  EXPECT_GT(fresh.tick, pe2.head());
}

// -------------------------------------------------- PerSubscriberEventLog

TEST(PerSubscriberEventLog, WritesFullEventPerMatchingSubscriber) {
  sim::Simulator sim;
  storage::SimDisk disk(sim, "d", {msec(2), 1e9, 1e9, msec(1)});
  storage::LogVolume volume(disk);
  PerSubscriberEventLog log(volume);
  log.register_subscriber(SubscriberId{1});
  log.register_subscriber(SubscriberId{2});
  log.register_subscriber(SubscriberId{3});

  auto ev = event();
  log.log_event(100, ev, {SubscriberId{1}, SubscriberId{3}});
  EXPECT_EQ(log.records_written(), 2u);
  const auto per_event = encode_logged_event({100, PublisherId{0}, 0, ev}).size();
  EXPECT_EQ(log.payload_bytes_written(), 2 * per_event);

  log.log_event(101, ev, {SubscriberId{1}});
  log.ack(SubscriberId{1}, 100);  // chops the first record of sub 1 only
  EXPECT_EQ(log.records_written(), 3u);
}

}  // namespace
}  // namespace gryphon::core
