// The wire-message vocabulary of the broker network and the client protocol.
//
// Broker <-> broker:
//   StreamDataMsg     knowledge (D/S/L items) flowing down the tree, both
//                     fresh in-order streaming and nack responses
//   NackMsg           curiosity flowing up: "these ranges are Q for me"
//   ReleaseUpdateMsg  (released, latestDelivered) mins flowing up
//   SubscribeMsg /    subscription (predicate) propagation up the tree, for
//   UnsubscribeMsg    link-level filtering
//   BrokerResumeMsg   child (re)connects and tells the parent where to
//                     resume each pubend's stream
//
// Client <-> broker:
//   PublishMsg / PublishAckMsg          publisher <-> PHB (at-least-once +
//                                       pubend-side dedup = exactly-once log)
//   ConnectMsg / ConnectedMsg /         durable subscriber session control
//   DisconnectMsg / UnsubscribeReqMsg
//   AckMsg                              subscriber pushes its CT (paper §2)
//   EventDeliveryMsg / SilenceDeliveryMsg / GapDeliveryMsg
//                                       the three message kinds of §2
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint_token.hpp"
#include "core/event_codec.hpp"
#include "matching/event.hpp"
#include "routing/tick_map.hpp"
#include "sim/message.hpp"
#include "util/assert.hpp"
#include "util/byte_buffer.hpp"
#include "util/ids.hpp"
#include "util/interval_set.hpp"
#include "util/time.hpp"

namespace gryphon::core {

enum class MsgKind : std::uint8_t {
  kStreamData,
  kNack,
  kReleaseUpdate,
  kSubscribe,
  kSubscribeAck,
  kUnsubscribe,
  kBrokerResume,
  kPublish,
  kPublishAck,
  kConnect,
  kConnected,
  kDisconnect,
  kUnsubscribeReq,
  kAck,
  kEventDelivery,
  kSilenceDelivery,
  kGapDelivery,
  kJmsConsumed,
};

/// Fixed per-message envelope size — exactly the wire frame header
/// (wire/frame.hpp: magic, version, kind, length, CRC32C, padded to 64
/// bytes). Single source of truth; the frame static-asserts against it.
constexpr std::size_t kEnvelopeBytes = 64;

class Msg : public sim::Message {
 public:
  explicit Msg(MsgKind kind) : kind_(kind) {}
  [[nodiscard]] MsgKind kind() const { return kind_; }

  /// Appends this message's wire payload (everything behind the frame
  /// header) to `w`.
  virtual void write_payload(BufWriter& w) const = 0;

 private:
  MsgKind kind_;
};

/// Each message kind states its byte layout once, as
/// `template <class W> void write(W& w) const`. This base runs that one
/// field list through BufWriter to encode and through ByteCounter to size,
/// so wire_size() is kEnvelopeBytes plus exactly what the encoder appends.
/// The bandwidth model, the byte counters and the codec's arena sizing all
/// read that count. The decoder (wire/codec.cpp) is the only other copy of
/// a layout; the codec's canonical re-encode check and the round-trip tests
/// hold it to this one.
template <class Self, MsgKind K>
class WireMsg : public Msg {
 public:
  WireMsg() : Msg(K) {}

  [[nodiscard]] std::size_t wire_size() const final {
    ByteCounter c;
    static_cast<const Self&>(*this).write(c);
    return kEnvelopeBytes + c.size();
  }
  void write_payload(BufWriter& w) const final {
    static_cast<const Self&>(*this).write(w);
  }
};

namespace detail {
template <class W>
void put_range(W& w, const TickRange& r) {
  w.put_i64(r.from);
  w.put_i64(r.to);
}

template <class W>
void put_heads(W& w, const std::vector<std::pair<PubendId, Tick>>& heads) {
  w.put_u32(static_cast<std::uint32_t>(heads.size()));
  for (const auto& [p, t] : heads) {
    w.put_u32(p.value());
    w.put_i64(t);
  }
}
}  // namespace detail

// ---------------------------------------------------------------- brokers

struct StreamDataMsg final : WireMsg<StreamDataMsg, MsgKind::kStreamData> {
  StreamDataMsg(PubendId p, std::vector<routing::KnowledgeItem> its)
      : pubend(p), items(std::move(its)) {}

  PubendId pubend;
  std::vector<routing::KnowledgeItem> items;

  template <class W>
  void write(W& w) const {
    w.put_u32(pubend.value());
    w.put_u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) {
      w.put_u8(static_cast<std::uint8_t>(item.value));
      detail::put_range(w, item.range);
      if (item.value == routing::TickValue::kD) {
        GRYPHON_CHECK_MSG(item.event != nullptr, "D item without event");
        encode_event_data(w, *item.event);
      }
    }
  }
};

struct NackMsg final : WireMsg<NackMsg, MsgKind::kNack> {
  NackMsg(PubendId p, std::vector<TickRange> rs, bool authoritative = false)
      : pubend(p), ranges(std::move(rs)), authoritative_only(authoritative) {}

  PubendId pubend;
  std::vector<TickRange> ranges;
  /// Refiltering recovery (reconnect-anywhere): intermediate caches must
  /// not answer — their S knowledge was filtered against an older
  /// subscription set; only the pubend's ladder is authoritative.
  bool authoritative_only;

  template <class W>
  void write(W& w) const {
    w.put_u32(pubend.value());
    w.put_u8(authoritative_only ? 1 : 0);
    w.put_u32(static_cast<std::uint32_t>(ranges.size()));
    for (const auto& r : ranges) detail::put_range(w, r);
  }
};

struct ReleaseUpdateMsg final : WireMsg<ReleaseUpdateMsg, MsgKind::kReleaseUpdate> {
  ReleaseUpdateMsg(PubendId p, Tick rel, Tick ld)
      : pubend(p), released(rel), latest_delivered(ld) {}

  PubendId pubend;
  Tick released;
  Tick latest_delivered;

  template <class W>
  void write(W& w) const {
    w.put_u32(pubend.value());
    w.put_i64(released);
    w.put_i64(latest_delivered);
  }
};

struct SubscribeMsg final : WireMsg<SubscribeMsg, MsgKind::kSubscribe> {
  SubscribeMsg(SubscriberId s, std::string pred)
      : subscriber(s), predicate_text(std::move(pred)) {}

  SubscriberId subscriber;
  std::string predicate_text;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    w.put_string(predicate_text);
  }
};

struct SubscribeAckMsg final : WireMsg<SubscribeAckMsg, MsgKind::kSubscribeAck> {
  SubscribeAckMsg(SubscriberId s, std::vector<std::pair<PubendId, Tick>> hs)
      : subscriber(s), heads(std::move(hs)) {}

  SubscriberId subscriber;
  /// Pubend heads at the instant the PHB applied the subscription: every
  /// tick after these is filtered with the new subscription included. The
  /// SHB needs this boundary to start new subscribers without a propagation
  /// hole and to bound refiltering for migrated ones.
  std::vector<std::pair<PubendId, Tick>> heads;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    detail::put_heads(w, heads);
  }
};

struct UnsubscribeMsg final : WireMsg<UnsubscribeMsg, MsgKind::kUnsubscribe> {
  explicit UnsubscribeMsg(SubscriberId s) : subscriber(s) {}

  SubscriberId subscriber;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
  }
};

struct BrokerResumeMsg final : WireMsg<BrokerResumeMsg, MsgKind::kBrokerResume> {
  explicit BrokerResumeMsg(std::vector<std::pair<PubendId, Tick>> points)
      : resume_from(std::move(points)) {}

  /// Per pubend: the child has everything <= tick; stream from tick+1.
  std::vector<std::pair<PubendId, Tick>> resume_from;

  template <class W>
  void write(W& w) const {
    detail::put_heads(w, resume_from);
  }
};

// ---------------------------------------------------------------- publishers

struct PublishMsg final : WireMsg<PublishMsg, MsgKind::kPublish> {
  PublishMsg(PublisherId pub, std::uint64_t s, std::uint64_t floor, PubendId p,
             matching::EventDataPtr ev)
      : publisher(pub), seq(s), acked_below(floor), pubend(p), event(std::move(ev)) {}

  PublisherId publisher;
  std::uint64_t seq;  // publisher-assigned, for PHB-side dedup on retry
  /// Cumulative ack floor: every seq below this has been acked to the
  /// publisher and will never be retried. Lets the pubend prune its exact
  /// per-seq dedup window (a plain "latest seq" comparison is wrong: after a
  /// PHB outage, retried old seqs arrive behind fresh higher seqs and would
  /// be dropped-but-acked as duplicates).
  std::uint64_t acked_below;
  PubendId pubend;
  matching::EventDataPtr event;

  template <class W>
  void write(W& w) const {
    w.put_u32(publisher.value());
    w.put_u64(seq);
    w.put_u64(acked_below);
    w.put_u32(pubend.value());
    GRYPHON_CHECK_MSG(event != nullptr, "publish without event");
    encode_event_data(w, *event);
  }
};

struct PublishAckMsg final : WireMsg<PublishAckMsg, MsgKind::kPublishAck> {
  PublishAckMsg(PublisherId pub, std::uint64_t s, Tick t)
      : publisher(pub), seq(s), assigned_tick(t) {}

  PublisherId publisher;
  std::uint64_t seq;
  Tick assigned_tick;

  template <class W>
  void write(W& w) const {
    w.put_u32(publisher.value());
    w.put_u64(seq);
    w.put_i64(assigned_tick);
  }
};

// ---------------------------------------------------------------- subscribers

struct ConnectMsg final : WireMsg<ConnectMsg, MsgKind::kConnect> {
  ConnectMsg(SubscriberId s, bool first, std::string pred, CheckpointToken token,
             bool jms = false, bool stored_ct = false)
      : subscriber(s),
        first_connect(first),
        predicate_text(std::move(pred)),
        ct(std::move(token)),
        jms_auto_ack(jms),
        use_stored_ct(stored_ct) {}

  SubscriberId subscriber;
  bool first_connect;          // create the durable subscription
  std::string predicate_text;  // used when the SHB does not know the sub yet
  CheckpointToken ct;          // resumption point (ignored on first connect)
  bool jms_auto_ack;           // SHB-managed CT, committed per event (§5.2)
  bool use_stored_ct;          // resume from the SHB's stored CT (JMS mode)

  /// The three bools travel as one flags byte; the decoder rejects any bit
  /// outside kKnownFlags.
  static constexpr std::uint8_t kFlagFirstConnect = 1u << 0;
  static constexpr std::uint8_t kFlagJmsAutoAck = 1u << 1;
  static constexpr std::uint8_t kFlagUseStoredCt = 1u << 2;
  static constexpr std::uint8_t kKnownFlags =
      kFlagFirstConnect | kFlagJmsAutoAck | kFlagUseStoredCt;

  [[nodiscard]] std::uint8_t flags() const {
    return static_cast<std::uint8_t>((first_connect ? kFlagFirstConnect : 0) |
                                     (jms_auto_ack ? kFlagJmsAutoAck : 0) |
                                     (use_stored_ct ? kFlagUseStoredCt : 0));
  }

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    w.put_u8(flags());
    w.put_string(predicate_text);
    ct.serialize(w);
  }
};

struct ConnectedMsg final : WireMsg<ConnectedMsg, MsgKind::kConnected> {
  ConnectedMsg(SubscriberId s, CheckpointToken token)
      : subscriber(s), initial_ct(std::move(token)) {}

  SubscriberId subscriber;
  /// On first connect: the starting CT (latestDelivered of every pubend).
  CheckpointToken initial_ct;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    initial_ct.serialize(w);
  }
};

struct DisconnectMsg final : WireMsg<DisconnectMsg, MsgKind::kDisconnect> {
  explicit DisconnectMsg(SubscriberId s) : subscriber(s) {}

  SubscriberId subscriber;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
  }
};

struct UnsubscribeReqMsg final : WireMsg<UnsubscribeReqMsg, MsgKind::kUnsubscribeReq> {
  explicit UnsubscribeReqMsg(SubscriberId s) : subscriber(s) {}

  SubscriberId subscriber;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
  }
};

struct AckMsg final : WireMsg<AckMsg, MsgKind::kAck> {
  AckMsg(SubscriberId s, CheckpointToken token)
      : subscriber(s), ct(std::move(token)) {}

  SubscriberId subscriber;
  CheckpointToken ct;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    ct.serialize(w);
  }
};

struct EventDeliveryMsg final : WireMsg<EventDeliveryMsg, MsgKind::kEventDelivery> {
  EventDeliveryMsg(SubscriberId s, PubendId p, Tick t, matching::EventDataPtr ev,
                   bool catchup)
      : subscriber(s),
        pubend(p),
        tick(t),
        event(std::move(ev)),
        from_catchup(catchup) {}

  SubscriberId subscriber;
  PubendId pubend;
  Tick tick;
  matching::EventDataPtr event;
  bool from_catchup;  // diagnostics only

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    w.put_u32(pubend.value());
    w.put_i64(tick);
    w.put_u8(from_catchup ? 1 : 0);
    GRYPHON_CHECK_MSG(event != nullptr, "delivery without event");
    encode_event_data(w, *event);
  }
};

struct SilenceDeliveryMsg final : WireMsg<SilenceDeliveryMsg, MsgKind::kSilenceDelivery> {
  SilenceDeliveryMsg(SubscriberId s, PubendId p, Tick t)
      : subscriber(s), pubend(p), upto(t) {}

  SubscriberId subscriber;
  PubendId pubend;
  Tick upto;  // guarantees no matching events in (previous, upto]

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    w.put_u32(pubend.value());
    w.put_i64(upto);
  }
};

struct JmsConsumedMsg final : WireMsg<JmsConsumedMsg, MsgKind::kJmsConsumed> {
  JmsConsumedMsg(SubscriberId s, PubendId p, Tick t)
      : subscriber(s), pubend(p), tick(t) {}

  SubscriberId subscriber;
  PubendId pubend;
  Tick tick;

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    w.put_u32(pubend.value());
    w.put_i64(tick);
  }
};

struct GapDeliveryMsg final : WireMsg<GapDeliveryMsg, MsgKind::kGapDelivery> {
  GapDeliveryMsg(SubscriberId s, PubendId p, TickRange r)
      : subscriber(s), pubend(p), range(r) {}

  SubscriberId subscriber;
  PubendId pubend;
  TickRange range;  // there MAY have been matching events in (prev, range.to]

  template <class W>
  void write(W& w) const {
    w.put_u32(subscriber.value());
    w.put_u32(pubend.value());
    detail::put_range(w, range);
  }
};

}  // namespace gryphon::core
