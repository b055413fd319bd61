#include "wire/codec.hpp"

#include "core/event_codec.hpp"
#include "routing/ticks.hpp"
#include "util/assert.hpp"
#include "util/byte_buffer.hpp"

namespace gryphon::wire {
namespace {

using core::ConnectMsg;
using core::MsgKind;

constexpr std::uint8_t kMaxKind = static_cast<std::uint8_t>(MsgKind::kJmsConsumed);

TickRange get_range(BufReader& r) {
  const Tick from = r.get_i64();
  const Tick to = r.get_i64();
  return TickRange{from, to};
}

std::vector<std::pair<PubendId, Tick>> get_heads(BufReader& r) {
  const auto n = r.get_u32();
  std::vector<std::pair<PubendId, Tick>> heads;
  heads.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const PubendId p{r.get_u32()};
    const Tick t = r.get_i64();
    heads.emplace_back(p, t);
  }
  return heads;
}

/// Thrown (and caught inside decode()) when a CRC-valid payload is
/// structurally invalid — encoder version skew, never wire damage.
struct BadPayload {
  const char* reason;
};

/// A wire bool is exactly 0 or 1; anything else is a non-canonical payload.
bool get_bool(BufReader& r) {
  const std::uint8_t b = r.get_u8();
  if (b > 1) throw BadPayload{"bad bool byte"};
  return b != 0;
}

std::shared_ptr<const core::Msg> decode_payload(
    MsgKind kind, BufReader& r, const std::shared_ptr<const void>& owner) {
  switch (kind) {
    case MsgKind::kStreamData: {
      const PubendId pubend{r.get_u32()};
      const auto n = r.get_u32();
      std::vector<routing::KnowledgeItem> items;
      items.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        routing::KnowledgeItem item;
        const auto tag = r.get_u8();
        if (tag < static_cast<std::uint8_t>(routing::TickValue::kS) ||
            tag > static_cast<std::uint8_t>(routing::TickValue::kL)) {
          throw BadPayload{"bad knowledge tag"};
        }
        item.value = static_cast<routing::TickValue>(tag);
        item.range = get_range(r);
        if (item.value == routing::TickValue::kD) {
          if (item.range.from != item.range.to) throw BadPayload{"bad D range"};
          item.event = core::decode_event_data(r, owner);
        }
        items.push_back(std::move(item));
      }
      return std::make_shared<core::StreamDataMsg>(pubend, std::move(items));
    }
    case MsgKind::kNack: {
      const PubendId pubend{r.get_u32()};
      const bool authoritative = get_bool(r);
      const auto n = r.get_u32();
      std::vector<TickRange> ranges;
      ranges.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) ranges.push_back(get_range(r));
      return std::make_shared<core::NackMsg>(pubend, std::move(ranges), authoritative);
    }
    case MsgKind::kReleaseUpdate: {
      const PubendId pubend{r.get_u32()};
      const Tick released = r.get_i64();
      const Tick latest = r.get_i64();
      return std::make_shared<core::ReleaseUpdateMsg>(pubend, released, latest);
    }
    case MsgKind::kSubscribe: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<core::SubscribeMsg>(sub, r.get_string());
    }
    case MsgKind::kSubscribeAck: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<core::SubscribeAckMsg>(sub, get_heads(r));
    }
    case MsgKind::kUnsubscribe:
      return std::make_shared<core::UnsubscribeMsg>(SubscriberId{r.get_u32()});
    case MsgKind::kBrokerResume:
      return std::make_shared<core::BrokerResumeMsg>(get_heads(r));
    case MsgKind::kPublish: {
      const PublisherId pub{r.get_u32()};
      const std::uint64_t seq = r.get_u64();
      const std::uint64_t acked_below = r.get_u64();
      const PubendId pubend{r.get_u32()};
      auto event = core::decode_event_data(r, owner);
      return std::make_shared<core::PublishMsg>(pub, seq, acked_below, pubend,
                                                std::move(event));
    }
    case MsgKind::kPublishAck: {
      const PublisherId pub{r.get_u32()};
      const std::uint64_t seq = r.get_u64();
      const Tick tick = r.get_i64();
      return std::make_shared<core::PublishAckMsg>(pub, seq, tick);
    }
    case MsgKind::kConnect: {
      const SubscriberId sub{r.get_u32()};
      const std::uint8_t flags = r.get_u8();
      if ((flags & ~ConnectMsg::kKnownFlags) != 0) {
        throw BadPayload{"bad connect flags"};
      }
      std::string pred = r.get_string();
      auto ct = core::CheckpointToken::deserialize(r);
      return std::make_shared<ConnectMsg>(
          sub, (flags & ConnectMsg::kFlagFirstConnect) != 0, std::move(pred),
          std::move(ct), (flags & ConnectMsg::kFlagJmsAutoAck) != 0,
          (flags & ConnectMsg::kFlagUseStoredCt) != 0);
    }
    case MsgKind::kConnected: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<core::ConnectedMsg>(
          sub, core::CheckpointToken::deserialize(r));
    }
    case MsgKind::kDisconnect:
      return std::make_shared<core::DisconnectMsg>(SubscriberId{r.get_u32()});
    case MsgKind::kUnsubscribeReq:
      return std::make_shared<core::UnsubscribeReqMsg>(SubscriberId{r.get_u32()});
    case MsgKind::kAck: {
      const SubscriberId sub{r.get_u32()};
      return std::make_shared<core::AckMsg>(sub,
                                            core::CheckpointToken::deserialize(r));
    }
    case MsgKind::kEventDelivery: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      const Tick tick = r.get_i64();
      const bool catchup = get_bool(r);
      auto event = core::decode_event_data(r, owner);
      return std::make_shared<core::EventDeliveryMsg>(sub, pubend, tick,
                                                      std::move(event), catchup);
    }
    case MsgKind::kSilenceDelivery: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      return std::make_shared<core::SilenceDeliveryMsg>(sub, pubend, r.get_i64());
    }
    case MsgKind::kGapDelivery: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      return std::make_shared<core::GapDeliveryMsg>(sub, pubend, get_range(r));
    }
    case MsgKind::kJmsConsumed: {
      const SubscriberId sub{r.get_u32()};
      const PubendId pubend{r.get_u32()};
      return std::make_shared<core::JmsConsumedMsg>(sub, pubend, r.get_i64());
    }
  }
  throw BadPayload{"unknown message kind"};
}

}  // namespace

std::size_t append_encoded_frame(std::vector<std::byte>& out, const core::Msg& msg) {
  const std::size_t base = begin_frame(out);
  // Move the vector through an appending writer so the payload lands
  // directly behind the header — no staging buffer, no copy-out.
  BufWriter w = BufWriter::appending(std::move(out));
  msg.write_payload(w);
  out = w.take();
  finish_frame(out, base, static_cast<std::uint8_t>(msg.kind()));
  return out.size() - base;
}

std::vector<std::byte> encode(const core::Msg& msg) {
  std::vector<std::byte> out;
  out.reserve(msg.wire_size());
  append_encoded_frame(out, msg);
  return out;
}

DecodeResult decode(std::span<const std::byte> bytes,
                    std::shared_ptr<const void> owner) {
  DecodeResult res;
  const FrameParse fp = parse_frame(bytes, kMaxKind);
  if (fp.consumed == 0) {
    res.reason = fp.reason;
    return res;
  }
  if (fp.consumed != bytes.size()) {
    res.reason = "trailing bytes after frame";
    return res;
  }
  // The CRC passed, so payload-structure failures here are encoder version
  // skew rather than wire damage — rejected all the same, never thrown out.
  try {
    BufReader r(fp.payload);
    res.msg = decode_payload(static_cast<MsgKind>(fp.kind), r, owner);
    if (!r.done()) {
      res.msg = nullptr;
      res.reason = "trailing payload bytes";
      return res;
    }
  } catch (const BadPayload& bad) {
    res.msg = nullptr;
    res.reason = bad.reason;
    return res;
  } catch (const InvariantViolation&) {
    res.msg = nullptr;
    res.reason = "truncated payload field";
    return res;
  }
  res.consumed = fp.consumed;
  return res;
}

}  // namespace gryphon::wire
