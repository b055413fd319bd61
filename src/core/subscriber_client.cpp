#include "core/subscriber_client.hpp"

namespace gryphon::core {

DurableSubscriber::DurableSubscriber(sim::Scheduler& scheduler, sim::Network& network,
                                     Options options, sim::EndpointId shb,
                                     SubscriberObserver* observer)
    : Client(scheduler, network, "sub-" + std::to_string(options.id.value())),
      options_(std::move(options)),
      shb_(shb),
      observer_(observer) {
  GRYPHON_CHECK(!options_.predicate.empty());
  GRYPHON_CHECK(options_.backoff.base > 0 &&
                options_.backoff.max >= options_.backoff.base &&
                options_.backoff.multiplier >= 1.0 &&
                options_.backoff.jitter >= 0.0 && options_.backoff.jitter < 1.0);
  // Periodic acknowledgment of the consumed CT (client-owned-CT mode).
  every(options_.ack_interval, [this] {
    if (connected_ && !options_.jms_auto_ack && !ct_.empty()) {
      send(shb_, std::make_shared<AckMsg>(options_.id, ct_));
    }
  });
}

void DurableSubscriber::connect() {
  if (connected_ || connecting_) return;
  connecting_ = true;
  ++connect_attempt_;
  retry_count_ = 0;  // a fresh attempt starts fast again
  try_connect();
}

void DurableSubscriber::try_connect() {
  if (!connecting_ || connected_) return;
  // The send may be refused (SHB down, uplink partitioned) — either way the
  // backoff timer below retries until a ConnectedMsg arrives.
  send(shb_, std::make_shared<ConnectMsg>(
                 options_.id, /*first=*/!subscribed_, options_.predicate, ct_,
                 options_.jms_auto_ack,
                 /*use_stored_ct=*/options_.jms_auto_ack && subscribed_));
  const std::uint64_t attempt = connect_attempt_;
  const SimDuration delay =
      backoff_delay(options_.backoff, options_.id.value(), attempt, retry_count_);
  defer(delay, [this, attempt] {
    // Retry while this connection attempt is still the current one.
    if (connecting_ && !connected_ && attempt == connect_attempt_) {
      ++retry_count_;
      try_connect();
    }
  });
}

void DurableSubscriber::disconnect() {
  if (!connected_ && !connecting_) return;
  connected_ = false;
  connecting_ = false;
  send(shb_, std::make_shared<DisconnectMsg>(options_.id));
}

void DurableSubscriber::unsubscribe() {
  connected_ = false;
  connecting_ = false;
  subscribed_ = false;
  send(shb_, std::make_shared<UnsubscribeReqMsg>(options_.id));
}

void DurableSubscriber::migrate(sim::EndpointId new_shb) {
  GRYPHON_CHECK_MSG(!options_.jms_auto_ack,
                    "JMS subscriptions cannot reconnect anywhere: the broker "
                    "owns their checkpoint token");
  GRYPHON_CHECK_MSG(subscribed_, "nothing to migrate: never subscribed");
  if (new_shb == shb_) return;  // already home
  // Subscribe at the new home FIRST; the old subscription is destroyed only
  // once the new one is confirmed, so its released(s,p) pin at the new SHB
  // reaches the pubend before the old pin is dropped — otherwise the
  // release protocol could discard the missed span mid-handover.
  pending_unsubscribe_ = shb_;
  connected_ = false;
  connecting_ = false;
  shb_ = new_shb;
  connect();
}

void DurableSubscriber::notify_connection_reset() {
  const bool was_up = connected_ || connecting_;
  connected_ = false;
  connecting_ = false;
  if (was_up && options_.auto_reconnect && !reconnect_hold_) connect();
}

void DurableSubscriber::set_reconnect_hold(bool hold) {
  reconnect_hold_ = hold;
  if (!hold && !connected_ && !connecting_ && subscribed_ && options_.auto_reconnect) {
    connect();
  }
}

void DurableSubscriber::handle(sim::EndpointId from, const Msg& msg) {
  // Stragglers from a previous hosting (reconnect-anywhere migration leaves
  // deliveries in flight from the old SHB) are not part of this session.
  if (from != shb_) return;
  switch (msg.kind()) {
    case MsgKind::kConnected: {
      const auto& m = static_cast<const ConnectedMsg&>(msg);
      if (!connecting_) return;  // duplicate confirmation
      connecting_ = false;
      connected_ = true;
      subscribed_ = true;
      if (!m.initial_ct.empty()) ct_ = m.initial_ct;
      if (pending_unsubscribe_ != 0) {
        // Migration hand-off complete: drop the old hosting.
        send(pending_unsubscribe_, std::make_shared<UnsubscribeReqMsg>(options_.id));
        pending_unsubscribe_ = 0;
      }
      if (observer_ != nullptr) observer_->on_connected(options_.id, now());
      return;
    }
    case MsgKind::kEventDelivery: {
      if (!connected_) return;  // in-flight leftovers from a dead session
      const auto& m = static_cast<const EventDeliveryMsg&>(msg);
      // The delivery contract: strictly increasing timestamps per pubend.
      GRYPHON_CHECK_MSG(m.tick > ct_.of(m.pubend),
                        "duplicate/out-of-order delivery to " << options_.id << ": "
                            << m.pubend << ':' << m.tick << " with CT "
                            << ct_.of(m.pubend));
      ct_.advance(m.pubend, m.tick);
      ++events_received_;
      if (observer_ != nullptr) {
        observer_->on_event(options_.id, m.pubend, m.tick, m.event, m.from_catchup,
                            now());
      }
      if (options_.jms_auto_ack) {
        // Auto-acknowledge: consume-and-ack each message individually.
        send(shb_, std::make_shared<JmsConsumedMsg>(options_.id, m.pubend, m.tick));
      }
      return;
    }
    case MsgKind::kSilenceDelivery: {
      if (!connected_) return;
      const auto& m = static_cast<const SilenceDeliveryMsg&>(msg);
      ct_.advance(m.pubend, m.upto);
      if (observer_ != nullptr) {
        observer_->on_silence(options_.id, m.pubend, m.upto, now());
      }
      return;
    }
    case MsgKind::kGapDelivery: {
      if (!connected_) return;
      const auto& m = static_cast<const GapDeliveryMsg&>(msg);
      ++gaps_received_;
      ct_.advance(m.pubend, m.range.to);
      if (observer_ != nullptr) {
        observer_->on_gap(options_.id, m.pubend, m.range, now());
      }
      return;
    }
    default:
      GRYPHON_CHECK_MSG(false, "subscriber cannot handle message kind "
                                   << static_cast<int>(msg.kind()));
  }
}

}  // namespace gryphon::core
