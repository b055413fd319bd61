#include "core/intermediate.hpp"

namespace gryphon::core {

IntermediateBroker::IntermediateBroker(NodeResources& resources, BrokerConfig config,
                                       const std::vector<PubendId>& pubends)
    : Broker(resources, config), downstream_(resources, pubends, "imb_child_subs") {
  for (PubendId p : pubends) pubends_.emplace(p, PerPubend{});
  auto& m = res_.metrics;
  m_items_relayed_ = m.counter("imb.items_relayed");
  m_nacks_from_children_ = m.counter("imb.nacks_from_children");
  m_nacks_consolidated_upstream_ = m.counter("imb.nacks_forwarded_upstream");
  m_cache_hit_events_ = m.counter("imb.cache_hit_events");
  m_cache_miss_ticks_ = m.counter("imb.cache_miss_ticks");
}

void IntermediateBroker::add_child(sim::EndpointId child) {
  downstream_.add_child(child, [](PubendId) { return kTickZero; });
}

void IntermediateBroker::start(bool fresh) {
  // Resume handshake with the parent.
  std::vector<std::pair<PubendId, Tick>> resume;
  resume.reserve(pubends_.size());
  for (auto& [p, state] : pubends_) {
    resume.emplace_back(p, fresh ? kTickZero : Tick{-1});
  }
  send(parent_, std::make_shared<BrokerResumeMsg>(std::move(resume)));

  // Retry unanswered consolidated nacks (covers a parent restart losing
  // pending-nack state).
  every(kNackRetry.base, [this] {
    for (auto& [p, state] : pubends_) {
      if (state.upstream_pending.empty()) continue;
      send(parent_, std::make_shared<NackMsg>(p, state.upstream_pending.ranges()));
      m_nacks_consolidated_upstream_->inc();
    }
  });

  // Release aggregation upstream.
  every(kReleaseUpdateInterval, [this] { send_release_mins(); });
}

void IntermediateBroker::recover() {
  // Re-announce each reloaded row upstream: the parent may have restarted
  // too; adds are idempotent.
  downstream_.recover([this](SubscriberId sub, const std::string& text) {
    send(parent_, std::make_shared<SubscribeMsg>(sub, text));
  });
}

IntermediateBroker::PerPubend& IntermediateBroker::per(PubendId p) {
  auto it = pubends_.find(p);
  GRYPHON_CHECK_MSG(it != pubends_.end(), "unknown pubend " << p);
  return it->second;
}

const IntermediateBroker::PerPubend& IntermediateBroker::per(PubendId p) const {
  auto it = pubends_.find(p);
  GRYPHON_CHECK_MSG(it != pubends_.end(), "unknown pubend " << p);
  return it->second;
}

SimDuration IntermediateBroker::cost_of(const Msg& msg) const {
  const auto& costs = config_.costs;
  switch (msg.kind()) {
    case MsgKind::kStreamData: {
      const auto& m = static_cast<const StreamDataMsg&>(msg);
      std::size_t n_data = 0;
      for (const auto& item : m.items) {
        if (item.value == routing::TickValue::kD) ++n_data;
      }
      return costs.control_process +
             static_cast<SimDuration>(n_data) *
                 static_cast<SimDuration>(downstream_.num_children()) *
                 costs.per_child_forward;
    }
    case MsgKind::kNack:
      return costs.nack_process;
    default:
      return costs.control_process;
  }
}

void IntermediateBroker::handle(sim::EndpointId from, const Msg& msg) {
  switch (msg.kind()) {
    case MsgKind::kStreamData:
      GRYPHON_CHECK_MSG(from == parent_, "stream data from non-parent");
      on_stream_data(static_cast<const StreamDataMsg&>(msg));
      break;
    case MsgKind::kNack:
      on_nack(from, static_cast<const NackMsg&>(msg));
      break;
    case MsgKind::kReleaseUpdate:
      downstream_.on_release_update(from, static_cast<const ReleaseUpdateMsg&>(msg));
      break;
    case MsgKind::kSubscribe: {
      const auto& m = static_cast<const SubscribeMsg&>(msg);
      downstream_.subscribe(from, m.subscriber, m.predicate_text);
      subscribe_origin_[m.subscriber] = from;  // route the PHB's ack back
      send(parent_, std::make_shared<SubscribeMsg>(m.subscriber, m.predicate_text));
      break;
    }
    case MsgKind::kSubscribeAck: {
      const auto& m = static_cast<const SubscribeAckMsg&>(msg);
      auto it = subscribe_origin_.find(m.subscriber);
      if (it != subscribe_origin_.end()) {
        send(it->second, std::make_shared<SubscribeAckMsg>(m.subscriber, m.heads));
      }
      break;
    }
    case MsgKind::kUnsubscribe: {
      const auto& m = static_cast<const UnsubscribeMsg&>(msg);
      downstream_.unsubscribe(from, m.subscriber);
      send(parent_, std::make_shared<UnsubscribeMsg>(m.subscriber));
      break;
    }
    case MsgKind::kBrokerResume:
      // As at the PHB: resume the fresh stream from the local head; the
      // missed span comes back as flow-controlled nacks (served from this
      // cache where it still holds the span, consolidated upstream where not).
      downstream_.resume(from, static_cast<const BrokerResumeMsg&>(msg),
                         [this](PubendId p) { return per(p).cache.head(); });
      break;
    default:
      GRYPHON_CHECK_MSG(false, "intermediate cannot handle message kind "
                                   << static_cast<int>(msg.kind()));
  }
}

void IntermediateBroker::on_stream_data(const StreamDataMsg& msg) {
  PerPubend& state = per(msg.pubend);
  m_items_relayed_->inc(msg.items.size());

  // Route to children first (directly from the incoming items, so responses
  // for ranges this node chooses not to cache still reach curious children).
  downstream_.fanout(msg.pubend, msg.items);

  // Then fold into the local cache and trim it.
  for (const auto& item : msg.items) {
    state.cache.apply(item);
    state.upstream_pending.subtract(item.range);
  }
  const Tick evict = state.cache.head() - config_.costs.cache_span_ticks;
  if (evict > state.cache.origin()) state.cache.discard_upto(evict);
}

void IntermediateBroker::on_nack(sim::EndpointId from, const NackMsg& msg) {
  m_nacks_from_children_->inc();
  PerPubend& state = per(msg.pubend);

  if (msg.authoritative_only) {
    // The local cache's silence may predate the relevant subscription:
    // record curiosity and pass the question through to the pubend.
    downstream_.hold_nack(from, msg);
    send(parent_,
         std::make_shared<NackMsg>(msg.pubend, msg.ranges, /*authoritative=*/true));
    m_nacks_consolidated_upstream_->inc();
    return;
  }

  auto outcome = downstream_.serve_nack(from, msg, state.cache);
  m_cache_hit_events_->inc(outcome.events);
  if (!outcome.respond.empty()) {
    cpu_then(static_cast<SimDuration>(outcome.events) *
                 config_.costs.per_nack_response_event,
             [this, from, p = msg.pubend, items = std::move(outcome.respond)] {
               downstream_.send_items(from, p, items);
             });
  }

  // Consolidate the unknown ranges upstream: forward only what is not
  // already outstanding.
  std::vector<TickRange> forward;
  for (const TickRange& r : outcome.unknown) {
    for (const TickRange& fresh : state.upstream_pending.complement_within(r.from, r.to)) {
      forward.push_back(fresh);
      state.upstream_pending.add(fresh);
    }
  }
  if (!forward.empty()) {
    m_nacks_consolidated_upstream_->inc();
    std::uint64_t miss_ticks = 0;
    for (const TickRange& r : forward) {
      miss_ticks += static_cast<std::uint64_t>(r.to - r.from + 1);
    }
    m_cache_miss_ticks_->inc(miss_ticks);
    send(parent_, std::make_shared<NackMsg>(msg.pubend, std::move(forward)));
  }
}

void IntermediateBroker::send_release_mins() {
  for (const auto& [p, state] : pubends_) {
    const auto mins = downstream_.release_mins(p);
    if (!mins) return;  // no children
    if (mins->latest_delivered == kTickZero && mins->released == kTickZero) {
      continue;  // nothing reported yet
    }
    send(parent_,
         std::make_shared<ReleaseUpdateMsg>(p, mins->released, mins->latest_delivered));
  }
}

}  // namespace gryphon::core
