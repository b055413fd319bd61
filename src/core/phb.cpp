#include "core/phb.hpp"

#include <algorithm>

namespace gryphon::core {

PublisherHostingBroker::PublisherHostingBroker(NodeResources& resources,
                                               BrokerConfig config,
                                               const std::vector<PubendId>& pubends,
                                               ReleasePolicyPtr policy)
    : Broker(resources, config),
      downstream_(resources, pubends, "phb_child_subs"),
      policy_(std::move(policy)) {
  for (PubendId p : pubends) {
    pubends_.emplace(p, std::make_unique<Pubend>(p, res_, policy_));
  }
  auto& m = res_.metrics;
  m_publishes_ = m.counter("phb.publishes");
  m_duplicates_ = m.counter("phb.duplicates");
  m_nacks_ = m.counter("phb.nacks_received");
  m_nack_events_served_ = m.counter("phb.nack_events_served");
  m_ack_floor_ = m.gauge("phb.ack_floor");
  m_nack_span_ = m.histogram("phb.nack_span_ticks", 1.0, 1e6);
  // Per-pubend tick-ladder windows, read only at snapshot time.
  for (auto& [p, pe] : pubends_) {
    const std::string prefix = "pubend.p" + std::to_string(p.value()) + ".";
    Pubend* raw = pe.get();
    probes_.push_back(m.probe(prefix + "head", [raw] {
      return static_cast<double>(raw->head());
    }));
    probes_.push_back(m.probe(prefix + "l_window", [raw] {
      return static_cast<double>(raw->lost_upto());
    }));
    probes_.push_back(m.probe(prefix + "d_window", [raw] {
      return static_cast<double>(raw->retained_events());
    }));
    probes_.push_back(m.probe(prefix + "s_window", [raw] {
      const double span = static_cast<double>(raw->head() - raw->lost_upto());
      return std::max(0.0, span - static_cast<double>(raw->retained_events()));
    }));
    probes_.push_back(m.probe(prefix + "doubt_span", [raw] {
      return static_cast<double>(raw->head() - raw->delivered_min());
    }));
  }
  // Storage-pressure gauge of the shared release policy (0 for static ones).
  probes_.push_back(m.probe("pubend.retain_pressure", [this] {
    return policy_->pressure();
  }));
}

void PublisherHostingBroker::add_child(sim::EndpointId child) {
  downstream_.add_child(child, [this](PubendId p) { return pubend(p).head(); });
}

void PublisherHostingBroker::start() {
  // Silence generation: keeps every downstream doubt horizon advancing at
  // ~wall-clock rate even when no events are published.
  every(config_.costs.silence_interval, [this] {
    for (auto& [p, pe] : pubends_) {
      if (auto region = pe->announce_silence(now())) {
        downstream_.fanout(p, pe->ticks().items(region->from, region->to));
      }
    }
  });
  // Release application. The policy first observes the event-log live bytes
  // so AdaptiveRetainPolicy can squeeze retention under storage pressure.
  every(config_.costs.release_update_interval, [this] {
    policy_->observe_live_bytes(res_.log_volume.wal().live_bytes());
    for (auto& [p, pe] : pubends_) {
      refresh_release_mins(p);
      pe->apply_release(now());
    }
  });
}

void PublisherHostingBroker::recover() {
  for (auto& [p, pe] : pubends_) pe->recover();
  downstream_.recover();
}

Pubend& PublisherHostingBroker::pubend(PubendId p) {
  auto it = pubends_.find(p);
  GRYPHON_CHECK_MSG(it != pubends_.end(), "unknown pubend " << p);
  return *it->second;
}

std::vector<PubendId> PublisherHostingBroker::pubend_ids() const {
  std::vector<PubendId> out;
  out.reserve(pubends_.size());
  for (const auto& [p, pe] : pubends_) out.push_back(p);
  return out;
}

SimDuration PublisherHostingBroker::cost_of(const Msg& msg) const {
  const auto& costs = config_.costs;
  switch (msg.kind()) {
    case MsgKind::kPublish:
      return costs.publish_base +
             static_cast<SimDuration>(downstream_.num_children()) *
                 costs.per_child_forward;
    case MsgKind::kNack:
      return costs.nack_process;
    default:
      return costs.control_process;
  }
}

void PublisherHostingBroker::handle(sim::EndpointId from, const Msg& msg) {
  switch (msg.kind()) {
    case MsgKind::kPublish:
      on_publish(from, static_cast<const PublishMsg&>(msg));
      break;
    case MsgKind::kNack:
      on_nack(from, static_cast<const NackMsg&>(msg));
      break;
    case MsgKind::kReleaseUpdate: {
      const auto& m = static_cast<const ReleaseUpdateMsg&>(msg);
      downstream_.on_release_update(from, m);
      refresh_release_mins(m.pubend);
      break;
    }
    case MsgKind::kSubscribe:
      on_subscribe(from, static_cast<const SubscribeMsg&>(msg));
      break;
    case MsgKind::kUnsubscribe:
      downstream_.unsubscribe(from, static_cast<const UnsubscribeMsg&>(msg).subscriber);
      break;
    case MsgKind::kBrokerResume:
      downstream_.resume(from, static_cast<const BrokerResumeMsg&>(msg),
                         [this](PubendId p) { return pubend(p).head(); });
      break;
    default:
      GRYPHON_CHECK_MSG(false, "PHB cannot handle message kind "
                                   << static_cast<int>(msg.kind()));
  }
}

void PublisherHostingBroker::on_publish(sim::EndpointId from, const PublishMsg& msg) {
  m_publishes_->inc();
  m_ack_floor_->set(static_cast<double>(msg.acked_below));
  Pubend& pe = pubend(msg.pubend);
  const auto accepted =
      pe.accept_publish(msg.publisher, msg.seq, msg.acked_below, msg.event, now());
  if (accepted.duplicate) {
    m_duplicates_->inc();
    send(from, std::make_shared<PublishAckMsg>(msg.publisher, msg.seq, accepted.tick));
    return;
  }
  // Announce only once durable (only-once logging is the paper's point: the
  // event exists nowhere else yet, so it must hit stable storage before the
  // system takes responsibility for it).
  const Tick tick = accepted.tick;
  auto event = msg.event;
  const PubendId p = msg.pubend;
  res_.log_volume.sync(guarded([this, from, p, tick, event = std::move(event),
                                publisher = msg.publisher, seq = msg.seq] {
    Pubend& pend = pubend(p);
    const TickRange region = pend.announce_data(tick, event);
    downstream_.fanout(p, pend.ticks().items(region.from, region.to));
    send(from, std::make_shared<PublishAckMsg>(publisher, seq, tick));
  }));
}

void PublisherHostingBroker::on_nack(sim::EndpointId from, const NackMsg& msg) {
  m_nacks_->inc();
  for (const TickRange& r : msg.ranges) {
    m_nack_span_->add(static_cast<double>(r.to - r.from + 1));
  }
  // The pubend is authoritative: every announced tick is D, S or L, so the
  // only unknown ranges a well-behaved child could produce lie beyond the
  // announcement horizon (e.g. a nack raced with a crash-recovery reset);
  // they stay pending and the fresh stream will cover them.
  auto outcome = downstream_.serve_nack(from, msg, pubend(msg.pubend).ticks());
  m_nack_events_served_->inc(outcome.events);
  // Serving cached events costs CPU proportional to the events shipped.
  cpu_then(static_cast<SimDuration>(outcome.events) *
               config_.costs.per_nack_response_event,
           [this, from, p = msg.pubend, items = std::move(outcome.respond)] {
             downstream_.send_items(from, p, items);
           });
}

void PublisherHostingBroker::refresh_release_mins(PubendId p) {
  if (const auto mins = downstream_.release_mins(p)) {
    pubend(p).update_mins(mins->released, mins->latest_delivered);
  }
}

void PublisherHostingBroker::on_subscribe(sim::EndpointId from, const SubscribeMsg& msg) {
  downstream_.subscribe(from, msg.subscriber, msg.predicate_text);
  // Acknowledge with the application boundary: everything after these heads
  // is filtered with this subscription included (idempotent on re-sends).
  std::vector<std::pair<PubendId, Tick>> heads;
  heads.reserve(pubends_.size());
  for (auto& [p, pe] : pubends_) heads.emplace_back(p, pe->head());
  send(from, std::make_shared<SubscribeAckMsg>(msg.subscriber, std::move(heads)));
}

}  // namespace gryphon::core
