// Publisher Hosting Broker.
//
// Hosts pubends: accepts publishes, logs each event once (group-committed),
// announces durable events and silence, and applies the release protocol
// with the early-release policy. The child links (filters, fan-out, nack
// service from the authoritative ladder, release mins) are a Downstream.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/broker.hpp"
#include "core/child_stream.hpp"
#include "core/pubend.hpp"

namespace gryphon::core {

class PublisherHostingBroker final : public Broker {
 public:
  PublisherHostingBroker(NodeResources& resources, BrokerConfig config,
                         const std::vector<PubendId>& pubends,
                         ReleasePolicyPtr policy = std::make_shared<NoEarlyReleasePolicy>());

  /// Registers a downstream broker link (topology wiring; links themselves
  /// are created by the harness).
  void add_child(sim::EndpointId child);

  /// Starts timers (silence generation, release application). Call once
  /// after wiring, or after a restart recovery.
  void start();

  /// Restart path: rebuild pubends from the log, child subscription filters
  /// from the database.
  void recover();

  [[nodiscard]] Pubend& pubend(PubendId p);
  [[nodiscard]] std::vector<PubendId> pubend_ids() const;

 protected:
  void handle(sim::EndpointId from, const Msg& msg) override;
  [[nodiscard]] SimDuration cost_of(const Msg& msg) const override;

 private:
  void on_publish(sim::EndpointId from, const PublishMsg& msg);
  void on_nack(sim::EndpointId from, const NackMsg& msg);
  void on_subscribe(sim::EndpointId from, const SubscribeMsg& msg);

  /// Feeds a pubend the release mins over the children.
  void refresh_release_mins(PubendId p);

  std::map<PubendId, std::unique_ptr<Pubend>> pubends_;
  Downstream downstream_;
  ReleasePolicyPtr policy_;

  // Registry slots, resolved once at construction (hot path = one add
  // through the pointer). The probes are broker-owned so a crash removes
  // their callbacks with the broker; the cumulative slots live on in the
  // node's registry.
  MetricsRegistry::Counter* m_publishes_;
  MetricsRegistry::Counter* m_duplicates_;
  MetricsRegistry::Counter* m_nacks_;
  MetricsRegistry::Counter* m_nack_events_served_;
  MetricsRegistry::Gauge* m_ack_floor_;
  Histogram* m_nack_span_;
  std::vector<MetricsRegistry::Probe> probes_;
};

}  // namespace gryphon::core
