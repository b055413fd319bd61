// Intermediate broker (paper §3): a pure cache-and-relay node.
//
// Keeps a volatile event cache (a TickMap with bounded span; losing cached
// knowledge never affects correctness, only where nacks must travel) that
// its Downstream serves children's nacks from. Upstream it relays
// subscriptions and their acks, reports the children's release mins, and
// *consolidates* nacks: overlapping curiosity from several children becomes
// one upstream nack, and the single response fans back out to every curious
// child.
#pragma once

#include <map>
#include <vector>

#include "core/broker.hpp"
#include "core/child_stream.hpp"
#include "routing/tick_map.hpp"

namespace gryphon::core {

class IntermediateBroker final : public Broker {
 public:
  IntermediateBroker(NodeResources& resources, BrokerConfig config,
                     const std::vector<PubendId>& pubends);

  void set_parent(sim::EndpointId parent) { parent_ = parent; }
  void add_child(sim::EndpointId child);

  /// Starts timers and performs the resume handshake with the parent.
  /// `fresh` distinguishes first boot (resume from stream start) from a
  /// restart (resume from the parent's head; children repair via nacks).
  void start(bool fresh = true);

  /// Restart path: reload child subscription filters; cache starts cold.
  void recover();

 protected:
  void handle(sim::EndpointId from, const Msg& msg) override;
  [[nodiscard]] SimDuration cost_of(const Msg& msg) const override;

 private:
  struct PerPubend {
    routing::TickMap cache{kTickZero};
    IntervalSet upstream_pending;  // consolidated nacks awaiting response
  };

  PerPubend& per(PubendId p);
  [[nodiscard]] const PerPubend& per(PubendId p) const;

  void on_stream_data(const StreamDataMsg& msg);
  void on_nack(sim::EndpointId from, const NackMsg& msg);
  void send_release_mins();

  sim::EndpointId parent_ = 0;
  std::map<PubendId, PerPubend> pubends_;
  Downstream downstream_;
  /// Which child to route a pending SubscribeAck back to.
  std::map<SubscriberId, sim::EndpointId> subscribe_origin_;

  // Registry slots, resolved once at construction.
  MetricsRegistry::Counter* m_items_relayed_;
  MetricsRegistry::Counter* m_nacks_from_children_;
  MetricsRegistry::Counter* m_nacks_consolidated_upstream_;
  MetricsRegistry::Counter* m_cache_hit_events_;
  MetricsRegistry::Counter* m_cache_miss_ticks_;
};

}  // namespace gryphon::core
