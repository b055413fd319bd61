// The downstream side of a broker with children, shared by the PHB and the
// intermediate brokers (paper §3).
//
// ChildStream is the per-(child link, pubend) stream state. Two flows reach
// a child: the fresh in-order stream (everything past sent_upto) and
// responses to the child's nacks (pending_nacks). on_items() routes
// incoming/locally-generated knowledge into both, so a nack response fetched
// from upstream for one child is forwarded to every child that is curious
// about it — the nack-consolidation fan-out of paper §3.
//
// Downstream owns every child link of one broker: its content filter
// (persisted for restart), its per-pubend ChildStreams, the filtered and
// chunked send, nack service from a caller-given TickMap, the release-report
// intake with its min over children, and the resume after a child restart.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "core/node_resources.hpp"
#include "matching/subscription_index.hpp"
#include "routing/tick_map.hpp"
#include "util/interval_set.hpp"
#include "util/time.hpp"

namespace gryphon::core {

/// Converts items for a downstream link: D events that match no subscription
/// in `filter` become S (content filtering at interior nodes); adjacent
/// S/S and L/L ranges are merged. A null filter forwards everything.
[[nodiscard]] std::vector<routing::KnowledgeItem> filter_items(
    const std::vector<routing::KnowledgeItem>& items,
    const matching::SubscriptionIndex* filter);

class ChildStream {
 public:
  explicit ChildStream(Tick start = kTickZero) : sent_upto_(start) {}

  [[nodiscard]] Tick sent_upto() const { return sent_upto_; }

  /// Child (re)connected: resume the fresh stream from `resume`, dropping
  /// stale curiosity.
  void reset(Tick resume) {
    sent_upto_ = resume;
    pending_nacks_.clear();
  }

  /// Routes knowledge (tick-ordered items) to this child: returns the parts
  /// it should receive — nack responses plus fresh stream past sent_upto —
  /// and advances sent_upto/pending accordingly.
  [[nodiscard]] std::vector<routing::KnowledgeItem> on_items(
      const std::vector<routing::KnowledgeItem>& items);

  struct NackOutcome {
    /// Items servable right now from the local cache.
    std::vector<routing::KnowledgeItem> respond;
    /// D events among `respond`.
    std::size_t events = 0;
    /// Ranges unknown locally; recorded pending here, to be consolidated
    /// upstream by the caller.
    std::vector<TickRange> unknown;
  };

  /// Child nacked `ranges`; serve what `cache` knows, remember the rest.
  [[nodiscard]] NackOutcome on_nack(const std::vector<TickRange>& ranges,
                                    const routing::TickMap& cache);

  /// Records curiosity without serving (authoritative-only nacks passing
  /// through: the response from upstream will be routed here).
  void add_pending(TickRange r) { pending_nacks_.add(r); }

  [[nodiscard]] const IntervalSet& pending_nacks() const { return pending_nacks_; }

  /// Release-protocol values last reported by this child.
  Tick released = kTickZero;
  Tick latest_delivered = kTickZero;

 private:
  Tick sent_upto_;
  IntervalSet pending_nacks_;
};

class Downstream {
 public:
  /// Knowledge items per StreamDataMsg.
  static constexpr std::size_t kMaxItemsPerMsg = 128;

  /// Per-pubend tick, e.g. where a child's stream starts or resumes.
  using TickOf = std::function<Tick(PubendId)>;

  /// `table` is the database table holding the child-filter rows.
  Downstream(NodeResources& res, std::vector<PubendId> pubends, std::string table);

  /// Registers a child link whose streams start at `start(p)`.
  void add_child(sim::EndpointId child, const TickOf& start);
  [[nodiscard]] std::size_t num_children() const { return children_.size(); }

  /// Adds/removes one subscription of a child's filter and persists the row.
  void subscribe(sim::EndpointId child, SubscriberId sub, const std::string& predicate);
  void unsubscribe(sim::EndpointId child, SubscriberId sub);

  /// Restart path: reloads the persisted filter rows of registered children;
  /// `on_row` (if set) sees each reloaded row.
  void recover(const std::function<void(SubscriberId, const std::string&)>& on_row = {});

  /// Routes knowledge through every child's stream and sends what each
  /// child should receive.
  void fanout(PubendId p, const std::vector<routing::KnowledgeItem>& items);

  /// Sends items to one child, filtered by its subscriptions and chunked at
  /// kMaxItemsPerMsg.
  void send_items(sim::EndpointId child, PubendId p,
                  const std::vector<routing::KnowledgeItem>& items);

  /// The child nacked: serve what `ticks` knows, keep the rest pending on
  /// the child's stream. The caller sends `respond` through send_items().
  [[nodiscard]] ChildStream::NackOutcome serve_nack(sim::EndpointId child,
                                                    const NackMsg& msg,
                                                    const routing::TickMap& ticks);

  /// Records the nacked ranges as pending without serving them (the
  /// response will come from upstream).
  void hold_nack(sim::EndpointId child, const NackMsg& msg);

  /// Takes a child's release report.
  void on_release_update(sim::EndpointId child, const ReleaseUpdateMsg& msg);

  struct ReleaseMins {
    Tick released;
    Tick latest_delivered;
  };
  /// Min over children of their last release reports; none without children.
  [[nodiscard]] std::optional<ReleaseMins> release_mins(PubendId p) const;

  /// The child restarted: its fresh streams resume at `head(p)`.
  void resume(sim::EndpointId child, const BrokerResumeMsg& msg, const TickOf& head);

 private:
  struct Child {
    matching::SubscriptionIndex filter;
    std::map<PubendId, ChildStream> streams;
  };

  Child& child(sim::EndpointId ep);
  ChildStream& stream(sim::EndpointId ep, PubendId p);
  void send_to(sim::EndpointId ep, const Child& c, PubendId p,
               const std::vector<routing::KnowledgeItem>& items);
  void persist(sim::EndpointId child, SubscriberId sub, const std::string& predicate);

  NodeResources& res_;
  std::vector<PubendId> pubends_;
  std::string table_;
  std::map<sim::EndpointId, Child> children_;
};

}  // namespace gryphon::core
