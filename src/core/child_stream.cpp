#include "core/child_stream.hpp"

#include <algorithm>
#include <string_view>

#include "matching/parser.hpp"
#include "util/assert.hpp"

namespace gryphon::core {

using routing::KnowledgeItem;
using routing::TickValue;

std::vector<KnowledgeItem> filter_items(const std::vector<KnowledgeItem>& items,
                                        const matching::SubscriptionIndex* filter) {
  std::vector<KnowledgeItem> out;
  out.reserve(items.size());
  auto push = [&out](KnowledgeItem item) {
    if (!out.empty() && item.value != TickValue::kD &&
        out.back().value == item.value && out.back().range.to + 1 == item.range.from) {
      out.back().range.to = item.range.to;  // merge adjacent S/S or L/L
      return;
    }
    out.push_back(std::move(item));
  };
  for (const auto& item : items) {
    if (item.value == TickValue::kD && filter != nullptr &&
        !filter->matches_any(*item.event)) {
      push({TickValue::kS, item.range, nullptr});
    } else {
      push(item);
    }
  }
  return out;
}

std::vector<KnowledgeItem> ChildStream::on_items(
    const std::vector<KnowledgeItem>& items) {
  std::vector<KnowledgeItem> out;
  Tick max_end = sent_upto_;
  for (const auto& item : items) {
    const TickRange r = item.range;
    max_end = std::max(max_end, r.to);
    if (item.value == TickValue::kD) {
      if (r.from > sent_upto_ || pending_nacks_.contains(r.from)) {
        out.push_back(item);
        pending_nacks_.subtract(r);
      }
      continue;
    }
    // S/L range: the child wants the pending sub-ranges plus the fresh tail.
    IntervalSet wanted;
    for (const TickRange& p : pending_nacks_.intersection(r.from, r.to)) wanted.add(p);
    if (r.to > sent_upto_) wanted.add(std::max(r.from, sent_upto_ + 1), r.to);
    for (const TickRange& w : wanted.ranges()) {
      out.push_back({item.value, w, nullptr});
      pending_nacks_.subtract(w);
    }
  }
  sent_upto_ = max_end;
  return out;
}

ChildStream::NackOutcome ChildStream::on_nack(const std::vector<TickRange>& ranges,
                                              const routing::TickMap& cache) {
  NackOutcome outcome;
  for (const TickRange& r : ranges) {
    GRYPHON_CHECK(r.from <= r.to);
    // Serve the parts the cache knows; everything else becomes pending.
    IntervalSet known;
    for (const auto& item : cache.items(r.from, r.to)) {
      if (item.value == TickValue::kD) ++outcome.events;
      outcome.respond.push_back(item);
      known.add(item.range);
    }
    for (const TickRange& q : known.complement_within(r.from, r.to)) {
      pending_nacks_.add(q);
      outcome.unknown.push_back(q);
    }
  }
  return outcome;
}

namespace {
// Child-filter rows are keyed "<child name>:<subscriber>". The name, not the
// EndpointId: ids are per process and a restarted runtime broker assigns
// them in the order its children say hello, while names stay fixed.
std::string subs_key(const std::string& child_name, SubscriberId sub) {
  return child_name + ':' + std::to_string(sub.value());
}
}  // namespace

Downstream::Downstream(NodeResources& res, std::vector<PubendId> pubends,
                       std::string table)
    : res_(res), pubends_(std::move(pubends)), table_(std::move(table)) {}

void Downstream::add_child(sim::EndpointId ep, const TickOf& start) {
  GRYPHON_CHECK_MSG(!children_.contains(ep), "duplicate child " << ep);
  Child& c = children_[ep];
  for (PubendId p : pubends_) c.streams.emplace(p, ChildStream{start(p)});
}

Downstream::Child& Downstream::child(sim::EndpointId ep) {
  auto it = children_.find(ep);
  GRYPHON_CHECK_MSG(it != children_.end(), "message from unknown child " << ep);
  return it->second;
}

ChildStream& Downstream::stream(sim::EndpointId ep, PubendId p) {
  Child& c = child(ep);
  auto it = c.streams.find(p);
  GRYPHON_CHECK(it != c.streams.end());
  return it->second;
}

void Downstream::subscribe(sim::EndpointId ep, SubscriberId sub,
                           const std::string& predicate) {
  child(ep).filter.add(sub, matching::parse_predicate(predicate));
  persist(ep, sub, predicate);
}

void Downstream::unsubscribe(sim::EndpointId ep, SubscriberId sub) {
  child(ep).filter.remove(sub);
  persist(ep, sub, {});  // an empty row deletes it
}

void Downstream::persist(sim::EndpointId ep, SubscriberId sub,
                         const std::string& predicate) {
  const auto* bytes = reinterpret_cast<const std::byte*>(predicate.data());
  std::vector<std::byte> value(bytes, bytes + predicate.size());
  res_.database.commit(0, {{table_, subs_key(res_.network.name_of(ep), sub), std::move(value)}});
}

void Downstream::recover(
    const std::function<void(SubscriberId, const std::string&)>& on_row) {
  std::map<std::string, Child*, std::less<>> by_name;
  for (auto& [ep, c] : children_) by_name.emplace(res_.network.name_of(ep), &c);
  for (const auto& [key, value] : res_.database.scan(table_)) {
    const auto colon = key.rfind(':');
    GRYPHON_CHECK(colon != std::string::npos);
    auto it = by_name.find(std::string_view(key).substr(0, colon));
    if (it == by_name.end()) continue;
    const SubscriberId sub{static_cast<std::uint32_t>(std::stoul(key.substr(colon + 1)))};
    const std::string text(reinterpret_cast<const char*>(value.data()), value.size());
    it->second->filter.add(sub, matching::parse_predicate(text));
    if (on_row) on_row(sub, text);
  }
}

void Downstream::fanout(PubendId p, const std::vector<KnowledgeItem>& items) {
  if (items.empty()) return;
  for (auto& [ep, c] : children_) {
    auto it = c.streams.find(p);
    GRYPHON_CHECK(it != c.streams.end());
    send_to(ep, c, p, it->second.on_items(items));
  }
}

void Downstream::send_items(sim::EndpointId ep, PubendId p,
                            const std::vector<KnowledgeItem>& items) {
  send_to(ep, child(ep), p, items);
}

void Downstream::send_to(sim::EndpointId ep, const Child& c, PubendId p,
                         const std::vector<KnowledgeItem>& items) {
  if (items.empty()) return;
  auto filtered = filter_items(items, &c.filter);
  for (std::size_t i = 0; i < filtered.size(); i += kMaxItemsPerMsg) {
    const auto end = std::min(filtered.size(), i + kMaxItemsPerMsg);
    res_.network.send(
        res_.endpoint, ep,
        std::make_shared<StreamDataMsg>(
            p, std::vector<KnowledgeItem>(filtered.begin() + i, filtered.begin() + end)));
  }
}

ChildStream::NackOutcome Downstream::serve_nack(sim::EndpointId ep, const NackMsg& msg,
                                                const routing::TickMap& ticks) {
  return stream(ep, msg.pubend).on_nack(msg.ranges, ticks);
}

void Downstream::hold_nack(sim::EndpointId ep, const NackMsg& msg) {
  ChildStream& s = stream(ep, msg.pubend);
  for (const TickRange& r : msg.ranges) s.add_pending(r);
}

void Downstream::on_release_update(sim::EndpointId ep, const ReleaseUpdateMsg& msg) {
  ChildStream& s = stream(ep, msg.pubend);
  // Taken as reported, not max-merged: a subscription migrating onto a
  // child legitimately LOWERS its release pin (links are FIFO, so there is
  // no reordering to defend against). A lowered pin only delays future
  // releases — the lost prefix itself never regresses.
  s.released = msg.released;
  s.latest_delivered = std::max(s.latest_delivered, msg.latest_delivered);
}

std::optional<Downstream::ReleaseMins> Downstream::release_mins(PubendId p) const {
  if (children_.empty()) return std::nullopt;
  ReleaseMins mins{kTickInfinity, kTickInfinity};
  for (const auto& [ep, c] : children_) {
    const ChildStream& s = c.streams.at(p);
    mins.released = std::min(mins.released, s.released);
    mins.latest_delivered = std::min(mins.latest_delivered, s.latest_delivered);
  }
  return mins;
}

void Downstream::resume(sim::EndpointId ep, const BrokerResumeMsg& msg,
                        const TickOf& head) {
  // The fresh stream resumes at the local head; the span the child missed
  // while down — (its resume point, head] — is recovered through its
  // curiosity stream under the child's own flow control (paper §5.3: the
  // constream "nacks the events it missed"), not by an unbounded replay
  // burst.
  for (const auto& [p, resume_point] : msg.resume_from) {
    (void)resume_point;
    stream(ep, p).reset(head(p));
  }
}

}  // namespace gryphon::core
