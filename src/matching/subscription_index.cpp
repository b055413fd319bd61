#include "matching/subscription_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace gryphon::matching {

namespace {

/// Narrows `iv` by every ordered comparison against a numeric constant in
/// `p` or its (nested) conjuncts that bounds `*attr`; the first such
/// comparison picks `*attr` when it is still null. The result is a
/// necessary condition of `p` for non-NaN event values: a conjunction
/// matches only where each of its conjuncts does.
void narrow_range(const Predicate& p, const std::string*& attr, Interval& iv) {
  if (const auto* terms = p.and_terms()) {
    for (const auto& t : *terms) narrow_range(*t, attr, iv);
    return;
  }
  Predicate::CompareView c;
  if (!p.compare_view(c) || !c.value->is_numeric()) return;
  if (attr != nullptr && *c.attribute != *attr) return;
  const double v = c.value->as_double();
  // `x <= NaN` holds for every numeric x and `x < NaN` for none: a NaN
  // constant gives no usable bound, so it stays out of the interval.
  if (std::isnan(v)) return;
  switch (c.op) {
    case CompareOp::kLt: iv.lower_hi(v, /*open=*/true); break;
    case CompareOp::kLe: iv.lower_hi(v, /*open=*/false); break;
    case CompareOp::kGt: iv.raise_lo(v, /*open=*/true); break;
    case CompareOp::kGe: iv.raise_lo(v, /*open=*/false); break;
    case CompareOp::kEq:
    case CompareOp::kNe: return;
  }
  attr = c.attribute;
}

}  // namespace

std::uint32_t SubscriptionIndex::slot_of(const std::string& attribute) {
  auto [it, inserted] =
      slot_ids_.try_emplace(attribute, static_cast<std::uint32_t>(slot_names_.size()));
  if (inserted) {
    slot_names_.push_back(attribute);
    slot_values_.emplace_back();
  }
  return it->second;
}

bool SubscriptionIndex::compile_clauses(const Predicate& p, std::vector<Clause>& code) {
  if (const auto* terms = p.and_terms()) {
    for (const auto& t : *terms) {
      if (!compile_clauses(*t, code)) return false;
    }
    return true;
  }
  if (p.is_match_all()) return true;  // the empty conjunction
  if (const auto* attr = p.exists_attribute()) {
    code.push_back({slot_of(*attr), Clause::Op::kExists, 0});
    return true;
  }
  Predicate::CompareView c;
  if (!p.compare_view(c) || !c.value->is_numeric()) return false;
  Clause::Op op = Clause::Op::kEq;
  switch (c.op) {
    case CompareOp::kEq: op = Clause::Op::kEq; break;
    case CompareOp::kNe: op = Clause::Op::kNe; break;
    case CompareOp::kLt: op = Clause::Op::kLt; break;
    case CompareOp::kLe: op = Clause::Op::kLe; break;
    case CompareOp::kGt: op = Clause::Op::kGt; break;
    case CompareOp::kGe: op = Clause::Op::kGe; break;
  }
  code.push_back({slot_of(*c.attribute), op, c.value->as_double()});
  return true;
}

SubscriptionIndex::Program SubscriptionIndex::compile(const Predicate& p,
                                                      std::vector<Clause>& code) {
  const auto begin = static_cast<std::uint32_t>(code.size());
  if (!compiled_ || !compile_clauses(p, code)) {
    code.resize(begin);
    return {};
  }
  return {begin, static_cast<std::uint32_t>(code.size()), true};
}

void SubscriptionIndex::compile_group(Group* group) {
  group->code.clear();
  group->rep_program = compile(*group->rep, group->code);
  for (CheckedSet& s : group->checked) s.program = compile(*s.predicate, group->code);
}

const SubscriptionIndex::SlotValue& SubscriptionIndex::resolve(
    std::uint32_t slot, const EventData& event) const {
  SlotValue& v = slot_values_[slot];
  if (v.epoch == epoch_) return v;
  v.epoch = epoch_;
  const Value* a = event.attribute(slot_names_[slot]);
  if (a == nullptr) {
    v.kind = SlotValue::Kind::kMissing;
  } else if (a->is_numeric()) {
    v.kind = SlotValue::Kind::kNumeric;
    v.x = a->as_double();
  } else {
    v.kind = SlotValue::Kind::kOther;
  }
  return v;
}

bool SubscriptionIndex::run(const Group& group, const Program& program,
                            const Predicate& predicate, const EventData& event) const {
  if (!program.compiled) return predicate.matches(event);
  const Clause* end = group.code.data() + program.end;
  for (const Clause* c = group.code.data() + program.begin; c != end; ++c) {
    const SlotValue& v = resolve(c->slot, event);
    bool ok = false;
    if (v.kind != SlotValue::Kind::kNumeric) {
      // Compare::matches on a string or bool value against a numeric
      // constant: unequal and unordered, so only `!=` holds.
      ok = c->op == Clause::Op::kExists ? v.kind != SlotValue::Kind::kMissing
                                        : c->op == Clause::Op::kNe &&
                                              v.kind == SlotValue::Kind::kOther;
    } else {
      // Value's numeric formulas on as_double() images, NaN included.
      switch (c->op) {
        case Clause::Op::kEq: ok = v.x == c->value; break;
        case Clause::Op::kNe: ok = !(v.x == c->value); break;
        case Clause::Op::kLt: ok = v.x < c->value; break;
        case Clause::Op::kLe: ok = !(c->value < v.x); break;
        case Clause::Op::kGt: ok = c->value < v.x; break;
        case Clause::Op::kGe: ok = !(v.x < c->value); break;
        case Clause::Op::kExists: ok = true; break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

void SubscriptionIndex::add(SubscriberId id, PredicatePtr predicate) {
  GRYPHON_CHECK(predicate != nullptr);
  remove(id);
  insert_member(id, std::move(predicate));
}

void SubscriptionIndex::join_exact(Group* group, SubscriberId id) {
  if (!group->exact.empty() && id < group->exact.back()) {
    group->exact_sorted = false;
  }
  group->exact.push_back(id);
}

std::vector<SubscriptionIndex::Group*>* SubscriptionIndex::home_of(
    bool bucketed, const BucketKey& key) {
  if (!bucketed) return &scan_groups_;
  auto it = buckets_.find(BucketRef{key.attribute, key.value});
  return it == buckets_.end() ? nullptr : &it->second;
}

SubscriptionIndex::CheckedSet* SubscriptionIndex::find_checked(
    Group* group, const std::string& canon) {
  for (CheckedSet& s : group->checked) {
    if (s.canon == canon) return &s;
  }
  return nullptr;
}

void SubscriptionIndex::insert_member(SubscriberId id, PredicatePtr predicate) {
  std::string canon = predicate->to_string();
  // Tier 1: canonical-text join. Identical text is identical semantics, so
  // the member lands next to its twins — exact when the text is the
  // representative's, into that text's checked set otherwise. This is the
  // O(1) path that absorbs the huge duplicate populations of a skewed
  // workload.
  if (auto it = by_canon_.find(canon); it != by_canon_.end()) {
    Group* g = it->second;
    if (canon == g->canon) {
      join_exact(g, id);
      all_.emplace(id, MemberInfo{std::move(predicate), g, true});
    } else {
      CheckedSet* set = find_checked(g, canon);
      GRYPHON_CHECK(set != nullptr);
      set->ids.push_back(id);
      all_.emplace(id, MemberInfo{std::move(predicate), g, false});
    }
    return;
  }

  Predicate::EqualityKey eq;
  const bool bucketed = predicate->equality_key(eq);
  BucketKey key;
  if (bucketed) key = BucketKey{std::move(eq.attribute), std::move(eq.value)};

  // Tier 2: probe the groups this predicate would share a bucket (or the
  // scan list) with for a representative that covers it. First covering
  // group in insertion order wins — deterministic.
  if (std::vector<Group*>* home = home_of(bucketed, key)) {
    for (Group* g : *home) {
      if (!g->rep->covers(*predicate)) continue;
      const bool equivalent = predicate->covers(*g->rep);
      if (equivalent) {
        join_exact(g, id);
      } else {
        g->checked.push_back(
            CheckedSet{predicate, canon, {id}, compile(*predicate, g->code)});
        by_canon_.emplace(std::move(canon), g);
      }
      all_.emplace(id, MemberInfo{std::move(predicate), g, equivalent});
      return;
    }
  }

  // Fresh group: this predicate is its own representative.
  auto owned = std::make_unique<Group>();
  Group* g = owned.get();
  g->rep = predicate;
  g->canon = std::move(canon);
  g->exact.push_back(id);
  g->bucketed = bucketed;
  g->bucket = std::move(key);
  compile_group(g);
  if (bucketed) {
    buckets_[g->bucket].push_back(g);
  } else {
    scan_groups_.push_back(g);
    place_scan(g);
  }
  by_canon_.emplace(g->canon, g);
  groups_.emplace(g, std::move(owned));
  all_.emplace(id, MemberInfo{std::move(predicate), g, true});
}

void SubscriptionIndex::place_scan(Group* group) {
  const std::string* attr = nullptr;
  Interval iv;
  narrow_range(*group->rep, attr, iv);
  if (attr == nullptr) {
    plain_scan_.push_back(group);
    return;
  }
  auto& entry = *ranges_.try_emplace(*attr).first;
  group->range = &entry;
  group->interval = iv;
  group->range_key = next_range_key_++;
  entry.second.insert(iv, group->range_key, group);
}

void SubscriptionIndex::unplace_scan(Group* group) {
  if (group->range == nullptr) {
    plain_scan_.erase(std::remove(plain_scan_.begin(), plain_scan_.end(), group),
                      plain_scan_.end());
    return;
  }
  auto& tree = group->range->second;
  tree.erase(group->interval, group->range_key);
  if (tree.empty()) ranges_.erase(ranges_.find(group->range->first));
  group->range = nullptr;
}

void SubscriptionIndex::destroy_group(Group* group) {
  for (const CheckedSet& s : group->checked) {
    if (auto it = by_canon_.find(s.canon);
        it != by_canon_.end() && it->second == group) {
      by_canon_.erase(it);
    }
  }
  if (group->bucketed) {
    auto it = buckets_.find(BucketRef{group->bucket.attribute, group->bucket.value});
    GRYPHON_CHECK(it != buckets_.end());
    auto& list = it->second;
    list.erase(std::remove(list.begin(), list.end(), group), list.end());
    if (list.empty()) buckets_.erase(it);
  } else {
    scan_groups_.erase(std::remove(scan_groups_.begin(), scan_groups_.end(), group),
                       scan_groups_.end());
    unplace_scan(group);
  }
  if (auto it = by_canon_.find(group->canon);
      it != by_canon_.end() && it->second == group) {
    by_canon_.erase(it);
  }
  groups_.erase(group);
}

void SubscriptionIndex::promote(Group* group) {
  GRYPHON_CHECK(group->exact.empty() && !group->checked.empty());
  // First checked set (insertion order) becomes the representative; its
  // whole duplicate population turns exact in one move.
  CheckedSet next = std::move(group->checked.front());
  group->checked.erase(group->checked.begin());
  if (auto it = by_canon_.find(group->canon);
      it != by_canon_.end() && it->second == group) {
    by_canon_.erase(it);
  }
  group->rep = next.predicate;
  group->canon = std::move(next.canon);
  group->exact = std::move(next.ids);
  group->exact_sorted = group->exact.size() <= 1;
  for (SubscriberId id : group->exact) all_.at(id).exact = true;
  by_canon_.emplace(group->canon, group);  // already maps here (set canon)
  // A member's bucket placement always equals its group's (see Group doc),
  // so the promoted rep cannot move the group between buckets.
  Predicate::EqualityKey eq;
  GRYPHON_CHECK(group->rep->equality_key(eq) == group->bucketed);
  // A scan group's interval can move, though: re-file it under the new rep.
  if (!group->bucketed) {
    unplace_scan(group);
    place_scan(group);
  }

  // Reclassify the remaining checked sets against the new, narrower
  // representative; any set it no longer covers re-enters through the
  // normal insert path.
  std::vector<CheckedSet> keep;
  std::vector<CheckedSet> eject;
  keep.reserve(group->checked.size());
  for (CheckedSet& s : group->checked) {
    if (!group->rep->covers(*s.predicate)) {
      if (auto it = by_canon_.find(s.canon);
          it != by_canon_.end() && it->second == group) {
        by_canon_.erase(it);
      }
      eject.push_back(std::move(s));
      continue;
    }
    if (s.predicate->covers(*group->rep)) {
      // Equivalent to the new rep under a different spelling: exact-join
      // the set. Drop its canon entry so a later insert of that spelling
      // re-derives equivalence through tier 2 instead of expecting a
      // checked set that no longer exists.
      if (auto it = by_canon_.find(s.canon);
          it != by_canon_.end() && it->second == group) {
        by_canon_.erase(it);
      }
      for (SubscriberId id : s.ids) {
        join_exact(group, id);
        all_.at(id).exact = true;
      }
    } else {
      keep.push_back(std::move(s));
    }
  }
  group->checked = std::move(keep);
  compile_group(group);
  for (CheckedSet& s : eject) {
    for (SubscriberId id : s.ids) {
      PredicatePtr own = all_.at(id).predicate;
      all_.erase(id);
      insert_member(id, std::move(own));
    }
  }
}

void SubscriptionIndex::remove(SubscriberId id) {
  auto it = all_.find(id);
  if (it == all_.end()) return;
  Group* g = it->second.group;
  const bool was_exact = it->second.exact;
  if (!was_exact) {
    const std::string canon = it->second.predicate->to_string();
    CheckedSet* set = find_checked(g, canon);
    GRYPHON_CHECK(set != nullptr);
    auto& ids = set->ids;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) {
      if (auto ci = by_canon_.find(set->canon);
          ci != by_canon_.end() && ci->second == g) {
        by_canon_.erase(ci);
      }
      auto& list = g->checked;
      list.erase(list.begin() + (set - list.data()));
      compile_group(g);  // drops the set's clauses from the group's array
    }
    all_.erase(it);
    return;
  }
  auto& exact = g->exact;
  exact.erase(std::remove(exact.begin(), exact.end(), id), exact.end());
  all_.erase(it);
  if (!exact.empty()) return;
  if (g->checked.empty()) {
    destroy_group(g);
    return;
  }
  promote(g);
}

const PredicatePtr* SubscriptionIndex::predicate_of(SubscriberId id) const {
  auto it = all_.find(id);
  return it == all_.end() ? nullptr : &it->second.predicate;
}

void SubscriptionIndex::eval_group(const Group* g, const EventData& event,
                                   std::vector<SubscriberId>& out,
                                   std::size_t& contributing, bool& unsorted) const {
  ++evals_;
  // Covered members cannot match when the rep misses.
  if (!run(*g, g->rep_program, *g->rep, event)) return;
  const std::size_t before = out.size();
  if (!g->exact.empty()) {
    if (!g->exact_sorted) {
      std::sort(g->exact.begin(), g->exact.end());
      g->exact_sorted = true;
    }
    out.insert(out.end(), g->exact.begin(), g->exact.end());
  }
  bool checked_hit = false;
  for (const CheckedSet& s : g->checked) {
    ++evals_;
    if (run(*g, s.program, *s.predicate, event)) {
      out.insert(out.end(), s.ids.begin(), s.ids.end());
      checked_hit = true;
    }
  }
  if (out.size() > before) {
    ++contributing;
    if (checked_hit) unsorted = true;
  }
}

template <typename F>
bool SubscriptionIndex::visit_ranges(const EventData& event, F&& f) const {
  for (const auto& [attr, tree] : ranges_) {
    const Value* v = event.attribute(attr);
    // Every ordered comparison with a numeric constant is false on a
    // missing or non-numeric value.
    if (v == nullptr || !v->is_numeric()) continue;
    const double x = v->as_double();
    // `NaN <= c` and `NaN >= c` hold, so a NaN value evaluates the whole tier.
    if (std::isnan(x) ? tree.for_each(f) : tree.stab(x, f)) return true;
  }
  return false;
}

void SubscriptionIndex::match_into(const EventData& event,
                                   std::vector<SubscriberId>& out) const {
  out.clear();
  begin_event();
  // Size the candidate set (plain scan groups + every hit bucket), then evaluate:
  // the output is reserved once, with no allocation beyond the result
  // itself — and none at all when the caller reuses a scratch vector.
  const auto members_of = [](const Group* g) {
    std::size_t n = g->exact.size();
    for (const CheckedSet& s : g->checked) n += s.ids.size();
    return n;
  };
  std::size_t candidates = 0;
  for (const Group* g : plain_scan_) {
    candidates += members_of(g);
  }
  // A bucketed group can only match events carrying its equality attribute
  // with its value, so probing per event attribute is exhaustive.
  constexpr std::size_t kMaxInlineHits = 16;
  const std::vector<Group*>* hits[kMaxInlineHits];
  std::size_t num_hits = 0;
  bool overflowed = false;  // more hit buckets than the inline array holds
  for (const auto& [attr, value] : event.attributes()) {
    auto b = buckets_.find(BucketRef{attr, value});
    if (b == buckets_.end()) continue;
    for (const Group* g : b->second) {
      candidates += members_of(g);
    }
    if (num_hits < kMaxInlineHits) {
      hits[num_hits++] = &b->second;
    } else {
      overflowed = true;
    }
  }
  out.reserve(candidates);

  std::size_t contributing = 0;
  bool unsorted = false;
  for (const Group* g : plain_scan_) {
    eval_group(g, event, out, contributing, unsorted);
  }
  // Range hits are not in the reservation (sizing them would mean a second
  // stab); a reused scratch vector already has the capacity.
  visit_ranges(event, [&](const Group* g) {
    eval_group(g, event, out, contributing, unsorted);
    return false;
  });
  if (!overflowed) {
    for (std::size_t i = 0; i < num_hits; ++i) {
      for (const Group* g : *hits[i]) eval_group(g, event, out, contributing, unsorted);
    }
  } else {
    // Pathologically wide event: re-probe rather than cap the hit array.
    for (const auto& [attr, value] : event.attributes()) {
      auto b = buckets_.find(BucketRef{attr, value});
      if (b == buckets_.end()) continue;
      for (const Group* g : b->second) eval_group(g, event, out, contributing, unsorted);
    }
  }
  // A single contributing group's exact run is already sorted — the common
  // single-bucket case skips the re-sort entirely.
  if (contributing > 1 || unsorted) std::sort(out.begin(), out.end());
}

std::vector<SubscriberId> SubscriptionIndex::match(const EventData& event) const {
  std::vector<SubscriberId> out;
  match_into(event, out);
  return out;
}

bool SubscriptionIndex::matches_any(const EventData& event) const {
  // Only representatives are evaluated: every group keeps an exact member,
  // so a rep hit is a live subscription matching, and a rep miss rules out
  // the whole group.
  begin_event();
  const auto rep_hit = [&](const Group* g) {
    ++evals_;
    return run(*g, g->rep_program, *g->rep, event);
  };
  for (const Group* g : plain_scan_) {
    if (rep_hit(g)) return true;
  }
  if (visit_ranges(event, rep_hit)) return true;
  for (const auto& [attr, value] : event.attributes()) {
    auto b = buckets_.find(BucketRef{attr, value});
    if (b == buckets_.end()) continue;
    for (const Group* g : b->second) {
      if (rep_hit(g)) return true;
    }
  }
  return false;
}

std::vector<SubscriberId> SubscriptionIndex::ids() const {
  std::vector<SubscriberId> out;
  out.reserve(all_.size());
  for (const auto& [id, entry] : all_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace gryphon::matching
