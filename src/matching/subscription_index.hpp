// Subscription index: maps an event to the set of matching subscriber ids.
//
// Every broker filters events against the subscriptions (or subscription
// summaries) downstream of each link; the SHB additionally matches against
// all hosted durable subscriptions to build PFS records. Following the
// matching-engine lineage the paper builds on (Aguilera et al. [7]),
// subscriptions whose predicate contains a top-level equality test are
// bucketed by (attribute, value) so matching cost scales with the number of
// *candidate* subscriptions, not all of them; the remainder fall back to a
// scan list.
//
// On top of the buckets sits a *covering* tier (DESIGN.md §4.8): members
// whose predicate is subsumed by another subscription's predicate
// (Predicate::covers) are grouped under one canonical representative, so
// match() evaluates one predicate per group and expands to member ids
// lazily:
//   * `exact` members are equivalent to the representative — a rep hit
//     appends them without evaluating anything,
//   * `checked` members are strictly covered — grouped by canonical text
//     into sets, each set's predicate evaluated once per event when the rep
//     hits (so a covered selector's duplicate population costs one
//     evaluation, not one per subscriber); a rep miss skips the whole group
//     soundly.
// Every group keeps at least one exact member (removal of the last one
// promotes a checked member to representative in place, without rebuilding
// the index), which is what makes matches_any() O(groups): a rep hit *is* a
// live subscription matching. At million-subscriber scale with skewed
// predicates this collapses match cost from O(subscriptions) to
// O(covering groups).
//
// Scan-list representatives that bound one numeric attribute with ordered
// comparisons (`px >= 120 && px < 128`) form the *range* tier: one
// IntervalTree per attribute, so an event evaluates only the groups whose
// interval holds its value (O(log n + k)) instead of every scan group. The
// tier is a pure pre-filter — the interval is a necessary condition of the
// representative, which is still evaluated — and changes neither the
// covering groups nor match output.
//
// The bucket table is keyed by the (attribute, value) pair directly and
// probed with a borrowed-reference key type (C++20 heterogeneous lookup),
// so match()/matches_any() never materialize a key: probing is hash +
// compare over the event's own strings.
//
// Evaluation runs on *compiled clause arrays*: whenever a group is created,
// joined by a new checked set, promoted or shrunk, its representative and
// each checked set that is a conjunction of numeric comparisons and
// `exists` tests are compiled into one contiguous per-group array of
// (attribute slot, op, double constant) clauses over interned attribute
// names. A match resolves each slot it touches once per event (missing /
// numeric value / other) and walks the array with no virtual calls, string
// compares or Value visits, under exactly Compare::matches' formulas.
// Anything else (`||`, `!`, string or bool constants) keeps
// Predicate::matches. Output and candidates_evaluated() are unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "matching/interval_tree.hpp"
#include "matching/predicate.hpp"
#include "util/ids.hpp"

namespace gryphon::matching {

class SubscriptionIndex {
 public:
  /// `compiled` = false evaluates every predicate through
  /// Predicate::matches: the reference the clause arrays are tested against.
  explicit SubscriptionIndex(bool compiled = true) : compiled_(compiled) {}

  /// Adds or replaces the subscription of `id`.
  void add(SubscriberId id, PredicatePtr predicate);

  /// Removes a subscription; no-op if absent. Removing the last exact
  /// member of a covering group promotes a checked member to representative
  /// (local to that group; no index rebuild).
  void remove(SubscriberId id);

  [[nodiscard]] bool contains(SubscriberId id) const { return all_.contains(id); }
  [[nodiscard]] std::size_t size() const { return all_.size(); }
  [[nodiscard]] const PredicatePtr* predicate_of(SubscriberId id) const;

  /// All subscriber ids whose predicate matches, sorted ascending (the PFS
  /// relies on a deterministic order).
  [[nodiscard]] std::vector<SubscriberId> match(const EventData& event) const;

  /// match() into a caller-owned scratch vector (cleared first): the hot
  /// match loop reuses one buffer, so steady state allocates nothing.
  void match_into(const EventData& event, std::vector<SubscriberId>& out) const;

  /// True iff at least one subscription matches (link-level filtering).
  /// O(covering groups): only representatives are evaluated.
  [[nodiscard]] bool matches_any(const EventData& event) const;

  /// Ids of all subscriptions, sorted (diagnostics / iteration).
  [[nodiscard]] std::vector<SubscriberId> ids() const;

  /// Covering groups currently live (== representative predicates actually
  /// evaluated per event in the worst case). The compression ratio
  /// group_count()/size() is the aggregation win.
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  /// Cumulative predicates evaluated by match()/match_into()/matches_any()
  /// — representatives plus checked members. Feeds the
  /// matching.match_candidates probe.
  [[nodiscard]] std::uint64_t candidates_evaluated() const { return evals_; }

 private:
  struct BucketKey {
    std::string attribute;
    Value value;
  };
  /// Borrowed-reference probe key: lets bucket lookup reuse the event's own
  /// attribute name and value without building a BucketKey.
  struct BucketRef {
    const std::string& attribute;
    const Value& value;
  };
  struct KeyHash {
    using is_transparent = void;
    static std::size_t mix(std::size_t a, std::size_t b) {
      return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    }
    std::size_t operator()(const BucketKey& k) const {
      return mix(std::hash<std::string>{}(k.attribute), k.value.hash());
    }
    std::size_t operator()(const BucketRef& k) const {
      return mix(std::hash<std::string>{}(k.attribute), k.value.hash());
    }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return a.attribute == b.attribute && a.value == b.value;
    }
  };

  /// One compiled conjunct: `slot <op> value`, or exists(slot).
  struct Clause {
    enum class Op : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe, kExists };
    std::uint32_t slot = 0;
    Op op = Op::kExists;
    double value = 0;
  };
  /// A predicate's run [begin, end) in its group's clause array; not
  /// `compiled` means it is evaluated through Predicate::matches.
  struct Program {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool compiled = false;
  };
  /// One slot resolved against the current event; `epoch` names the match
  /// call that resolved it, so a new event invalidates every slot in O(1).
  struct SlotValue {
    enum class Kind : std::uint8_t { kMissing, kNumeric, kOther };
    std::uint64_t epoch = 0;
    Kind kind = Kind::kMissing;
    double x = 0;
  };

  /// Checked members sharing one canonical text. The set's predicate is
  /// evaluated once per event for all of them — the same duplicate-
  /// absorption exact members get, one tier down.
  struct CheckedSet {
    PredicatePtr predicate;
    std::string canon;  // predicate->to_string(), key in by_canon_
    std::vector<SubscriberId> ids;
    Program program;  // in the owning group's code
  };

  struct Group;
  using RangeMap = std::map<std::string, IntervalTree<const Group*>, std::less<>>;

  /// One covering group. Invariant outside remove(): exact is non-empty,
  /// and every member's predicate is covered by rep (exact members
  /// mutually). Bucketed groups and all their members share the group's
  /// equality bucket; scan groups hold only members without one — so a
  /// promotion never moves a group between buckets.
  struct Group {
    PredicatePtr rep;
    std::string canon;  // rep->to_string(), key in by_canon_
    /// Sorted lazily: appends just clear the flag, the first rep hit sorts
    /// once, and a hit then splices a pre-sorted run into the output.
    mutable std::vector<SubscriberId> exact;
    mutable bool exact_sorted = true;
    std::vector<CheckedSet> checked;
    bool bucketed = false;
    BucketKey bucket;  // key in buckets_ when bucketed
    /// Range-tier placement of a scan group: its attribute's tree (nullptr =
    /// plain scan list), its rep's interval there, and its unique tree key.
    RangeMap::value_type* range = nullptr;
    Interval interval;
    std::uint64_t range_key = 0;
    /// Compiled clauses of the rep, then of each checked set.
    std::vector<Clause> code;
    Program rep_program;
  };

  struct MemberInfo {
    PredicatePtr predicate;
    Group* group = nullptr;
    bool exact = false;
  };

  /// Places a member that is not currently in the index (canonical-text
  /// join, covering-group probe, or a fresh group).
  void insert_member(SubscriberId id, PredicatePtr predicate);
  /// Group list a predicate with `bucketed`/`key` placement probes/joins.
  std::vector<Group*>* home_of(bool bucketed, const BucketKey& key);
  void destroy_group(Group* group);
  /// Rebuilds the group around its first checked member after the last
  /// exact member left. Members no longer covered are re-inserted.
  void promote(Group* group);
  void join_exact(Group* group, SubscriberId id);
  /// Files a scan group under its rep's range-tier interval, or in the plain
  /// scan list when the rep bounds no numeric attribute.
  void place_scan(Group* group);
  void unplace_scan(Group* group);
  /// Calls f(group) for every range-tier group that `event` might match,
  /// until f returns true; returns whether one did.
  template <typename F>
  bool visit_ranges(const EventData& event, F&& f) const;
  static CheckedSet* find_checked(Group* group, const std::string& canon);
  /// Appends `p`'s clauses to `code` and returns their run; an uncompiled
  /// Program, `code` unchanged, when `p` is not a conjunction of numeric
  /// comparisons and exists tests (or the index is not `compiled`).
  Program compile(const Predicate& p, std::vector<Clause>& code);
  /// compile()'s recursion; on false `code` may hold a partial run.
  bool compile_clauses(const Predicate& p, std::vector<Clause>& code);
  std::uint32_t slot_of(const std::string& attribute);
  /// Recompiles the rep and every checked set of `group`.
  void compile_group(Group* group);
  /// Starts a new event: every slot reads as unresolved.
  void begin_event() const { ++epoch_; }
  const SlotValue& resolve(std::uint32_t slot, const EventData& event) const;
  bool run(const Group& group, const Program& program, const Predicate& predicate,
           const EventData& event) const;
  void eval_group(const Group* group, const EventData& event,
                  std::vector<SubscriberId>& out, std::size_t& contributing,
                  bool& unsorted) const;

  std::unordered_map<SubscriberId, MemberInfo> all_;
  std::unordered_map<BucketKey, std::vector<Group*>, KeyHash, KeyEq> buckets_;
  /// Reps without a usable equality conjunct, in insertion order (the
  /// covering probe's home list). Each also sits in exactly one of
  /// plain_scan_ and ranges_, which is where match() finds it.
  std::vector<Group*> scan_groups_;
  std::vector<Group*> plain_scan_;
  RangeMap ranges_;
  std::uint64_t next_range_key_ = 0;
  /// Canonical text -> owning group, for representative AND checked-set
  /// canons: the O(1) join path that absorbs duplicate populations.
  std::unordered_map<std::string, Group*> by_canon_;
  std::unordered_map<const Group*, std::unique_ptr<Group>> groups_;
  mutable std::uint64_t evals_ = 0;
  bool compiled_;
  /// Interned attribute names (never freed; one per distinct name).
  std::unordered_map<std::string, std::uint32_t> slot_ids_;
  std::vector<std::string> slot_names_;
  mutable std::vector<SlotValue> slot_values_;
  mutable std::uint64_t epoch_ = 0;
};

}  // namespace gryphon::matching
