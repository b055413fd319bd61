#include "matching/predicate.hpp"

#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace gryphon::matching {

std::string to_string(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "==";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

bool Predicate::equality_key(EqualityKey&) const { return false; }

namespace {

class MatchAll final : public Predicate {
 public:
  bool matches(const EventData&) const override { return true; }
  std::string to_string() const override { return "true"; }
  bool is_match_all() const override { return true; }
};

class Compare final : public Predicate {
 public:
  Compare(std::string attribute, CompareOp op, Value value)
      : attribute_(std::move(attribute)), op_(op), value_(std::move(value)) {}

  bool matches(const EventData& event) const override {
    const Value* v = event.attribute(attribute_);
    if (v == nullptr) return false;
    switch (op_) {
      case CompareOp::kEq: return *v == value_;
      case CompareOp::kNe: return !(*v == value_);
      case CompareOp::kLt: return v->orderable_with(value_) && v->less_than(value_);
      case CompareOp::kLe:
        return v->orderable_with(value_) && !value_.less_than(*v);
      case CompareOp::kGt: return v->orderable_with(value_) && value_.less_than(*v);
      case CompareOp::kGe:
        return v->orderable_with(value_) && !v->less_than(value_);
    }
    return false;
  }

  std::string to_string() const override {
    std::ostringstream os;
    os << attribute_ << ' ' << matching::to_string(op_) << ' ' << value_;
    return os.str();
  }

  bool equality_key(EqualityKey& out) const override {
    if (op_ != CompareOp::kEq) return false;
    // `x == NaN` matches nothing, and a NaN key would never find its own
    // bucket again (NaN != NaN): leave it to the scan list.
    if (value_.is_numeric() && std::isnan(value_.as_double())) return false;
    out = {attribute_, value_};
    return true;
  }

  bool compare_view(CompareView& out) const override {
    out = {&attribute_, op_, &value_};
    return true;
  }

 private:
  std::string attribute_;
  CompareOp op_;
  Value value_;
};

class Exists final : public Predicate {
 public:
  explicit Exists(std::string attribute) : attribute_(std::move(attribute)) {}

  bool matches(const EventData& event) const override {
    return event.attribute(attribute_) != nullptr;
  }

  std::string to_string() const override { return "exists(" + attribute_ + ")"; }

  const std::string* exists_attribute() const override { return &attribute_; }

 private:
  std::string attribute_;
};

class And final : public Predicate {
 public:
  explicit And(std::vector<PredicatePtr> terms) : terms_(std::move(terms)) {}

  bool matches(const EventData& event) const override {
    for (const auto& t : terms_) {
      if (!t->matches(event)) return false;
    }
    return true;
  }

  std::string to_string() const override {
    std::string s = "(";
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      if (i) s += " && ";
      s += terms_[i]->to_string();
    }
    return s + ")";
  }

  bool equality_key(EqualityKey& out) const override {
    for (const auto& t : terms_) {
      if (t->equality_key(out)) return true;
    }
    return false;
  }

  const std::vector<PredicatePtr>* and_terms() const override { return &terms_; }

 private:
  std::vector<PredicatePtr> terms_;
};

class Or final : public Predicate {
 public:
  explicit Or(std::vector<PredicatePtr> terms) : terms_(std::move(terms)) {}

  bool matches(const EventData& event) const override {
    for (const auto& t : terms_) {
      if (t->matches(event)) return true;
    }
    return false;
  }

  std::string to_string() const override {
    std::string s = "(";
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      if (i) s += " || ";
      s += terms_[i]->to_string();
    }
    return s + ")";
  }

  const std::vector<PredicatePtr>* or_terms() const override { return &terms_; }

 private:
  std::vector<PredicatePtr> terms_;
};

class Not final : public Predicate {
 public:
  explicit Not(PredicatePtr term) : term_(std::move(term)) {}

  bool matches(const EventData& event) const override {
    return !term_->matches(event);
  }

  std::string to_string() const override { return "!" + term_->to_string(); }

 private:
  PredicatePtr term_;
};

// Does "x <op> v" hold under Compare::matches semantics, with x playing the
// event-attribute role?
bool eval_compare(CompareOp op, const Value& x, const Value& v) {
  switch (op) {
    case CompareOp::kEq: return x == v;
    case CompareOp::kNe: return !(x == v);
    case CompareOp::kLt: return x.orderable_with(v) && x.less_than(v);
    case CompareOp::kLe: return x.orderable_with(v) && !v.less_than(x);
    case CompareOp::kGt: return x.orderable_with(v) && v.less_than(x);
    case CompareOp::kGe: return x.orderable_with(v) && !x.less_than(v);
  }
  return false;
}

bool ordered_op(CompareOp op) {
  return op == CompareOp::kLt || op == CompareOp::kLe || op == CompareOp::kGt ||
         op == CompareOp::kGe;
}

bool lower_bound_op(CompareOp op) {
  return op == CompareOp::kGt || op == CompareOp::kGe;
}

// q ⇒ p for two attribute comparisons. Sound rules only; anything outside
// them is "unknown" (false).
bool compare_covers(const Predicate::CompareView& p, const Predicate::CompareView& q) {
  if (*p.attribute != *q.attribute) return false;
  // Q is an equality: its match set is exactly the values Value-equal to
  // q.value, and Value equality is substitutive under every op (equal
  // numerics share as_double; strings/bools are identical), so testing
  // q.value against P decides coverage.
  if (q.op == CompareOp::kEq) return eval_compare(p.op, *q.value, *p.value);
  if (p.op == CompareOp::kNe) {
    if (q.op == CompareOp::kNe) return *p.value == *q.value;
    // Q is ordered: covered unless p.value itself could satisfy Q.
    return !eval_compare(q.op, *p.value, *q.value);
  }
  if (q.op == CompareOp::kNe || p.op == CompareOp::kEq) return false;
  // Both ordered: interval containment over a shared ordered domain. Bounds
  // in different directions or different domains never contain each other.
  if (!p.value->orderable_with(*q.value)) return false;
  if (lower_bound_op(p.op) != lower_bound_op(q.op)) return false;
  // A NaN event value satisfies `<=`/`>=` (the negated strict test) but
  // never `<`/`>`, so on numbers a strict bound cannot cover a closed one.
  const bool p_strict = p.op == CompareOp::kLt || p.op == CompareOp::kGt;
  const bool q_strict = q.op == CompareOp::kLt || q.op == CompareOp::kGt;
  if (p.value->is_numeric() && p_strict && !q_strict) return false;
  if (lower_bound_op(p.op)) {
    if (p.value->less_than(*q.value)) return true;
    if (*p.value == *q.value) {
      return !(p.op == CompareOp::kGt && q.op == CompareOp::kGe);
    }
    return false;
  }
  if (q.value->less_than(*p.value)) return true;
  if (*p.value == *q.value) {
    return !(p.op == CompareOp::kLt && q.op == CompareOp::kLe);
  }
  return false;
}

}  // namespace

bool Predicate::covers(const Predicate& other) const {
  if (is_match_all()) return true;
  CompareView q;
  const bool q_is_compare = other.compare_view(q);
  // An ordered comparison against a non-orderable constant (e.g. "a < true")
  // matches nothing, so anything covers it.
  if (q_is_compare && ordered_op(q.op) && !q.value->orderable_with(*q.value)) {
    return true;
  }
  // Q = Or(q1..qn): must cover every branch.
  if (const auto* qor = other.or_terms()) {
    for (const auto& t : *qor) {
      if (!covers(*t)) return false;
    }
    return true;
  }
  // P = And(p1..pn): every conjunct must cover Q.
  if (const auto* pand = and_terms()) {
    for (const auto& t : *pand) {
      if (!t->covers(other)) return false;
    }
    return true;
  }
  // P = Or(p1..pn): one covering branch suffices.
  if (const auto* por = or_terms()) {
    for (const auto& t : *por) {
      if (t->covers(other)) return true;
    }
    return false;
  }
  // Q = And(q1..qn): Q implies each conjunct, so covering one suffices.
  if (const auto* qand = other.and_terms()) {
    for (const auto& t : *qand) {
      if (covers(*t)) return true;
    }
    return false;
  }
  if (const auto* pe = exists_attribute()) {
    if (const auto* qe = other.exists_attribute()) return *pe == *qe;
    // Every comparison is false on a missing attribute, so any compare on
    // the attribute implies exists(attribute).
    if (q_is_compare) return *pe == *q.attribute;
    return false;
  }
  CompareView p;
  if (compare_view(p) && q_is_compare) return compare_covers(p, q);
  // Conservative catch-all for shapes with no structural rule (Not vs Not,
  // mixed leaves): identical text is identical semantics.
  return to_string() == other.to_string();
}

PredicatePtr match_all() { return std::make_shared<MatchAll>(); }

PredicatePtr compare(std::string attribute, CompareOp op, Value value) {
  GRYPHON_CHECK(!attribute.empty());
  return std::make_shared<Compare>(std::move(attribute), op, std::move(value));
}

PredicatePtr exists(std::string attribute) {
  GRYPHON_CHECK(!attribute.empty());
  return std::make_shared<Exists>(std::move(attribute));
}

PredicatePtr p_and(std::vector<PredicatePtr> terms) {
  GRYPHON_CHECK(!terms.empty());
  if (terms.size() == 1) return terms.front();
  return std::make_shared<And>(std::move(terms));
}

PredicatePtr p_or(std::vector<PredicatePtr> terms) {
  GRYPHON_CHECK(!terms.empty());
  if (terms.size() == 1) return terms.front();
  return std::make_shared<Or>(std::move(terms));
}

PredicatePtr p_not(PredicatePtr term) {
  GRYPHON_CHECK(term != nullptr);
  return std::make_shared<Not>(std::move(term));
}

}  // namespace gryphon::matching
