// Unit tests: values, predicates, the selector parser, subscription index.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "matching/event.hpp"
#include "matching/parser.hpp"
#include "matching/predicate.hpp"
#include "matching/subscription_index.hpp"
#include "util/rng.hpp"

namespace gryphon::matching {
namespace {

EventData make_event(std::map<std::string, Value> attrs) {
  return EventData(std::move(attrs), "", 0);
}

// ------------------------------------------------------------------ Value

TEST(Value, NumericEqualityCrossesIntAndDouble) {
  EXPECT_EQ(Value(std::int64_t{5}), Value(5.0));
  EXPECT_FALSE(Value(std::int64_t{5}) == Value(5.5));
  EXPECT_FALSE(Value(std::int64_t{5}) == Value("5"));
  EXPECT_FALSE(Value(true) == Value(std::int64_t{1}));
}

TEST(Value, OrderingRules) {
  EXPECT_TRUE(Value(std::int64_t{3}).less_than(Value(3.5)));
  EXPECT_TRUE(Value("abc").less_than(Value("abd")));
  EXPECT_TRUE(Value("a").orderable_with(Value("b")));
  EXPECT_FALSE(Value("a").orderable_with(Value(std::int64_t{1})));
  EXPECT_FALSE(Value(true).orderable_with(Value(false)));
}

// -------------------------------------------------------------- Predicate

TEST(Predicate, ComparisonSemantics) {
  const auto e = make_event({{"price", Value(100.0)}, {"sym", Value("IBM")}});
  EXPECT_TRUE(compare("price", CompareOp::kEq, Value(100))->matches(e));
  EXPECT_TRUE(compare("price", CompareOp::kGe, Value(100))->matches(e));
  EXPECT_FALSE(compare("price", CompareOp::kGt, Value(100))->matches(e));
  EXPECT_TRUE(compare("price", CompareOp::kLt, Value(200))->matches(e));
  EXPECT_TRUE(compare("sym", CompareOp::kNe, Value("MSFT"))->matches(e));
  // Missing attribute: comparisons are false, even !=.
  EXPECT_FALSE(compare("volume", CompareOp::kNe, Value(0))->matches(e));
  // Non-orderable category mix: ordered comparisons are false.
  EXPECT_FALSE(compare("sym", CompareOp::kLt, Value(5))->matches(e));
}

TEST(Predicate, BooleanCombinators) {
  const auto e = make_event({{"a", Value(1)}, {"b", Value(2)}});
  auto a1 = compare("a", CompareOp::kEq, Value(1));
  auto b3 = compare("b", CompareOp::kEq, Value(3));
  EXPECT_FALSE(p_and({a1, b3})->matches(e));
  EXPECT_TRUE(p_or({a1, b3})->matches(e));
  EXPECT_TRUE(p_not(b3)->matches(e));
  EXPECT_TRUE(match_all()->matches(e));
  EXPECT_TRUE(exists("a")->matches(e));
  EXPECT_FALSE(exists("zz")->matches(e));
}

TEST(Predicate, EqualityKeyExtraction) {
  Predicate::EqualityKey key;
  EXPECT_TRUE(compare("g", CompareOp::kEq, Value(3))->equality_key(key));
  EXPECT_EQ(key.attribute, "g");
  EXPECT_FALSE(compare("g", CompareOp::kGt, Value(3))->equality_key(key));
  auto conj = p_and({compare("x", CompareOp::kGt, Value(0)),
                     compare("g", CompareOp::kEq, Value(7))});
  EXPECT_TRUE(conj->equality_key(key));
  EXPECT_EQ(key.value, Value(7));
  EXPECT_FALSE(p_or({compare("g", CompareOp::kEq, Value(1)),
                     compare("g", CompareOp::kEq, Value(2))})
                   ->equality_key(key));
}

// ----------------------------------------------------------------- Parser

TEST(Parser, ParsesComparisonsAndPrecedence) {
  const auto e = make_event({{"sym", Value("IBM")}, {"price", Value(120.5)}});
  EXPECT_TRUE(parse_predicate("sym == 'IBM' && price > 100")->matches(e));
  EXPECT_TRUE(parse_predicate("sym = 'MSFT' or price >= 120.5")->matches(e));
  // AND binds tighter than OR.
  EXPECT_TRUE(parse_predicate("sym == 'X' && price > 999 || sym == 'IBM'")->matches(e));
  EXPECT_FALSE(
      parse_predicate("sym == 'X' && (price > 999 || sym == 'IBM')")->matches(e));
}

TEST(Parser, KeywordsCaseInsensitiveAndNot) {
  const auto e = make_event({{"a", Value(1)}});
  EXPECT_TRUE(parse_predicate("NOT a == 2")->matches(e));
  EXPECT_TRUE(parse_predicate("a == 1 AND true")->matches(e));
  EXPECT_TRUE(parse_predicate("!false")->matches(e));
  EXPECT_TRUE(parse_predicate("exists(a) && !exists(b)")->matches(e));
}

TEST(Parser, LiteralsAndEscapes) {
  const auto e = make_event(
      {{"s", Value("it's")}, {"n", Value(-5)}, {"f", Value(2.5e3)}, {"b", Value(true)}});
  EXPECT_TRUE(parse_predicate("s == 'it''s'")->matches(e));
  EXPECT_TRUE(parse_predicate("n == -5")->matches(e));
  EXPECT_TRUE(parse_predicate("f == 2500.0")->matches(e));
  EXPECT_TRUE(parse_predicate("b == true")->matches(e));
  EXPECT_TRUE(parse_predicate("b")->matches(e));  // bare boolean attribute
  EXPECT_TRUE(parse_predicate("n <> 4")->matches(e));
}

TEST(Parser, ErrorsCarryPosition) {
  EXPECT_THROW(parse_predicate(""), ParseError);
  EXPECT_THROW(parse_predicate("a =="), ParseError);
  EXPECT_THROW(parse_predicate("(a == 1"), ParseError);
  EXPECT_THROW(parse_predicate("a == 'unterminated"), ParseError);
  EXPECT_THROW(parse_predicate("a == 1 garbage"), ParseError);
  EXPECT_THROW(parse_predicate("#"), ParseError);
  try {
    parse_predicate("a == @");
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.position(), 5u);
  }
}

TEST(Parser, RoundTripsThroughToString) {
  const auto text = "(g == 2 && price > 10) || !exists(flag)";
  auto p = parse_predicate(text);
  auto p2 = parse_predicate(p->to_string());
  const auto e1 = make_event({{"g", Value(2)}, {"price", Value(11)}});
  const auto e2 = make_event({{"flag", Value(true)}});
  EXPECT_EQ(p->matches(e1), p2->matches(e1));
  EXPECT_EQ(p->matches(e2), p2->matches(e2));
}

// ------------------------------------------------------ SubscriptionIndex

TEST(SubscriptionIndex, MatchReturnsSortedIds) {
  SubscriptionIndex index;
  index.add(SubscriberId{3}, parse_predicate("g == 1"));
  index.add(SubscriberId{1}, parse_predicate("g == 1"));
  index.add(SubscriberId{2}, parse_predicate("g == 2"));
  const auto e = make_event({{"g", Value(1)}});
  const auto hits = index.match(e);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], SubscriberId{1});
  EXPECT_EQ(hits[1], SubscriberId{3});
}

TEST(SubscriptionIndex, BucketedAndScanListCoexist) {
  SubscriptionIndex index;
  index.add(SubscriberId{1}, parse_predicate("g == 1"));          // bucketed
  index.add(SubscriberId{2}, parse_predicate("price > 50"));      // scan list
  index.add(SubscriberId{3}, parse_predicate("g == 1 && price > 50"));
  const auto e = make_event({{"g", Value(1)}, {"price", Value(60)}});
  EXPECT_EQ(index.match(e).size(), 3u);
  const auto e2 = make_event({{"g", Value(2)}, {"price", Value(60)}});
  EXPECT_EQ(index.match(e2).size(), 1u);  // only the scan-list predicate
}

TEST(SubscriptionIndex, RemoveAndReplace) {
  SubscriptionIndex index;
  index.add(SubscriberId{1}, parse_predicate("g == 1"));
  index.add(SubscriberId{1}, parse_predicate("g == 2"));  // replace
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.match(make_event({{"g", Value(1)}})).empty());
  EXPECT_EQ(index.match(make_event({{"g", Value(2)}})).size(), 1u);
  index.remove(SubscriberId{1});
  EXPECT_EQ(index.size(), 0u);
  index.remove(SubscriberId{1});  // idempotent
}

TEST(SubscriptionIndex, MatchesAnyShortCircuits) {
  SubscriptionIndex index;
  EXPECT_FALSE(index.matches_any(make_event({{"g", Value(1)}})));
  index.add(SubscriberId{1}, parse_predicate("g == 1"));
  EXPECT_TRUE(index.matches_any(make_event({{"g", Value(1)}})));
  EXPECT_FALSE(index.matches_any(make_event({{"g", Value(9)}})));
}

TEST(SubscriptionIndex, IndexAgreesWithLinearScan) {
  SubscriptionIndex index;
  std::vector<PredicatePtr> preds;
  for (std::uint32_t i = 0; i < 40; ++i) {
    std::string text;
    switch (i % 4) {
      case 0: text = "g == " + std::to_string(i % 5); break;
      case 1: text = "price > " + std::to_string(i); break;
      case 2: text = "g == " + std::to_string(i % 3) + " && price < 30"; break;
      default: text = "exists(flag) || g == " + std::to_string(i % 7); break;
    }
    auto p = parse_predicate(text);
    preds.push_back(p);
    index.add(SubscriberId{i}, p);
  }
  for (int g = 0; g < 8; ++g) {
    for (int price = 0; price < 50; price += 7) {
      const auto e = make_event({{"g", Value(g)}, {"price", Value(price)}});
      std::vector<SubscriberId> expected;
      for (std::uint32_t i = 0; i < preds.size(); ++i) {
        if (preds[i]->matches(e)) expected.push_back(SubscriberId{i});
      }
      EXPECT_EQ(index.match(e), expected) << "g=" << g << " price=" << price;
    }
  }
}

// Covering-index property test (DESIGN.md §4.8): under seeded random
// predicate populations with add/remove churn — removals deliberately biased
// toward low ids, the likely group representatives, so promotion paths are
// exercised — the two-tier index must stay byte-identical to the naive
// every-predicate scan at every step.
TEST(SubscriptionIndex, CoveringIndexAgreesUnderChurn) {
  Rng rng(20260809);
  auto random_predicate = [&](std::uint32_t i) {
    const std::uint64_t shape = rng.next_below(10);
    const std::int64_t g = rng.next_in(0, 9);
    const std::int64_t v = rng.next_in(0, 20);
    std::string text;
    if (shape < 4) {
      text = "g == " + std::to_string(g);
    } else if (shape < 6) {
      text = "g == " + std::to_string(g) + " && price > " + std::to_string(v);
    } else if (shape < 8) {
      text = "price >= " + std::to_string(v);
    } else if (shape < 9) {
      text = "g == " + std::to_string(g) + " && g == " + std::to_string(g);
    } else {
      text = "exists(flag) || g == " + std::to_string(g);
    }
    (void)i;
    return parse_predicate(text);
  };

  SubscriptionIndex index;
  std::vector<std::pair<SubscriberId, PredicatePtr>> naive;
  std::uint32_t next_id = 1;

  auto check_equivalence = [&] {
    for (int trial = 0; trial < 12; ++trial) {
      const auto g = rng.next_in(0, 9);
      const auto price = rng.next_in(0, 20);
      EventData e = rng.next_bool(0.2)
                        ? make_event({{"g", Value(g)}, {"flag", Value(true)}})
                        : make_event({{"g", Value(g)}, {"price", Value(price)}});
      std::vector<SubscriberId> expected;
      for (const auto& [id, p] : naive) {
        if (p->matches(e)) expected.push_back(id);
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(index.match(e), expected)
          << "population " << naive.size() << " event g=" << g
          << " price=" << price;
      ASSERT_EQ(index.matches_any(e), !expected.empty());
    }
  };

  for (int round = 0; round < 40; ++round) {
    const std::uint64_t adds = 1 + rng.next_below(12);
    for (std::uint64_t a = 0; a < adds; ++a) {
      const SubscriberId id{next_id++};
      auto p = random_predicate(id.value());
      index.add(id, p);
      naive.emplace_back(id, std::move(p));
    }
    // Remove a few, biased to the oldest ids: group representatives are the
    // first member added, so this forces representative promotion.
    const std::uint64_t removes = rng.next_below(std::min<std::uint64_t>(6, naive.size()));
    for (std::uint64_t r = 0; r < removes && !naive.empty(); ++r) {
      const std::size_t pick =
          rng.next_bool(0.7) ? rng.next_below(std::max<std::size_t>(1, naive.size() / 3))
                             : rng.next_below(naive.size());
      const SubscriberId victim = naive[pick].first;
      index.remove(victim);
      naive.erase(naive.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_FALSE(index.contains(victim));
    }
    ASSERT_EQ(index.size(), naive.size());
    check_equivalence();
  }

  // Equality-heavy populations must compress: far fewer groups than members.
  SubscriptionIndex dense;
  for (std::uint32_t i = 0; i < 400; ++i) {
    dense.add(SubscriberId{i}, parse_predicate("g == " + std::to_string(i % 8)));
  }
  EXPECT_LE(dense.group_count(), 8u);
  EXPECT_EQ(dense.size(), 400u);
}

// Range-tier property test (DESIGN.md §4.8): scan groups whose
// representative bounds one numeric attribute live in a per-attribute
// interval tree, and the tree is only a pre-filter — under seeded churn of
// one- and two-sided, inclusive and exclusive ranges (int and double
// constants, ±inf, NaN), match()/match_into()/matches_any() must agree with
// the naive every-predicate scan on numeric, NaN, string, bool and missing
// event values, including the exact-bound int-vs-double cases.
TEST(SubscriptionIndex, RangeTierAgreesUnderChurn) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(20261017);
  const std::vector<Value> constants = {Value(0), Value(2),   Value(5),    Value(7),
                                        Value(10), Value(2.5), Value(5.0), Value(-inf),
                                        Value(inf), Value(nan)};
  const std::vector<CompareOp> ordered = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                                          CompareOp::kGe};
  auto bound = [&](const std::string& attr) {
    return compare(attr, ordered[rng.next_below(ordered.size())],
                   constants[rng.next_below(constants.size())]);
  };
  auto random_predicate = [&]() -> PredicatePtr {
    switch (rng.next_below(8)) {
      case 0:
      case 1: return bound("x");  // one-sided
      case 2:
      case 3: return p_and({bound("x"), bound("x")});  // two-sided
      case 4: return p_and({bound("x"), bound("y")});  // tier picks x
      case 5: return p_and({exists("x"), p_and({bound("y"), bound("y")})});
      case 6: return compare("x", CompareOp::kLt, Value("m"));  // string: plain scan
      default: return p_or({bound("x"), bound("y")});           // plain scan
    }
  };
  const std::vector<Value> event_values = {Value(0),    Value(2),    Value(5),
                                           Value(7),    Value(10),   Value(2.5),
                                           Value(5.0),  Value(4.999), Value(-inf),
                                           Value(inf),  Value(nan),  Value("a"),
                                           Value(true), Value(11)};
  auto random_event = [&] {
    std::map<std::string, Value> attrs;
    for (const char* attr : {"x", "y"}) {
      const std::uint64_t pick = rng.next_below(event_values.size() + 1);
      if (pick < event_values.size()) attrs.emplace(attr, event_values[pick]);  // else missing
    }
    return make_event(std::move(attrs));
  };

  SubscriptionIndex index;
  std::vector<std::pair<SubscriberId, PredicatePtr>> naive;
  std::uint32_t next_id = 1;
  std::vector<SubscriberId> scratch;
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t adds = 1 + rng.next_below(10);
    for (std::uint64_t a = 0; a < adds; ++a) {
      const SubscriberId id{next_id++};
      auto p = random_predicate();
      index.add(id, p);
      naive.emplace_back(id, std::move(p));
    }
    // Oldest-biased removals hit representatives and force promotions that
    // re-file a group under its new representative's interval.
    const std::uint64_t removes = rng.next_below(std::min<std::uint64_t>(6, naive.size()));
    for (std::uint64_t r = 0; r < removes; ++r) {
      const std::size_t pick =
          rng.next_bool(0.7) ? rng.next_below(std::max<std::size_t>(1, naive.size() / 3))
                             : rng.next_below(naive.size());
      index.remove(naive[pick].first);
      naive.erase(naive.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(index.size(), naive.size());
    for (int trial = 0; trial < 20; ++trial) {
      const EventData e = random_event();
      std::vector<SubscriberId> expected;
      for (const auto& [id, p] : naive) {
        if (p->matches(e)) expected.push_back(id);
      }
      std::sort(expected.begin(), expected.end());
      std::string shown;
      for (const auto& [attr, value] : e.attributes()) {
        shown += " " + attr + "=" + (std::ostringstream() << value).str();
      }
      index.match_into(e, scratch);
      ASSERT_EQ(scratch, expected) << "round " << round << " event" << shown;
      ASSERT_EQ(index.match(e), expected);
      ASSERT_EQ(index.matches_any(e), !expected.empty());
    }
  }
}

// Compiled clause arrays (DESIGN.md §4.8): a single-clause index must agree
// with Compare::matches / Exists::matches for every op against int, double
// and NaN constants, on int, double, NaN, infinite, string, bool and missing
// event values.
TEST(SubscriptionIndex, CompiledClausesFollowCompareSemantics) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> constants = {Value(2), Value(2.0), Value(2.5), Value(-0.0),
                                        Value(nan)};
  const std::vector<std::optional<Value>> values = {
      std::nullopt, Value(2),   Value(2.0),  Value(2.5), Value(0),     Value(-0.0),
      Value(nan),   Value(inf), Value(-inf), Value("2"), Value(true),  Value(false)};
  std::vector<PredicatePtr> preds = {exists("x")};
  for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
                             CompareOp::kGt, CompareOp::kGe}) {
    for (const Value& c : constants) preds.push_back(compare("x", op, c));
  }
  for (const PredicatePtr& p : preds) {
    SubscriptionIndex index;
    index.add(SubscriberId{1}, p);
    for (const auto& v : values) {
      std::map<std::string, Value> attrs{{"other", Value(1)}};
      if (v) attrs.emplace("x", *v);
      const EventData e = make_event(std::move(attrs));
      const bool expected = p->matches(e);
      EXPECT_EQ(!index.match(e).empty(), expected)
          << p->to_string() << " on x=" << (v ? (std::ostringstream() << *v).str() : "missing");
      EXPECT_EQ(index.matches_any(e), expected) << p->to_string();
    }
  }
}

// `x == NaN` matches nothing and NaN != NaN: such a predicate must not be
// filed under an equality bucket it could never be found in again.
TEST(SubscriptionIndex, NanEqualityLeavesAndRejoinsCleanly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SubscriptionIndex index;
  index.add(SubscriberId{1}, compare("x", CompareOp::kEq, Value(nan)));
  index.add(SubscriberId{2}, compare("x", CompareOp::kEq, Value(nan)));
  index.add(SubscriberId{3}, p_and({compare("x", CompareOp::kEq, Value(nan)),
                                    compare("y", CompareOp::kEq, Value(1))}));
  EXPECT_TRUE(index.match(make_event({{"x", Value(nan)}, {"y", Value(1)}})).empty());
  index.remove(SubscriberId{1});
  index.remove(SubscriberId{2});
  index.remove(SubscriberId{3});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.group_count(), 0u);
}

// Churn property test for the compiled index: under seeded add / replace /
// remove churn with oldest-biased removals (forcing promotions), an index
// on compiled clause arrays must return what the brute-force scan of
// Predicate::matches returns, and count exactly the candidate evaluations
// of an index that evaluates every predicate through its tree
// (SubscriptionIndex(false)) — the count feeds matching.match_candidates.
// Populations mix compilable conjunctions (int, double and NaN constants,
// exists) with the `||`, `!` and string/bool-constant fallbacks; events
// carry int, double, NaN, string, bool and missing values.
TEST(SubscriptionIndex, CompiledIndexAgreesWithTreePathUnderChurn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(20261019);
  const std::vector<CompareOp> ops = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                                      CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const std::vector<Value> numeric = {Value(0), Value(1), Value(2), Value(3),
                                      Value(1.0), Value(1.5), Value(2.0), Value(nan)};
  const std::vector<std::string> attrs = {"a", "b", "c"};
  auto attr = [&] { return attrs[rng.next_below(attrs.size())]; };
  auto leaf = [&]() -> PredicatePtr {
    const std::uint64_t k = rng.next_below(12);
    if (k == 0) return exists(attr());
    if (k == 1) return compare(attr(), ops[rng.next_below(ops.size())], Value("x"));
    if (k == 2) return compare(attr(), CompareOp::kEq, Value(rng.next_bool(0.5)));
    // Equality-heavy, so covering groups and buckets form.
    const CompareOp op = k < 6 ? CompareOp::kEq : ops[rng.next_below(ops.size())];
    return compare(attr(), op, numeric[rng.next_below(numeric.size())]);
  };
  auto random_predicate = [&]() -> PredicatePtr {
    switch (rng.next_below(10)) {
      case 0: return match_all();
      case 1: return p_or({leaf(), leaf()});
      case 2: return p_not(leaf());
      case 3: return p_and({leaf(), p_and({leaf(), leaf()})});
      case 4:
      case 5:
      case 6: return p_and({leaf(), leaf()});
      default: return leaf();
    }
  };
  const std::vector<Value> event_values = {Value(0),   Value(1),    Value(2),     Value(3),
                                           Value(1.0), Value(1.5),  Value(2.0),   Value(nan),
                                           Value("x"), Value(true), Value(false), Value(-0.0)};
  auto random_event = [&] {
    std::map<std::string, Value> m;
    for (const std::string& a : attrs) {
      const std::uint64_t pick = rng.next_below(event_values.size() + 2);
      if (pick < event_values.size()) m.emplace(a, event_values[pick]);  // else missing
    }
    return make_event(std::move(m));
  };

  SubscriptionIndex compiled;
  SubscriptionIndex tree(/*compiled=*/false);
  std::map<SubscriberId, PredicatePtr> naive;
  std::vector<SubscriberId> order;  // insertion order, for oldest-biased removal
  std::uint32_t next_id = 1;
  std::vector<SubscriberId> scratch;
  for (int round = 0; round < 80; ++round) {
    const std::uint64_t adds = 1 + rng.next_below(10);
    for (std::uint64_t a = 0; a < adds; ++a) {
      // Now and then replace a live subscription instead of adding one.
      const bool replace = !order.empty() && rng.next_bool(0.1);
      const SubscriberId id =
          replace ? order[rng.next_below(order.size())] : SubscriberId{next_id++};
      const PredicatePtr p = random_predicate();
      compiled.add(id, p);
      tree.add(id, p);
      if (!replace) order.push_back(id);
      naive[id] = p;
    }
    const std::uint64_t removes = rng.next_below(std::min<std::uint64_t>(6, order.size()));
    for (std::uint64_t r = 0; r < removes; ++r) {
      const std::size_t pick =
          rng.next_bool(0.7) ? rng.next_below(std::max<std::size_t>(1, order.size() / 3))
                             : rng.next_below(order.size());
      const SubscriberId victim = order[pick];
      compiled.remove(victim);
      tree.remove(victim);
      naive.erase(victim);
      order.erase(order.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(compiled.size(), naive.size());
    ASSERT_EQ(compiled.group_count(), tree.group_count());
    for (int trial = 0; trial < 24; ++trial) {
      const EventData e = random_event();
      std::vector<SubscriberId> expected;
      for (const auto& [id, p] : naive) {
        if (p->matches(e)) expected.push_back(id);
      }
      std::string shown;
      for (const auto& [a, value] : e.attributes()) {
        shown += " " + a + "=" + (std::ostringstream() << value).str();
      }
      compiled.match_into(e, scratch);
      ASSERT_EQ(scratch, expected) << "round " << round << " event" << shown;
      ASSERT_EQ(tree.match(e), expected) << "round " << round << " event" << shown;
      ASSERT_EQ(compiled.matches_any(e), !expected.empty()) << "event" << shown;
      ASSERT_EQ(tree.matches_any(e), !expected.empty()) << "event" << shown;
      ASSERT_EQ(compiled.candidates_evaluated(), tree.candidates_evaluated())
          << "round " << round << " event" << shown;
    }
  }
}

// `NaN >= 7` holds (it is `!(NaN < 7)`) but `NaN > 5` does not, so a
// strict numeric bound must not claim to cover a closed one.
TEST(Predicate, StrictBoundDoesNotCoverClosedBound) {
  const auto nan_event =
      make_event({{"x", Value(std::numeric_limits<double>::quiet_NaN())}});
  const auto strict = parse_predicate("x > 5");
  const auto closed = parse_predicate("x >= 7");
  ASSERT_TRUE(closed->matches(nan_event));
  ASSERT_FALSE(strict->matches(nan_event));
  EXPECT_FALSE(strict->covers(*closed));
  EXPECT_TRUE(parse_predicate("x >= 5")->covers(*closed));
  EXPECT_TRUE(strict->covers(*parse_predicate("x > 7")));
  EXPECT_TRUE(parse_predicate("s > 'a'")->covers(*parse_predicate("s >= 'b'")));
}

// A promotion that narrows the representative moves the group to its new
// interval: after the wide rep leaves, values outside the survivor's range
// evaluate nothing.
TEST(SubscriptionIndex, RangePromotionRefilesInterval) {
  SubscriptionIndex index;
  index.add(SubscriberId{1}, parse_predicate("x >= 0"));
  index.add(SubscriberId{2}, parse_predicate("x >= 2 && x < 5"));  // covered by 1
  ASSERT_EQ(index.group_count(), 1u);
  EXPECT_EQ(index.match(make_event({{"x", Value(7)}})),
            std::vector<SubscriberId>{SubscriberId{1}});
  index.remove(SubscriberId{1});
  ASSERT_EQ(index.group_count(), 1u);
  const std::uint64_t before = index.candidates_evaluated();
  EXPECT_TRUE(index.match(make_event({{"x", Value(7)}})).empty());
  EXPECT_TRUE(index.match(make_event({{"x", Value(1)}})).empty());
  EXPECT_EQ(index.candidates_evaluated(), before);  // both outside [2, 5)
  EXPECT_EQ(index.match(make_event({{"x", Value(2)}})),
            std::vector<SubscriberId>{SubscriberId{2}});
  EXPECT_FALSE(index.matches_any(make_event({{"x", Value(5)}})));
}

// 500 disjoint price bands: an event evaluates the band holding its value
// and nothing else, in match_into() and matches_any() alike.
TEST(SubscriptionIndex, DisjointRangesCostHits) {
  SubscriptionIndex index;
  for (std::uint32_t i = 0; i < 500; ++i) {
    index.add(SubscriberId{i}, parse_predicate("px >= " + std::to_string(10 * i) +
                                               " && px < " + std::to_string(10 * i + 5)));
  }
  ASSERT_EQ(index.group_count(), 500u);
  std::vector<SubscriberId> out;
  for (const std::int64_t px : {0, 123, 4994, 4995}) {
    const auto e = make_event({{"px", Value(px)}});
    const std::size_t hits = px % 10 < 5 ? 1 : 0;
    const std::uint64_t before = index.candidates_evaluated();
    index.match_into(e, out);
    EXPECT_EQ(out.size(), hits) << "px " << px;
    EXPECT_EQ(index.candidates_evaluated() - before, hits) << "px " << px;
    const std::uint64_t mid = index.candidates_evaluated();
    EXPECT_EQ(index.matches_any(e), hits == 1);
    EXPECT_EQ(index.candidates_evaluated() - mid, hits) << "px " << px;
  }
  // A value past every band, and events without a numeric px, cost nothing.
  const std::uint64_t before = index.candidates_evaluated();
  for (const Value& v : {Value(5000), Value("123"), Value(true)}) {
    index.match_into(make_event({{"px", v}}), out);
    EXPECT_TRUE(out.empty());
  }
  index.match_into(make_event({{"qty", Value(1)}}), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.candidates_evaluated(), before);
}

// ------------------------------------------------------------- EventData

TEST(EventData, PayloadPaddingAndEncodedSize) {
  EventData e({{"g", Value(1)}}, "short", 250);
  EXPECT_EQ(e.payload_size(), 250u);
  EXPECT_GT(e.encoded_size(), 250u);  // + attribute encoding
  EventData big({{"g", Value(1)}}, std::string(300, 'x'), 250);
  EXPECT_EQ(big.payload_size(), 300u);
}

}  // namespace
}  // namespace gryphon::matching
