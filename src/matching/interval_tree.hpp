// IntervalTree — point stabbing over numeric intervals, updated in place.
//
// The subscription index keeps one tree per attribute for its range tier
// (DESIGN.md §4.8): every representative that bounds that attribute with
// ordered comparisons sits here under its interval, and an event value v
// visits only the intervals that contain v. The tree is a treap keyed by
// lower bound (closed before open, then a caller-supplied unique key) and
// augmented with each subtree's largest upper bound, so a stab prunes every
// subtree that ends before v and every right spine that starts after it:
// O(log n + k) expected for k hits. Insert and erase are O(log n) expected;
// nothing is ever rebuilt wholesale.
//
// Priorities are a hash of the unique key, so the same sequence of inserts
// and erases builds the same shape on every run.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "util/rng.hpp"

namespace gryphon::matching {

/// A set of doubles between two bounds, each closed or open. Bounds are
/// never NaN; ±inf are ordinary bounds. lo > hi (or a touching pair with an
/// open end) is the empty interval.
struct Interval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  /// v lies on or after the lower bound.
  [[nodiscard]] bool after_lo(double v) const { return lo < v || (lo == v && !lo_open); }
  /// v lies on or before the upper bound.
  [[nodiscard]] bool before_hi(double v) const { return v < hi || (v == hi && !hi_open); }

  /// Narrows the lower bound to (v or [v; no-op when already tighter.
  void raise_lo(double v, bool open) {
    if (v > lo || (v == lo && open)) {
      lo = v;
      lo_open = open;
    }
  }
  /// Narrows the upper bound to v) or v]; no-op when already tighter.
  void lower_hi(double v, bool open) {
    if (v < hi || (v == hi && open)) {
      hi = v;
      hi_open = open;
    }
  }
};

template <typename T>
class IntervalTree {
 public:
  /// Adds `value` under `iv`. `key` must be unique among live entries.
  void insert(const Interval& iv, std::uint64_t key, T value) {
    auto n = std::make_unique<Node>();
    n->iv = iv;
    n->key = key;
    n->prio = splitmix64(key);
    n->value = std::move(value);
    pull(*n);
    insert(root_, std::move(n));
  }

  /// Removes the entry inserted with exactly (iv, key); it must exist.
  void erase(const Interval& iv, std::uint64_t key) { erase(root_, iv, key); }

  [[nodiscard]] bool empty() const { return root_ == nullptr; }

  /// Calls f(value) for every interval containing v until f returns true;
  /// returns whether one did. v must not be NaN.
  template <typename F>
  bool stab(double v, F&& f) const {
    return stab(root_.get(), v, f);
  }

  /// Calls f(value) for every entry until f returns true; returns whether
  /// one did.
  template <typename F>
  bool for_each(F&& f) const {
    return for_each(root_.get(), f);
  }

 private:
  struct Node {
    Interval iv;
    std::uint64_t key = 0;
    std::uint64_t prio = 0;
    T value{};
    double max_hi = 0;  // largest upper bound in this subtree...
    bool max_hi_open = false;  // ...and whether it is open
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };
  using Ptr = std::unique_ptr<Node>;

  /// Tree order: lower bound, closed before open, then key.
  static bool less(const Interval& a, std::uint64_t ak, const Interval& b,
                   std::uint64_t bk) {
    if (a.lo != b.lo) return a.lo < b.lo;
    if (a.lo_open != b.lo_open) return !a.lo_open;
    return ak < bk;
  }

  static void raise_max(Node& n, const Node* child) {
    if (child == nullptr) return;
    if (child->max_hi > n.max_hi || (child->max_hi == n.max_hi && !child->max_hi_open)) {
      n.max_hi = child->max_hi;
      n.max_hi_open = child->max_hi_open;
    }
  }
  static void pull(Node& n) {
    n.max_hi = n.iv.hi;
    n.max_hi_open = n.iv.hi_open;
    raise_max(n, n.left.get());
    raise_max(n, n.right.get());
  }

  /// Splits t into nodes ordered before (iv, key) and the rest.
  static void split(Ptr t, const Interval& iv, std::uint64_t key, Ptr& lo, Ptr& hi) {
    if (t == nullptr) return;
    if (less(t->iv, t->key, iv, key)) {
      split(std::move(t->right), iv, key, t->right, hi);
      pull(*t);
      lo = std::move(t);
    } else {
      split(std::move(t->left), iv, key, lo, t->left);
      pull(*t);
      hi = std::move(t);
    }
  }

  /// Joins two treaps where every node of a orders before every node of b.
  static Ptr merge(Ptr a, Ptr b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (a->prio > b->prio) {
      a->right = merge(std::move(a->right), std::move(b));
      pull(*a);
      return a;
    }
    b->left = merge(std::move(a), std::move(b->left));
    pull(*b);
    return b;
  }

  static void insert(Ptr& t, Ptr n) {
    if (t == nullptr) {
      t = std::move(n);
      return;
    }
    if (n->prio > t->prio) {
      split(std::move(t), n->iv, n->key, n->left, n->right);
      pull(*n);
      t = std::move(n);
      return;
    }
    Ptr& child = less(n->iv, n->key, t->iv, t->key) ? t->left : t->right;
    insert(child, std::move(n));
    pull(*t);
  }

  static void erase(Ptr& t, const Interval& iv, std::uint64_t key) {
    if (t->key == key) {
      t = merge(std::move(t->left), std::move(t->right));
      return;
    }
    erase(less(iv, key, t->iv, t->key) ? t->left : t->right, iv, key);
    pull(*t);
  }

  template <typename F>
  static bool stab(const Node* t, double v, F& f) {
    while (t != nullptr) {
      // Every interval below ends before v.
      if (!(v < t->max_hi || (v == t->max_hi && !t->max_hi_open))) return false;
      if (stab(t->left.get(), v, f)) return true;
      // This node and its right subtree all start after v.
      if (!t->iv.after_lo(v)) return false;
      if (t->iv.before_hi(v) && f(t->value)) return true;
      t = t->right.get();
    }
    return false;
  }

  template <typename F>
  static bool for_each(const Node* t, F& f) {
    while (t != nullptr) {
      if (for_each(t->left.get(), f)) return true;
      if (f(t->value)) return true;
      t = t->right.get();
    }
    return false;
  }

  Ptr root_;
};

}  // namespace gryphon::matching
