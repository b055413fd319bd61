#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

namespace {

constexpr int kSymbols = 128;
constexpr double kEventSymSkew = 1.0;  // Zipf exponent of event symbols
constexpr double kSubSymSkew = 0.6;    // Zipf exponent of subscribed symbols

/// Deterministic stream of draws: draw k of a seeded stream is mix64 of a
/// seed-and-k combination, so streams never share state.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_ += 0x9E3779B97F4A7C15ull); }
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {  // [lo, hi]
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

std::vector<double> zipf_cdf(double skew) {
  std::vector<double> cdf(kSymbols);
  double sum = 0;
  for (int k = 0; k < kSymbols; ++k) {
    sum += 1.0 / std::pow(k + 1, skew);
    cdf[static_cast<std::size_t>(k)] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::int64_t sample(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::int64_t>(it - cdf.begin(), kSymbols - 1);
}

Clause eq(Clause::Attr a, std::int64_t v) { return {a, Clause::Op::kEq, v}; }
Clause lt(Clause::Attr a, std::int64_t v) { return {a, Clause::Op::kLt, v}; }
Clause ge(Clause::Attr a, std::int64_t v) { return {a, Clause::Op::kGe, v}; }

/// Parked population: four selector shapes over sym/px/qty, symbols drawn
/// with Zipf skew, duplicates rejected (a duplicate would only exercise the
/// covering index's exact-member path).
std::vector<Selector> make_parked(Draws& d, std::size_t count) {
  const auto cdf = zipf_cdf(kSubSymSkew);
  std::vector<Selector> out;
  std::set<std::string> seen;
  while (out.size() < count) {
    const std::int64_t sym = sample(cdf, d.unit());
    Selector s;
    switch (d.next() % 4) {
      case 0:
        s.clauses = {eq(Clause::Attr::kSym, sym)};
        break;
      case 1:
        s.clauses = {eq(Clause::Attr::kSym, sym), lt(Clause::Attr::kPx, 10 * d.uniform(5, 95))};
        break;
      case 2:
        s.clauses = {eq(Clause::Attr::kSym, sym), ge(Clause::Attr::kQty, d.uniform(10, 90))};
        break;
      default: {
        const std::int64_t lo = d.uniform(0, 990);
        s.clauses = {ge(Clause::Attr::kPx, lo), lt(Clause::Attr::kPx, lo + d.uniform(2, 10))};
        break;
      }
    }
    if (seen.insert(s.text()).second) out.push_back(std::move(s));
  }
  return out;
}

/// Connected subscribers follow the hottest symbols, so each sees a few
/// percent of the stream and an outage leaves a real backlog to catch up.
/// Subscriber i takes symbol rank i mod 8, so every seed offers the same
/// mix of heavy and light subscribers; the seed draws the price filters.
std::vector<Selector> make_connected(Draws& d, std::size_t count) {
  std::vector<Selector> out;
  for (std::size_t i = 0; i < count; ++i) {
    Selector s;
    s.clauses = {eq(Clause::Attr::kSym, static_cast<std::int64_t>(i % 8)),
                 lt(Clause::Attr::kPx, 10 * d.uniform(30, 90))};
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Cycle> make_cycles(Draws& d, std::int64_t span_us) {
  std::vector<Cycle> out;
  // A random first dwell spreads the subscribers' phases apart.
  std::int64_t t = 0;
  bool first = true;
  while (t < span_us) {
    Cycle c;
    c.up_us = first ? d.uniform(20'000, 400'000) : d.uniform(100'000, 400'000);
    c.down_us = d.uniform(100'000, 500'000);
    first = false;
    t += c.up_us + c.down_us;
    out.push_back(c);
  }
  return out;
}

const char* attr_name(Clause::Attr a) {
  switch (a) {
    case Clause::Attr::kSym: return "sym";
    case Clause::Attr::kPx: return "px";
    case Clause::Attr::kQty: return "qty";
    case Clause::Attr::kN: return "n";
  }
  return "?";
}

void fold(std::uint64_t& h, std::uint64_t v) { h = mix64(h ^ v); }

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string Selector::text() const {
  std::string out;
  for (const Clause& c : clauses) {
    if (!out.empty()) out += " && ";
    out += attr_name(c.attr);
    out += c.op == Clause::Op::kEq ? " == " : c.op == Clause::Op::kLt ? " < " : " >= ";
    out += std::to_string(c.value);
  }
  return out;
}

bool Selector::matches(const EventAttrs& e, std::int64_t n) const {
  for (const Clause& c : clauses) {
    std::int64_t v = 0;
    switch (c.attr) {
      case Clause::Attr::kSym: v = e.sym; break;
      case Clause::Attr::kPx: v = e.px; break;
      case Clause::Attr::kQty: v = e.qty; break;
      case Clause::Attr::kN: v = n; break;
    }
    const bool ok = c.op == Clause::Op::kEq ? v == c.value
                    : c.op == Clause::Op::kLt ? v < c.value
                                              : v >= c.value;
    if (!ok) return false;
  }
  return true;
}

Selector Inputs::probe_selector() {
  Selector s;
  s.clauses = {ge(Clause::Attr::kN, 0)};
  return s;
}

Inputs::Inputs(std::uint64_t seed, const InputSpec& spec)
    : seed_(seed), sym_cdf_(zipf_cdf(kEventSymSkew)) {
  Draws parked(seed * 4 + 1);
  Draws connected(seed * 4 + 2);
  Draws schedule(seed * 4 + 3);
  parked_ = make_parked(parked, spec.parked);
  connected_ = make_connected(connected, spec.connected);
  if (spec.cycling) {
    for (std::size_t i = 0; i < spec.connected; ++i) {
      schedule_.push_back(make_cycles(schedule, spec.schedule_us));
    }
  }
}

EventAttrs Inputs::event(std::uint64_t n) const {
  const std::uint64_t base = mix64(seed_ * 0x100000001B3ull + n);
  EventAttrs e;
  e.sym = sample(sym_cdf_, static_cast<double>(base >> 11) * 0x1.0p-53);
  const std::uint64_t more = mix64(base);
  e.px = static_cast<std::int64_t>(more % 1000);
  e.qty = static_cast<std::int64_t>((more >> 20) % 100 + 1);
  return e;
}

std::uint64_t Inputs::digest(std::uint64_t events) const {
  std::uint64_t h = 0x6A09E667F3BCC908ull;
  for (const auto* list : {&parked_, &connected_}) {
    fold(h, list->size());
    for (const Selector& s : *list) {
      for (const char c : s.text()) fold(h, static_cast<unsigned char>(c));
    }
  }
  for (std::uint64_t n = 0; n < events; ++n) {
    const EventAttrs e = event(n);
    fold(h, static_cast<std::uint64_t>(e.sym));
    fold(h, static_cast<std::uint64_t>(e.px));
    fold(h, static_cast<std::uint64_t>(e.qty));
  }
  for (const auto& cycles : schedule_) {
    fold(h, cycles.size());
    for (const Cycle& c : cycles) {
      fold(h, static_cast<std::uint64_t>(c.up_us));
      fold(h, static_cast<std::uint64_t>(c.down_us));
    }
  }
  return h;
}

}  // namespace perfbench
