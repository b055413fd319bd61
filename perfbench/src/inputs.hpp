// Seeded inputs of the benchmark workloads.
//
// Everything a runtime workload feeds the program comes from here and from
// nothing else: the durable subscription population (selector text), the
// event stream (attribute values by stream index) and the reconnect
// schedule of the cycling subscribers. The same seed gives the same inputs,
// and digest() fingerprints them so a test can prove it.
//
// Selectors are kept in structured form as well as text: the benchmark's
// delivery oracle evaluates the structured form itself, so the expected
// delivery set never depends on the matching module under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Attribute values of one event; `n` (stream index) and `due` (scheduled
/// send time) are added at send time.
struct EventAttrs {
  std::int64_t sym = 0;  // Zipf-skewed symbol id
  std::int64_t px = 0;   // uniform price
  std::int64_t qty = 0;  // uniform quantity
};

struct Clause {
  enum class Op { kEq, kLt, kGe };
  enum class Attr { kSym, kPx, kQty, kN };
  Attr attr = Attr::kSym;
  Op op = Op::kEq;
  std::int64_t value = 0;
};

struct Selector {
  std::vector<Clause> clauses;  // conjunction

  [[nodiscard]] std::string text() const;
  [[nodiscard]] bool matches(const EventAttrs& e, std::int64_t n) const;
};

/// One connected period followed by one outage (microseconds).
struct Cycle {
  std::int64_t up_us = 0;
  std::int64_t down_us = 0;
};

struct InputSpec {
  std::size_t parked = 0;     // durable subscriptions parked during the run
  std::size_t connected = 0;  // connected subscribers besides the probe
  bool cycling = false;       // connected subscribers follow a reconnect schedule
  std::int64_t schedule_us = 0;  // span the reconnect schedule must cover
};

class Inputs {
 public:
  Inputs(std::uint64_t seed, const InputSpec& spec);

  [[nodiscard]] const std::vector<Selector>& parked() const { return parked_; }
  [[nodiscard]] const std::vector<Selector>& connected() const { return connected_; }
  /// Per connected subscriber; empty unless spec.cycling.
  [[nodiscard]] const std::vector<std::vector<Cycle>>& schedule() const {
    return schedule_;
  }
  /// The probe subscriber matches every event.
  [[nodiscard]] static Selector probe_selector();

  /// Attribute values of stream event `n` (a pure function of seed and n).
  [[nodiscard]] EventAttrs event(std::uint64_t n) const;

  /// Fingerprint of the selectors, the first `events` stream events and
  /// the reconnect schedule.
  [[nodiscard]] std::uint64_t digest(std::uint64_t events) const;

 private:
  std::uint64_t seed_;
  std::vector<Selector> parked_;
  std::vector<Selector> connected_;
  std::vector<std::vector<Cycle>> schedule_;
  std::vector<double> sym_cdf_;  // event symbol distribution
};

/// splitmix64 finalizer, the benchmark's one hash/PRNG step.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
