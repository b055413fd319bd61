// Seed reproducibility of the benchmark inputs: the same seed must give an
// identical digest of selectors, event attributes and reconnect schedule,
// and a different seed a different one. Run with `ctest` in the perfbench
// build directory, or `python3 perfbench/run.py --test`.
#include <cstdio>
#include <cstdlib>
#include <set>

#include "inputs.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

perfbench::InputSpec spec() {
  perfbench::InputSpec s;
  s.parked = 2000;
  s.connected = 12;
  s.cycling = true;
  s.schedule_us = 10'000'000;
  return s;
}

}  // namespace

int main() {
  constexpr std::uint64_t kEvents = 50'000;
  const perfbench::Inputs a(7, spec());
  const perfbench::Inputs b(7, spec());
  const perfbench::Inputs c(8, spec());
  expect(a.digest(kEvents) == b.digest(kEvents), "same seed gives the same digest");
  expect(a.digest(kEvents) != c.digest(kEvents), "another seed gives another digest");

  bool same_parts = a.parked().size() == b.parked().size() &&
                    a.schedule().size() == b.schedule().size();
  for (std::size_t i = 0; same_parts && i < a.parked().size(); ++i) {
    same_parts = a.parked()[i].text() == b.parked()[i].text();
  }
  for (std::uint64_t n = 0; same_parts && n < kEvents; ++n) {
    same_parts = a.event(n).sym == b.event(n).sym && a.event(n).px == b.event(n).px &&
                 a.event(n).qty == b.event(n).qty;
  }
  expect(same_parts, "same seed gives identical selectors and events");

  std::set<std::string> texts;
  for (const auto& s : a.parked()) texts.insert(s.text());
  expect(texts.size() == a.parked().size(), "parked selectors are distinct");

  // Cycling schedules cover the requested span for every subscriber.
  bool covered = a.schedule().size() == spec().connected;
  for (const auto& cycles : a.schedule()) {
    std::int64_t t = 0;
    for (const auto& cyc : cycles) t += cyc.up_us + cyc.down_us;
    covered = covered && t >= spec().schedule_us;
  }
  expect(covered, "reconnect schedule covers the run");

  // Each event matches several parked subscriptions on average.
  double matched = 0;
  constexpr std::uint64_t kSample = 2000;
  for (std::uint64_t n = 0; n < kSample; ++n) {
    const auto e = a.event(n);
    for (const auto& s : a.parked()) matched += s.matches(e, static_cast<std::int64_t>(n));
  }
  const double mean = matched / kSample;
  std::printf("mean parked matches per event: %.2f\n", mean);
  expect(mean >= 3 && mean <= 100, "events match several parked subscriptions");

  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
