// Deterministic exponential backoff with jitter — the one retry-pacing rule
// shared by every retry loop in core (SHB nack retries, subscriber
// reconnects).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace gryphon::core {

/// Retry k (0-based) waits min(base * multiplier^k, max), scaled by a
/// jitter factor in [1 - jitter, 1 + jitter) (see backoff_delay).
struct Backoff {
  SimDuration base = msec(500);
  SimDuration max = sec(4);
  double multiplier = 2.0;
  double jitter = 0.2;
};

/// The delay before retry `retry` of stream `stream` run by `who`. The
/// jitter factor is a hash of (who, stream, retry), not a draw from a shared
/// RNG: the same inputs give the same delay, so retry timing replays
/// exactly and perturbs no other randomness, while distinct retriers still
/// spread out instead of retrying in lockstep. Never less than 1.
[[nodiscard]] inline SimDuration backoff_delay(const Backoff& b, std::uint64_t who,
                                               std::uint64_t stream,
                                               std::uint64_t retry) {
  const auto cap = static_cast<double>(b.max);
  double delay = static_cast<double>(b.base);
  for (std::uint64_t i = 0; i < retry && delay < cap; ++i) delay *= b.multiplier;
  delay = std::min(delay, cap);
  const std::uint64_t salts = ((who + 1) * kSplitMixGamma) ^
                              ((stream + 1) * 0xbf58476d1ce4e5b9ULL) ^
                              ((retry + 1) * 0x94d049bb133111ebULL);
  // splitmix64 adds the gamma itself; the salts go into its finalizer as is.
  const std::uint64_t h = splitmix64(salts - kSplitMixGamma);
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  delay *= 1.0 - b.jitter + 2.0 * b.jitter * unit;
  return std::max<SimDuration>(1, static_cast<SimDuration>(std::llround(delay)));
}

}  // namespace gryphon::core
