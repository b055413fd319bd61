// The one rule for a declared bench gate, shared by the benches
// (bench_common.hpp) and the artifact checker (`gryphon_report
// --check-bench`), so a gate means the same on both sides.
#pragma once

#include <cmath>
#include <string_view>

namespace gryphon::bench {

/// `value op bound` for op one of ==, <, <=, >, >=. An unknown op or a
/// value the run never produced (non-finite) never holds.
inline bool gate_holds(double value, std::string_view op, double bound) {
  if (!std::isfinite(value)) return false;
  if (op == "==") return value == bound;
  if (op == "<") return value < bound;
  if (op == "<=") return value <= bound;
  if (op == ">") return value > bound;
  if (op == ">=") return value >= bound;
  return false;
}

}  // namespace gryphon::bench
