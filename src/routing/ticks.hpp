// The four tick values of the extended knowledge stream (paper §3):
//   Q — unknown: this node has no information for the timestamp yet,
//   S — silence: no event at the timestamp, or it was filtered upstream,
//   D — data: an event published by an application,
//   L — lost: the pubend discarded whether this tick was S or D
//       (release protocol / early-release).
#pragma once

#include <cstdint>

namespace gryphon::routing {

enum class TickValue : std::uint8_t { kQ, kS, kD, kL };

}  // namespace gryphon::routing
