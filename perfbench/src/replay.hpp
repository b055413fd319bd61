// The traced run's replay phase: the run's own generated inputs fed through
// each layer's public entry points, one span per call.
//
//   matching  SubscriptionIndex::match_into  (subscription set x event stream)
//   net       FrameReassembler::feed         (the frame mix, in 4 KiB reads)
//   wire      wire::decode / wire::encode    (every reassembled frame)
//   storage   LogVolume::append + sync       (logged-event records, FileBackend)
//   core      Pfs::append / Pfs::read        (the matches found above)
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "matching/event.hpp"
#include "spans.hpp"
#include "storage/sim_disk.hpp"

namespace perfbench {

struct ReplayInputs {
  std::vector<std::string> selectors;  // subscriber i + 1 holds selectors[i]
  std::vector<gryphon::matching::EventDataPtr> events;
  std::vector<std::vector<std::byte>> frames;
};

/// Disk timing of every runtime broker and of the replay: no modelled
/// delay. Bandwidths stay finite (the database prices engine work in
/// bandwidth bytes), so a transfer costs at most one 1 us timer tick.
[[nodiscard]] gryphon::storage::DiskConfig zero_delay_disk();

struct ReplayResult {
  std::uint64_t reassembly_rejects = 0;
  std::uint64_t decode_rejects = 0;
};

/// Runs the replay under `dir` (created, then removed) and adds
/// matching.match_ns_per_event, net.reassembly_ns_per_frame,
/// storage.append_us_per_record and core.pfs_read_us_per_record to `out`.
ReplayResult run_replay(const ReplayInputs& inputs, const std::string& dir, SpanLog& spans,
                        std::map<std::string, double>& out);

}  // namespace perfbench
