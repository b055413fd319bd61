#include "storage/sim_disk.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace gryphon::storage {

SimDisk::SimDisk(sim::Scheduler& scheduler, std::string name, DiskConfig config)
    : sim_(scheduler), name_(std::move(name)), config_(config) {
  GRYPHON_CHECK(config_.sync_latency >= 0);
  GRYPHON_CHECK(config_.write_bandwidth_bytes_per_sec > 0);
}

void SimDisk::write_and_sync(std::size_t bytes, std::function<void()> done) {
  GRYPHON_CHECK(done != nullptr);
  GRYPHON_CHECK_MSG(!crashed_,
                    "write_and_sync on crashed disk '" << name_ << "'");
  const auto transfer = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) /
                config_.write_bandwidth_bytes_per_sec * 1e6));
  // The transfer occupies the device; the sync latency is pipeline latency
  // (a barrier draining the controller cache), so concurrent commits from
  // independent callers overlap their barriers rather than queueing them —
  // the behaviour battery-backed write caches are bought for.
  const SimTime start = std::max(sim_.now(), free_at_);
  const SimTime transferred = start + transfer;
  free_at_ = transferred;
  const SimTime end = transferred + config_.sync_latency;
  busy_ += transferred - start;
  bytes_written_ += bytes;
  ++syncs_;

  const std::uint64_t gen = generation_;
  const std::uint64_t epoch = sync_epoch_;
  sim_.schedule_at(end, [this, gen, epoch, bytes, done = std::move(done)] {
    if (gen != generation_ || epoch != sync_epoch_) {
      bytes_dropped_ += bytes;  // lost to a crash / torn sync
      return;
    }
    bytes_synced_ += bytes;
    done();
  });
}

void SimDisk::read(std::size_t bytes, std::function<void()> done) {
  GRYPHON_CHECK(done != nullptr);
  GRYPHON_CHECK_MSG(!crashed_, "read on crashed disk '" << name_ << "'");
  const auto transfer = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) /
                config_.read_bandwidth_bytes_per_sec * 1e6));
  const SimTime start = std::max(sim_.now(), free_at_);
  SimTime end = start + config_.read_seek_latency + transfer;
  if (read_fault_remaining_ > 0) {
    --read_fault_remaining_;
    ++read_faults_;
    end += draw_read_fault_penalty();
  }
  free_at_ = end;
  busy_ += end - start;
  bytes_read_ += bytes;
  ++reads_;

  const std::uint64_t gen = generation_;
  sim_.schedule_at(end, [this, gen, done = std::move(done)] {
    if (gen != generation_) return;
    done();
  });
}

void SimDisk::crash() {
  ++generation_;
  free_at_ = sim_.now();
  crashed_ = true;
}

void SimDisk::restart() { crashed_ = false; }

void SimDisk::inject_stall(SimDuration duration) {
  GRYPHON_CHECK(duration > 0);
  // Outstanding completions already have their fire times scheduled; a real
  // stall would delay them too, but re-scheduling would break FIFO with the
  // generation checks. Instead the stall pushes the serialization point, so
  // everything *issued* from now on (the overwhelming majority in a group-
  // committed workload) eats the stall. Good enough for a fault model.
  free_at_ = std::max(free_at_, sim_.now()) + duration;
  ++stalls_;
  stall_time_ += duration;
}

void SimDisk::arm_read_faults(int count, std::uint64_t seed,
                              SimDuration penalty_lo, SimDuration penalty_hi) {
  GRYPHON_CHECK(count > 0);
  GRYPHON_CHECK(penalty_lo >= 0 && penalty_hi >= penalty_lo);
  read_fault_remaining_ = count;
  read_fault_seed_ = seed;
  read_fault_drawn_ = 0;
  read_fault_lo_ = penalty_lo;
  read_fault_hi_ = penalty_hi;
}

void SimDisk::clear_read_faults() { read_fault_remaining_ = 0; }

SimDuration SimDisk::draw_read_fault_penalty() {
  const std::uint64_t draw = splitmix64(read_fault_seed_ + read_fault_drawn_++);
  const auto span = static_cast<std::uint64_t>(read_fault_hi_ - read_fault_lo_) + 1;
  return read_fault_lo_ + static_cast<SimDuration>(draw % span);
}

void SimDisk::drop_unsynced() {
  GRYPHON_CHECK_MSG(!crashed_, "drop_unsynced on crashed disk '" << name_
                                   << "' (crash already dropped everything)");
  // Only write barriers are torn; in-flight reads (the data is on the
  // platter already) still complete.
  ++sync_epoch_;
  ++dropped_syncs_;
}

}  // namespace gryphon::storage
