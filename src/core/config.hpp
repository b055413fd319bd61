// Tunable timing and CPU-cost parameters of the broker network.
//
// The cost model is the hardware-substitution layer (DESIGN.md §4): per-op
// CPU charges are calibrated so that one 6-core SHB saturates around 20K
// deliveries/s, as the paper's F80 does, and all scalability/idle-time
// results then *emerge* from queueing rather than being scripted.
#pragma once

#include <cstddef>

#include "util/time.hpp"

namespace gryphon::core {

struct CostModel {
  // --- CPU costs (total work; the Cpu divides by its core count) ---
  /// PHB per published event: timestamping, matching, log-buffer handling.
  SimDuration publish_base = usec(1800);
  /// PHB/intermediate per child link an event is forwarded on.
  SimDuration per_child_forward = usec(250);
  /// SHB per D tick arriving at the istream/constream: accumulate, match
  /// against hosted subscriptions, build the PFS record.
  SimDuration shb_event_process = usec(560);
  /// Constream per (event, non-catchup subscriber) delivery. Dominates SHB
  /// load; 6 cores / this cost ~= 20K deliveries/s.
  SimDuration per_delivery = usec(280);
  /// Catchup-stream per (event, subscriber) delivery — separate stream
  /// processing makes this roughly twice as expensive (paper §5: ~10K ev/s
  /// when every subscriber runs its own catchup stream).
  SimDuration per_catchup_delivery = usec(470);
  /// Handling one nack message (either direction).
  SimDuration nack_process = usec(120);
  /// Serving one cached event in a nack response.
  SimDuration per_nack_response_event = usec(80);
  /// PFS batch read: per record traversed (CPU part; IO is on the disk).
  SimDuration pfs_read_per_record = usec(4);
  /// Any small control message (acks, release updates, connects).
  SimDuration control_process = usec(60);

  // --- protocol timers ---
  /// Pubend announces silence up to T(p) at this interval when idle.
  SimDuration silence_interval = msec(100);
  /// Curiosity: how long a Q gap may stall the doubt horizon before nacking.
  SimDuration nack_timeout = msec(100);
  /// Re-nack outstanding ranges that received no response: base delay of the
  /// per-stream retry backoff (retry k waits min(nack_retry *
  /// nack_retry_multiplier^k, nack_retry_max), scaled by a deterministic
  /// jitter factor in [1 - nack_retry_jitter, 1 + nack_retry_jitter) hashed
  /// from (broker, stream, attempt) — no shared RNG, so retry timing is
  /// replayable). Any response progress resets k to 0, so a live-but-slow
  /// upstream sees the base period while a severed one is probed ever more
  /// gently up to the cap.
  SimDuration nack_retry = msec(1000);
  SimDuration nack_retry_max = sec(4);
  double nack_retry_multiplier = 2.0;
  double nack_retry_jitter = 0.2;
  /// Brokers push (released, latestDelivered) mins upstream at this period.
  SimDuration release_update_interval = msec(250);
  /// SHB commits dirty released(s,p) / latestDelivered(p) rows (paper: 250ms).
  SimDuration db_commit_interval = msec(250);
  /// SHB sends a silence message to a subscriber idle for this long.
  SimDuration subscriber_silence_after = msec(500);

  // --- PFS ---
  /// Force a PFS log sync after this many appended records (paper: 200).
  std::size_t pfs_sync_every_records = 200;
  /// ... or after this long with unsynced records, whichever first.
  SimDuration pfs_sync_interval = msec(1000);
  /// Batch-read buffer capacity in Q ticks (paper §5.3: 5000).
  std::size_t pfs_read_buffer_q_ticks = 5000;
  /// PFS precision (paper §4.2): 1 = precise (one record per matched tick,
  /// the paper's implementation); > 1 coalesces that many matched ticks
  /// into one range record with the union of subscriber lists — cheaper
  /// writes, coarser Q knowledge, extra refiltering on catchup.
  std::size_t pfs_imprecise_batch = 1;

  // --- flow control / batching ---
  /// Max outstanding nacked ticks per catchup stream.
  Tick catchup_nack_window = 1200;
  /// Client flow control (paper §4.1/[14]): a catchup stream recovers at
  /// most this many missed-event positions per second, so reconnecting
  /// clients are not overwhelmed. With the paper's 200 ev/s live rate this
  /// yields the observed 5-6s catchup after a 5s disconnection.
  double catchup_rate_limit_eps = 380.0;
  /// How long a token-starved catchup stream waits before pumping again.
  SimDuration catchup_pump_interval = msec(50);
  /// Congestion control [14]: stop pumping catchup positions while the SHB
  /// CPU is this far behind, so catchup consumes spare capacity instead of
  /// inflating an unbounded delivery backlog.
  SimDuration catchup_backpressure_backlog = msec(200);
  /// Max nacked ticks per nack-timer firing for the SHB istream. Together
  /// with nack_timeout this paces constream recovery: 500 ticks / 100 ms =
  /// the paper's ~5x latestDelivered slope during post-crash recovery.
  Tick istream_nack_window = 500;
  /// Intermediate brokers / SHB istreams cache this many trailing ticks of
  /// knowledge+events for serving catchup nacks locally.
  Tick cache_span_ticks = 30'000;
  /// Reconnect-herd admission control: at most this many catchup streams may
  /// be *active* (issuing PFS reads, nacking upstream, delivering) per SHB at
  /// once; further resumed sessions queue FIFO and are admitted as active
  /// streams switch over. 0 = unbounded (every stream activates on arrival).
  std::size_t catchup_admission_limit = 64;

  // Per-message envelope bytes are NOT configurable: the envelope is the
  // wire frame header, core::kEnvelopeBytes (messages.hpp), static-asserted
  // against wire::kFrameHeaderBytes.
};

struct BrokerConfig {
  int cores = 6;  // RS/6000 F80
  CostModel costs{};
  /// Shards for the SHB session table and the PFS log streams, keyed by
  /// subscriber-id hash (core/sharding.hpp). 1 = the unsharded layout,
  /// bit-identical with pre-sharding deployments (DESIGN.md §4.8).
  std::size_t pfs_shards = 1;
};

}  // namespace gryphon::core
