// FrameReassembler — turns an arbitrary-boundary TCP byte stream back into
// whole wire frames.
//
// TCP delivers bytes, not frames: a read may return half a header, three
// frames and a tail, or one byte. The reassembler buffers fed bytes and
// emits one complete frame at a time, validated end-to-end (magic, version,
// length bound, CRC32C over the whole frame) with wire::parse_frame's
// never-throwing consumed==0 contract.
//
// Corruption policy (a hostile/buggy peer, or chaos-injected mangling):
//  * a complete frame whose CRC (or structure) fails is CONSUMED and
//    counted in rejects() — never emitted, never silently skipped;
//  * after a reject — or when the stream position doesn't even hold the
//    frame magic — the reassembler resynchronizes by scanning forward for
//    the next 8-byte magic, so one corrupt frame cannot desync the frames
//    behind it. A contiguous garbage run counts as one reject.
//  * an incomplete frame at the tail is simply awaited; if the connection
//    closes first, buffered() > 0 tells the caller the tail was torn.
//
// Emitted frames are owning copies (FrameMessage over its own buffer): the
// receive buffer is recycled immediately, and the frame can ride through
// the local Network/Transport seam with arbitrary lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/message.hpp"

namespace gryphon::net {

class FrameReassembler {
 public:
  struct Options {
    /// Largest valid message-kind byte (the frame layer is vocabulary-
    /// agnostic; callers pass their protocol's max kind).
    std::uint8_t max_kind = 0xff;
    /// Length prefixes above this are treated as corruption.
    std::size_t max_payload_bytes = 64u << 20;
  };

  FrameReassembler() : FrameReassembler(Options{}) {}
  explicit FrameReassembler(Options options) : options_(options) {}

  /// Appends received bytes to the stream buffer.
  void feed(std::span<const std::byte> bytes);

  /// Extracts the next complete frame, or nullptr when the buffer holds no
  /// complete frame (more bytes needed). Corrupt frames encountered on the
  /// way are consumed and counted, never returned.
  [[nodiscard]] std::shared_ptr<const sim::FrameMessage> next();

  /// Corrupt frames / garbage runs consumed so far.
  [[nodiscard]] std::uint64_t rejects() const { return rejects_; }
  /// Bytes buffered but not yet consumed (a torn tail when the peer closed).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - head_; }

 private:
  /// Drops consumed bytes once the dead prefix dominates the buffer.
  void compact();

  /// Advances head_ to the next magic occurrence at or after head_ + 1;
  /// keeps the last 7 bytes when none is found (a magic may straddle the
  /// next feed). Counts one reject for the garbage run unless one was
  /// already charged for it.
  void resync();

  Options options_;
  std::vector<std::byte> buf_;
  std::size_t head_ = 0;        // consumed prefix of buf_
  bool in_garbage_run_ = false;  // reject already charged for current run
  std::uint64_t rejects_ = 0;
};

}  // namespace gryphon::net
