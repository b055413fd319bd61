// Bounded recycling pool of byte buffers — the allocation backbone of the
// hot encode paths (wire/codec_transport arenas, mirroring the LogVolume
// record-buffer pool from the substrate PR).
//
// acquire() hands out an empty vector with retained capacity when the free
// list has one, and falls back to a fresh heap allocation when it is empty
// (exhaustion is never an error — just an allocation). release() returns a
// buffer for reuse unless the pool is already full or the buffer grew past
// the retain bound, in which case the buffer is simply freed: the pool's
// steady-state footprint stays <= max_buffers * max_retained_bytes.
//
// Shared ownership matters: in-flight FrameArenas (sim/message.hpp) return
// their buffers on destruction, which can happen after the transport that
// acquired them is gone, so holders keep the pool alive via shared_ptr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace gryphon {

class BufferPool {
 public:
  struct Options {
    /// Free-list bound: buffers returned beyond this are freed.
    std::size_t max_buffers = 8;
    /// Buffers that grew past this are not retained (keeps one pathological
    /// message from pinning a giant allocation forever).
    std::size_t max_retained_bytes = 1u << 20;
    /// Capacity reserved into freshly allocated buffers, so the first use
    /// of a buffer does not grow it byte by byte.
    std::size_t initial_bytes = 64 * 1024;
  };

  BufferPool() = default;
  explicit BufferPool(const Options& options) : options_(options) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer: recycled capacity on a pool hit, a fresh reserve on a
  /// miss (pool exhausted / cold).
  [[nodiscard]] std::vector<std::byte> acquire() {
    ++acquires_;
    if (!free_.empty()) {
      ++pool_hits_;
      std::vector<std::byte> buf = std::move(free_.back());
      free_.pop_back();
      buf.clear();
      return buf;
    }
    std::vector<std::byte> buf;
    buf.reserve(options_.initial_bytes);
    return buf;
  }

  /// Returns a buffer for reuse; frees it when the pool is full or the
  /// buffer outgrew the retain bound.
  void release(std::vector<std::byte>&& buf) {
    if (free_.size() >= options_.max_buffers ||
        buf.capacity() > options_.max_retained_bytes) {
      return;  // freed by the destructor — exhaustion degrades, never breaks
    }
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::uint64_t heap_fallbacks() const {
    return acquires_ - pool_hits_;
  }

 private:
  Options options_;  // default-constructed => the Options{} defaults
  std::vector<std::vector<std::byte>> free_;
  std::uint64_t acquires_ = 0;
  std::uint64_t pool_hits_ = 0;
};

using BufferPoolPtr = std::shared_ptr<BufferPool>;

}  // namespace gryphon
