// A sim::Transport that times the transport it wraps.
//
// Installed with Network::set_transport on the traced run only. Calls that
// actually encode (to_wire returns a new message) or decode (from_wire
// returns a new message, or nullptr for a reject) are recorded as
// wire::encode / wire::decode spans; pass-through calls are not. A bounded
// sample of the frames it sees is kept for the reassembly replay.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/transport.hpp"
#include "spans.hpp"

namespace perfbench {

class TimingTransport final : public gryphon::sim::Transport {
 public:
  TimingTransport(gryphon::sim::Transport& inner, SpanLog& spans, std::size_t keep_frames)
      : inner_(inner), spans_(spans), keep_frames_(keep_frames) {}

  [[nodiscard]] const char* name() const override { return inner_.name(); }

  [[nodiscard]] gryphon::sim::MessagePtr to_wire(gryphon::sim::EndpointId from,
                                                 gryphon::sim::EndpointId to,
                                                 gryphon::sim::MessagePtr msg) override {
    const std::int64_t t0 = now_ns();
    const gryphon::sim::Message* before = msg.get();
    gryphon::sim::MessagePtr out = inner_.to_wire(from, to, std::move(msg));
    if (out.get() != before) {
      spans_.record("wire::encode", t0, now_ns());
      keep(*out);
    }
    return out;
  }

  [[nodiscard]] gryphon::sim::MessagePtr from_wire(gryphon::sim::EndpointId from,
                                                   gryphon::sim::EndpointId to,
                                                   gryphon::sim::MessagePtr msg) override {
    const std::int64_t t0 = now_ns();
    const gryphon::sim::MessagePtr in = msg;
    gryphon::sim::MessagePtr out = inner_.from_wire(from, to, std::move(msg));
    if (out.get() != in.get()) {
      spans_.record("wire::decode", t0, now_ns());
      keep(*in);
    }
    return out;
  }

  /// Frame bytes seen (both directions), at most keep_frames of them.
  [[nodiscard]] const std::vector<std::vector<std::byte>>& frames() const { return frames_; }

 private:
  void keep(const gryphon::sim::Message& frame) {
    const auto bytes = frame.wire_bytes();
    if (frames_.size() < keep_frames_ && !bytes.empty()) {
      frames_.emplace_back(bytes.begin(), bytes.end());
    }
  }

  gryphon::sim::Transport& inner_;
  SpanLog& spans_;
  std::size_t keep_frames_;
  std::vector<std::vector<std::byte>> frames_;
};

}  // namespace perfbench
