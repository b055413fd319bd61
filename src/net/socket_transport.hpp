// SocketTransport — the Transport seam implementation that carries a
// process's local Network traffic to and from real TCP sockets.
//
// In a gryphon_broker process the Network holds the local protocol endpoint
// (the broker or client object) plus one *proxy* endpoint per remote peer.
// A proxy's delivery handler writes frame bytes to the peer's socket;
// inbound frames are injected as sends from the proxy to the local
// endpoint. The transport routes accordingly:
//
//  * to_wire: struct messages from the local endpoint are codec-encoded
//    (pooled arenas — the same byte path as --wire=codec); messages that
//    are already frames (socket injections) pass through untouched.
//  * from_wire: a delivery INTO a proxy endpoint stays bytes (the handler
//    needs the frame, not the struct); a delivery into the local endpoint
//    is codec-decoded, nullptr on corruption — the Network counts the
//    decode reject exactly as in the simulation.
//
// Net effect: broker state machines, CPU pricing, and byte accounting see
// the identical codec wire form in both worlds; only the hop between
// proxy handler and socket is new.
#pragma once

#include <unordered_set>

#include "sim/transport.hpp"
#include "wire/codec_transport.hpp"

namespace gryphon::net {

class SocketTransport final : public sim::Transport {
 public:
  [[nodiscard]] const char* name() const override { return "socket"; }

  /// Declares `ep` a proxy for a remote peer: deliveries to it keep their
  /// byte form so the handler can write them to the socket.
  void mark_proxy(sim::EndpointId ep) { proxies_.insert(ep); }

  [[nodiscard]] sim::MessagePtr to_wire(sim::EndpointId from, sim::EndpointId to,
                                        sim::MessagePtr msg) override {
    if (!msg->wire_bytes().empty()) return msg;  // socket injection: already a frame
    return codec_.to_wire(from, to, std::move(msg));
  }

  [[nodiscard]] sim::MessagePtr from_wire(sim::EndpointId from, sim::EndpointId to,
                                          sim::MessagePtr msg) override {
    if (proxies_.contains(to)) return msg;  // crossing to a socket: stay bytes
    return codec_.from_wire(from, to, std::move(msg));
  }

  [[nodiscard]] const wire::CodecTransport& codec() const { return codec_; }

 private:
  wire::CodecTransport codec_;
  std::unordered_set<sim::EndpointId> proxies_;
};

}  // namespace gryphon::net
