// DecodedPacket — the parse-once ring element.
//
// The tap decodes each frame exactly once (an eager L2-L4 PacketView)
// and every downstream stage — shard spreader, FlowMeter, dataset
// collector, fast loop, archive filter — consumes the cached view
// instead of re-parsing the same bytes. This is only sound because the
// frame bytes live in a refcounted pool buffer (packet/buffer.h): they
// stay at a stable address no matter how often the handle is copied or
// moved, so the view's spans survive ring hops and sink fan-out.
//
// The same decode hashes the frame once (flow_hash): the spreader picks
// a shard with it and the shard's FlowMeter finds the flow with it, so
// no stage hashes the 5-tuple again.
//
// Treat a DecodedPacket as immutable. Mutating `pkt` through its
// copy-on-write accessors would re-seat the bytes and strand `view`;
// a stage that needs to rewrite a frame (e.g. archive redaction) must
// take its own Packet copy (a refcount bump) and mutate that.
#pragma once

#include <cstdint>
#include <utility>

#include "campuslab/packet/view.h"
#include "campuslab/sim/campus.h"

namespace campuslab::capture {

/// The frame's flow hash. For an IPv4 frame it is the hash of the
/// bidirectional 5-tuple, so both directions of a conversation agree.
/// A frame without an IPv4 5-tuple (ARP, junk, truncated) gets an
/// FNV-1a of its first 32 bytes and its length instead, so such frames
/// still spread over every shard.
std::uint64_t flow_hash(const packet::PacketView& view) noexcept;

/// A captured frame, its border direction, the single eager decode and
/// the flow hash of that decode.
struct DecodedPacket {
  packet::Packet pkt;
  sim::Direction dir = sim::Direction::kInbound;
  packet::PacketView view;
  std::uint64_t hash = 0;  // flow_hash(view)

  DecodedPacket() noexcept = default;
  DecodedPacket(packet::Packet p, sim::Direction d)
      : pkt(std::move(p)), dir(d), view(pkt.bytes()), hash(flow_hash(view)) {}
};

}  // namespace campuslab::capture
