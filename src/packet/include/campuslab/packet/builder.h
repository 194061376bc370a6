// PacketBuilder — constructs complete, checksummed Ethernet/IPv4 frames.
//
// The simulator's traffic and attack generators produce real wire-format
// bytes through this builder, so every downstream stage (capture, flow
// metering, the data store, the software switch) operates on frames that
// a real NIC could have delivered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "campuslab/packet/addr.h"
#include "campuslab/packet/dns.h"
#include "campuslab/packet/headers.h"
#include "campuslab/packet/label.h"
#include "campuslab/packet/view.h"
#include "campuslab/util/time.h"

namespace campuslab::packet {

/// Endpoint identity used when building frames.
struct Endpoint {
  MacAddress mac;
  Ipv4Address ip;
  std::uint16_t port = 0;
};

/// Fluent builder. Typical use:
///   auto pkt = PacketBuilder(ts)
///       .tcp(src, dst, TcpFlags::kSyn, seq, ack)
///       .payload_size(512)
///       .label(TrafficLabel::kSynFlood)
///       .build();
class PacketBuilder {
 public:
  explicit PacketBuilder(Timestamp ts) : ts_(ts) {}

  /// TCP segment; payload attached via payload()/payload_size().
  PacketBuilder& tcp(const Endpoint& src, const Endpoint& dst,
                     std::uint8_t flags, std::uint32_t seq = 0,
                     std::uint32_t ack = 0);

  /// UDP datagram.
  PacketBuilder& udp(const Endpoint& src, const Endpoint& dst);

  /// ICMP message (echo by default).
  PacketBuilder& icmp(const Endpoint& src, const Endpoint& dst,
                      std::uint8_t type = IcmpHeader::kEchoRequest,
                      std::uint8_t code = 0, std::uint32_t rest = 0);

  /// Attach explicit payload bytes. The builder keeps only the span and
  /// build() reads the bytes, so they must outlive build(): a temporary
  /// vector does when build() is called in the same expression.
  /// Replaces any earlier payload()/payload_size(): the last call wins.
  PacketBuilder& payload(std::span<const std::uint8_t> data);
  /// Attach `n` deterministic filler bytes (for size-accurate traffic):
  /// byte i is `0xA5 ^ (i & 0xFF)`. Records only the length; build()
  /// writes the bytes. Replaces any earlier payload(): the last call wins.
  PacketBuilder& payload_size(std::size_t n);

  PacketBuilder& ttl(std::uint8_t ttl_value) {
    ttl_ = ttl_value;
    return *this;
  }
  PacketBuilder& label(TrafficLabel l) {
    label_ = l;
    return *this;
  }
  /// Tag the frame with the scenario instance that generated it.
  PacketBuilder& scenario(std::uint32_t id) {
    scenario_id_ = id;
    return *this;
  }

  /// Largest payload one IPv4 datagram can carry behind an L4 header of
  /// `l4_header_bytes`: 65,535 - 20 - l4_header_bytes.
  static constexpr std::size_t max_payload(std::size_t l4_header_bytes) {
    return 0xFFFF - Ipv4Header::kMinSize - l4_header_bytes;
  }

  /// Assemble the frame: Ethernet + IPv4 (+TCP/UDP/ICMP) + payload, with
  /// all lengths and checksums correct. A payload longer than
  /// max_payload() of the L4 header is cut to it, so the 16-bit IPv4
  /// total length and UDP length never wrap. The frame is written once,
  /// straight into one pool buffer. Precondition: one of
  /// tcp()/udp()/icmp() was called.
  Packet build() const;

 private:
  enum class L4 { kNone, kTcp, kUdp, kIcmp };

  Timestamp ts_;
  Endpoint src_{};
  Endpoint dst_{};
  L4 l4_ = L4::kNone;
  std::uint8_t tcp_flags_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t ack_ = 0;
  std::uint8_t icmp_type_ = 0;
  std::uint8_t icmp_code_ = 0;
  std::uint32_t icmp_rest_ = 0;
  std::uint8_t ttl_ = Ipv4Header::kDefaultTtl;
  TrafficLabel label_ = TrafficLabel::kBenign;
  std::uint32_t scenario_id_ = 0;
  std::span<const std::uint8_t> payload_;  // payload() bytes, read at build()
  std::size_t filler_ = 0;                 // payload_size() filler length
};

/// Convenience: a UDP frame carrying a serialized DNS message.
Packet build_dns_packet(Timestamp ts, const Endpoint& src,
                        const Endpoint& dst, const DnsMessage& msg,
                        TrafficLabel label = TrafficLabel::kBenign);

}  // namespace campuslab::packet
