// Packet: the timestamped frame that flows through the whole platform.
// PacketView: a zero-copy layered decoder over a frame's bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "campuslab/packet/addr.h"
#include "campuslab/packet/buffer.h"
#include "campuslab/packet/dns.h"
#include "campuslab/packet/headers.h"
#include "campuslab/packet/label.h"
#include "campuslab/util/time.h"

namespace campuslab::packet {

/// A timestamped frame handle. `label` is generation-time ground truth
/// (kBenign for anything not injected by an attack generator) and is
/// metadata: it is never serialized into the frame bytes, mirroring how
/// a labelled dataset annotates rather than alters its samples.
/// `scenario_id` extends the annotation with provenance: which scenario
/// phase instance generated the frame (0 = none, i.e. background
/// traffic), so evaluation can be broken down per scenario.
///
/// The frame bytes live in a refcounted pool buffer (see buffer.h), so
/// copying a Packet is a refcount bump — no allocation, no memcpy — and
/// the bytes stay at a stable address for every copy of the handle.
/// Mutation goes through the copy-on-write accessors (`resize`,
/// `mutable_bytes`), which clone the buffer first when it is shared, so
/// mutating one handle can never be observed through another.
class Packet {
 public:
  Timestamp ts;
  TrafficLabel label = TrafficLabel::kBenign;
  std::uint32_t scenario_id = 0;  // generating scenario instance; 0 = none

  Packet() noexcept = default;

  std::size_t size() const noexcept {
    return buf_ ? buf_->size() : 0;
  }
  std::span<const std::uint8_t> bytes() const noexcept {
    return buf_ ? std::span<const std::uint8_t>(buf_->data(), buf_->size())
                : std::span<const std::uint8_t>{};
  }
  /// Materialize an owned copy of the bytes (tests, golden comparisons).
  std::vector<std::uint8_t> copy_bytes() const {
    const auto b = bytes();
    return std::vector<std::uint8_t>(b.begin(), b.end());
  }

  /// Replace the frame contents (reuses the buffer when this handle is
  /// the sole owner and the bytes fit; acquires from the pool otherwise).
  void assign(std::span<const std::uint8_t> frame);
  /// Replace the frame with `n` bytes of `fill`.
  void assign(std::size_t n, std::uint8_t fill);
  /// Replace the frame with `n` uninitialized bytes and return them for
  /// the caller to fill (reuses the buffer like assign()). A writer that
  /// fills every byte pays no memset.
  std::span<std::uint8_t> assign_uninitialized(std::size_t n);
  /// Copy-on-write resize; grown bytes are zero-filled.
  void resize(std::size_t n);
  /// Copy-on-write mutable access to the frame bytes.
  std::span<std::uint8_t> mutable_bytes();
  /// Drop the frame (releases this handle's buffer reference).
  void clear_bytes() noexcept { buf_.reset(); }

  /// True when both handles alias the same pool buffer (diagnostics).
  bool shares_buffer_with(const Packet& other) const noexcept {
    return buf_ && buf_.get() == other.buf_.get();
  }
  const BufferRef& buffer() const noexcept { return buf_; }

 private:
  BufferRef buf_;
};

/// Layered decode of one frame. Construction parses L2-L4 eagerly (a
/// handful of bounded reads); `dns()` parses the application layer on
/// demand. The view does not own the bytes: it must not outlive them.
class PacketView {
 public:
  /// Empty, invalid view — placeholder until a real decode is assigned
  /// (ring slots and default-constructed DecodedPackets need this).
  PacketView() noexcept = default;
  explicit PacketView(std::span<const std::uint8_t> frame);
  explicit PacketView(const Packet& pkt) : PacketView(pkt.bytes()) {}

  /// False if the frame was too short or not IPv4/IPv6 — callers treat
  /// such frames as opaque (they still count toward byte totals).
  bool valid() const noexcept { return valid_; }

  std::size_t frame_size() const noexcept { return frame_.size(); }

  /// The raw frame bytes this view decodes.
  std::span<const std::uint8_t> frame() const noexcept { return frame_; }

  bool is_ipv4() const noexcept { return has_ipv4_; }
  bool is_ipv6() const noexcept { return has_ipv6_; }

  /// Preconditions: the corresponding has-layer accessor is true.
  const EthernetHeader& eth() const noexcept { return eth_; }
  const Ipv4Header& ipv4() const noexcept { return ipv4_; }
  const Ipv6Header& ipv6() const noexcept { return ipv6_; }

  bool is_tcp() const noexcept { return has_tcp_; }
  bool is_udp() const noexcept { return has_udp_; }
  bool is_icmp() const noexcept { return has_icmp_; }
  const TcpHeader& tcp() const noexcept { return tcp_; }
  const UdpHeader& udp() const noexcept { return udp_; }
  const IcmpHeader& icmp() const noexcept { return icmp_; }

  /// Transport payload (after L4 header). Empty if none.
  std::span<const std::uint8_t> payload() const noexcept { return payload_; }

  /// 5-tuple for IPv4 TCP/UDP (ports zero for other protocols);
  /// nullopt when there is no IPv4 layer.
  std::optional<FiveTuple> five_tuple() const noexcept;

  /// True when either UDP port is 53.
  bool is_dns() const noexcept;

  /// Parse the payload as DNS. Precondition: is_dns() (callable anyway;
  /// returns an error Result for non-DNS payloads).
  Result<DnsMessage> dns() const { return DnsMessage::parse(payload_); }

 private:
  std::span<const std::uint8_t> frame_;
  EthernetHeader eth_{};
  Ipv4Header ipv4_{};
  Ipv6Header ipv6_{};
  TcpHeader tcp_{};
  UdpHeader udp_{};
  IcmpHeader icmp_{};
  std::span<const std::uint8_t> payload_{};
  bool valid_ = false;
  bool has_ipv4_ = false;
  bool has_ipv6_ = false;
  bool has_tcp_ = false;
  bool has_udp_ = false;
  bool has_icmp_ = false;
};

}  // namespace campuslab::packet
