// RFC 1071 Internet checksum and the TCP/UDP pseudo-header variants.
#pragma once

#include <cstdint>
#include <span>

#include "campuslab/packet/addr.h"

namespace campuslab::packet {

/// One's-complement sum accumulator; feed byte ranges, then finalize.
class ChecksumAccumulator {
 public:
  void add(std::span<const std::uint8_t> data) noexcept;
  void add_u16(std::uint16_t v) noexcept;
  void add_u32(std::uint32_t v) noexcept;

  /// Final folded, inverted checksum in host order.
  std::uint16_t finish() const noexcept;

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // dangling byte from a previous odd-length chunk
};

/// Plain Internet checksum over a buffer (IPv4 header checksum).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

/// An accumulator primed with the TCP/UDP IPv4 pseudo-header of a
/// `segment_length`-byte segment; add the segment's bytes, then finish().
ChecksumAccumulator pseudo_header_sum(Ipv4Address src, Ipv4Address dst,
                                      IpProto proto,
                                      std::size_t segment_length) noexcept;

/// TCP/UDP checksum including the IPv4 pseudo-header.
/// `segment` covers the transport header + payload with its checksum
/// field zeroed.
std::uint16_t transport_checksum(Ipv4Address src, Ipv4Address dst,
                                 IpProto proto,
                                 std::span<const std::uint8_t> segment) noexcept;

}  // namespace campuslab::packet
