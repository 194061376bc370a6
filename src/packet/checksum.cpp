#include "campuslab/packet/checksum.h"

namespace campuslab::packet {

void ChecksumAccumulator::add(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (odd_ && n > 0) {
    // Complete the dangling high byte with this chunk's first byte.
    sum_ += *p++;
    --n;
    odd_ = false;
  }
  // Whole 32-bit big-endian words: (hi << 16) | lo is congruent to
  // hi + lo modulo 0xFFFF, so the folded sum equals the 16-bit one.
  // The 64-bit sum cannot overflow below 2^32 words.
  for (; n >= 4; p += 4, n -= 4) {
    sum_ += (static_cast<std::uint32_t>(p[0]) << 24) |
            (static_cast<std::uint32_t>(p[1]) << 16) |
            (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
  }
  if (n >= 2) {
    sum_ += (static_cast<std::uint32_t>(p[0]) << 8) | p[1];
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    sum_ += static_cast<std::uint32_t>(p[0]) << 8;
    odd_ = true;
  }
}

void ChecksumAccumulator::add_u16(std::uint16_t v) noexcept {
  // Only valid on even alignment; all internal uses satisfy this.
  sum_ += v;
}

void ChecksumAccumulator::add_u32(std::uint32_t v) noexcept {
  sum_ += v >> 16;
  sum_ += v & 0xFFFF;
}

std::uint16_t ChecksumAccumulator::finish() const noexcept {
  std::uint64_t s = sum_;
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.finish();
}

ChecksumAccumulator pseudo_header_sum(Ipv4Address src, Ipv4Address dst,
                                      IpProto proto,
                                      std::size_t segment_length) noexcept {
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(static_cast<std::uint16_t>(proto));
  acc.add_u16(static_cast<std::uint16_t>(segment_length));
  return acc;
}

std::uint16_t transport_checksum(
    Ipv4Address src, Ipv4Address dst, IpProto proto,
    std::span<const std::uint8_t> segment) noexcept {
  auto acc = pseudo_header_sum(src, dst, proto, segment.size());
  acc.add(segment);
  return acc.finish();
}

}  // namespace campuslab::packet
