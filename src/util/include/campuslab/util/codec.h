// Shared variable-length codecs.
//
// LEB128 varints, zigzag signed mapping, a sticky-failure varint
// decoder and the varint-length string codec — the primitives all three
// framed formats use: CLSEG02 segment files, the CLRP01 shard wire and
// the CLMRG01 model registry. One implementation means one set of
// totality guarantees: a varint is rejected when it runs past 10 bytes
// or its 10th byte holds more than bit 63, every read is bounds-checked
// through ByteReader, and failure is sticky so callers validate once
// per message instead of once per field. Non-minimal varints are
// accepted: {0x80, 0x00} and a ten-byte zero both decode to 0, so a
// decoded value need not re-encode to the bytes it came from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "campuslab/util/bytes.h"

namespace campuslab::util {

/// Append `v` as an LEB128 varint (1..10 bytes).
inline void put_varint(ByteWriter& w, std::uint64_t v) {
  while (v >= 0x80) {
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(v));
}

/// Zigzag map: deltas between unordered values wrap through unsigned
/// space and back, so every i64 pair round-trips exactly — the encoder
/// is total.
inline constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Sticky-failure varint decoder: every read is bounds-checked, a
/// malformed (truncated / overlong / continuation-past-64-bit) varint
/// poisons the decoder, and callers check once per column or message
/// group rather than per field.
struct VarintDecoder {
  ByteReader r;
  bool failed = false;

  explicit VarintDecoder(std::span<const std::uint8_t> data) : r(data) {}

  std::uint64_t varint() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = r.u8();
      if (!r.ok()) break;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        // The 10th byte holds only bit 63; anything more is overlong.
        if (shift == 63 && (b & 0x7E) != 0) break;
        return v;
      }
      if (shift == 63) break;  // continuation past 64 bits
    }
    failed = true;
    return 0;
  }

  /// varint constrained to [0, bound]; poisons the decoder past it.
  std::uint64_t varint_at_most(std::uint64_t bound) noexcept {
    const std::uint64_t v = varint();
    if (v > bound) failed = true;
    return failed ? 0 : v;
  }
};

/// Append `s` as its varint byte count, then its bytes.
inline void put_string(ByteWriter& w, std::string_view s) {
  put_varint(w, s.size());
  w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

/// Read a put_string() string of at most `max_len` bytes. A longer,
/// malformed or truncated one poisons the decoder and reads as empty.
inline std::string get_string(VarintDecoder& d,
                              std::uint64_t max_len = ~std::uint64_t{0}) {
  const std::uint64_t len = d.varint_at_most(max_len);
  const auto bytes = d.r.bytes(static_cast<std::size_t>(len));
  if (d.failed || !d.r.ok()) {
    d.failed = true;
    return {};
  }
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace campuslab::util
