// Bounds-checked, endian-aware byte-stream primitives.
//
// All wire-format encoding and decoding in CampusLab goes through
// ByteReader / ByteWriter: network byte order (big-endian) accessors,
// explicit bounds checks, and no pointer arithmetic at call sites.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "campuslab/util/result.h"

namespace campuslab {

/// Sequential big-endian reader over a non-owning byte span.
/// Out-of-range reads set a sticky `truncated` flag and return zero
/// instead of touching out-of-bounds memory; callers check `ok()` once
/// after a parse rather than after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept {
    return truncated_ ? 0 : data_.size() - offset_;
  }
  bool ok() const noexcept { return !truncated_; }

  std::uint8_t u8() noexcept {
    if (!require(1)) return 0;
    return data_[offset_++];
  }

  std::uint16_t u16() noexcept {
    if (!require(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[offset_]) << 8) |
        data_[offset_ + 1]);
    offset_ += 2;
    return v;
  }

  std::uint32_t u32() noexcept {
    if (!require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[offset_ + i];
    offset_ += 4;
    return v;
  }

  std::uint64_t u64() noexcept {
    if (!require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[offset_ + i];
    offset_ += 8;
    return v;
  }

  /// View of the next `n` bytes without copying; empty span on underrun.
  std::span<const std::uint8_t> bytes(std::size_t n) noexcept {
    if (!require(n)) return {};
    auto view = data_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

  /// Skip `n` bytes.
  void skip(std::size_t n) noexcept {
    if (require(n)) offset_ += n;
  }

  /// Everything not yet consumed, without consuming it.
  std::span<const std::uint8_t> rest() const noexcept {
    if (truncated_) return {};
    return data_.subspan(offset_);
  }

 private:
  bool require(std::size_t n) noexcept {
    if (truncated_ || data_.size() - offset_ < n) {
      truncated_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool truncated_ = false;
};

/// Append-only big-endian writer into an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8)
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }

  void u64(std::uint64_t v) {
    for (int shift = 56; shift >= 0; shift -= 8)
      buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// Overwrite a previously written big-endian u16 at `offset` —
  /// used for length and checksum fields patched after the body is known.
  /// Precondition: offset + 2 <= size().
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  /// Empty the writer, keeping its capacity for the next message.
  void clear() noexcept { buf_.clear(); }

  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::uint8_t> view() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

}  // namespace campuslab
