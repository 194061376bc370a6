#include "campuslab/ml/column_sort.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

namespace campuslab::ml {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving image of a double: images compare as unsigned
/// integers the way the values compare with `<`, and -0.0 maps to
/// +0.0's image (adding +0.0 turns -0.0 into +0.0 and leaves every other
/// value's bits alone). Negative values flip every bit, so a larger
/// magnitude sorts first; the rest flip only the sign bit.
std::uint64_t radix_key(double v) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(v + 0.0);
  return bits ^ ((std::uint64_t{0} - (bits >> 63)) | kSignBit);
}

unsigned digit(double v, unsigned shift) noexcept {
  return static_cast<unsigned>(radix_key(v) >> shift) & 0xFFu;
}

}  // namespace

ColumnSorter::ColumnSorter(std::size_t max_rows)
    : entries_(max_rows), scratch_(max_rows) {}

std::span<const ColumnSorter::Entry> ColumnSorter::sort(
    const Dataset& data, std::span<const std::size_t> rows,
    std::size_t feature) {
  const std::size_t n = rows.size();
  assert(n <= entries_.size() && n <= UINT32_MAX);
  if (n == 0) return {};

  // Gather the column and count every byte of every key in one pass.
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  Entry* src = entries_.data();
  Entry* dst = scratch_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t row = rows[k];
    const double v = data.row(row)[feature];
    src[k] = {v, row};
    const std::uint64_t key = radix_key(v);
    for (unsigned b = 0; b < 8; ++b) ++counts[b][(key >> (8 * b)) & 0xFFu];
  }

  // One stable counting pass per byte, least significant first. A byte
  // whose digit every key shares would move nothing, so it is skipped.
  for (unsigned b = 0; b < 8; ++b) {
    const unsigned shift = 8 * b;
    auto& offset = counts[b];
    if (offset[digit(src[0].first, shift)] == n) continue;
    std::uint32_t sum = 0;
    for (auto& c : offset) sum += std::exchange(c, sum);
    for (std::size_t k = 0; k < n; ++k)
      dst[offset[digit(src[k].first, shift)]++] = src[k];
    std::swap(src, dst);
  }
  return {src, n};
}

}  // namespace campuslab::ml
