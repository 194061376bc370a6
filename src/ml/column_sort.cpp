#include "campuslab/ml/column_sort.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>

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

FeatureRanks::FeatureRanks(const Dataset& data)
    : n_rows_(data.n_rows()),
      ranks_(data.n_features() * data.n_rows()),
      key_bytes_(data.n_features(), 0) {
  assert(n_rows_ <= UINT32_MAX);
  if (n_rows_ == 0) return;
  std::vector<std::size_t> rows(n_rows_);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  ColumnSorter sorter(n_rows_);
  for (std::size_t f = 0; f < data.n_features(); ++f) {
    const auto sorted = sorter.sort(data, rows, f);
    std::uint32_t* column = ranks_.data() + f * n_rows_;
    std::uint32_t rank = 0;
    column[sorted[0].second] = 0;
    for (std::size_t k = 1; k < n_rows_; ++k) {
      if (sorted[k].first != sorted[k - 1].first) ++rank;
      column[sorted[k].second] = rank;
    }
    key_bytes_[f] = (static_cast<unsigned>(std::bit_width(rank)) + 7) / 8;
  }
}

RankSorter::RankSorter(std::size_t max_positions)
    : entries_(max_positions), scratch_(max_positions) {}

std::span<const RankSorter::Entry> RankSorter::sort(
    const FeatureRanks& ranks, std::size_t feature,
    std::span<const std::uint32_t> rows,
    std::span<const std::uint32_t> positions) {
  const std::size_t n = positions.size();
  assert(n <= entries_.size());
  if (n == 0) return {};
  const std::uint32_t* column = ranks.column(feature).data();
  const unsigned bytes = ranks.key_bytes(feature);

  // Gather the ranks and count every byte a rank can occupy in one pass.
  std::array<std::array<std::uint32_t, 256>, 4> counts{};
  Entry* src = entries_.data();
  Entry* dst = scratch_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t position = positions[k];
    const std::uint32_t rank = column[rows[position]];
    src[k] = {rank, position};
    for (unsigned b = 0; b < bytes; ++b)
      ++counts[b][(rank >> (8 * b)) & 0xFFu];
  }

  // One stable counting pass per byte, least significant first. A byte
  // whose digit every rank shares would move nothing, so it is skipped.
  for (unsigned b = 0; b < bytes; ++b) {
    const unsigned shift = 8 * b;
    auto& offset = counts[b];
    if (offset[(src[0].rank >> shift) & 0xFFu] == n) continue;
    std::uint32_t sum = 0;
    for (auto& c : offset) sum += std::exchange(c, sum);
    for (std::size_t k = 0; k < n; ++k)
      dst[offset[(src[k].rank >> shift) & 0xFFu]++] = src[k];
    std::swap(src, dst);
  }
  return {src, n};
}

}  // namespace campuslab::ml
