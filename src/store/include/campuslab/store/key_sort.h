// The store's one sort of (key, slot) pairs.
//
// Segment::seal() sorts (key << 32 | row) pairs to build its host and
// port indexes, and encode_segment sorts (host << 32 | 2·row + side)
// pairs to build a segment file's host dictionary. Both want the keys
// ascending with equal keys left in slot order, so both call this.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace campuslab::store {

/// Sort (key << 32 | slot) pairs, key a `Key`, by key: a stable LSD
/// radix sort on the key's bytes. One pass over the pairs counts every
/// byte; a byte that is the same in every pair moves nothing, so its
/// pass is skipped. The scratch array is released before returning.
template <typename Key>
void sort_by_key(std::vector<std::uint64_t>& pairs) {
  constexpr unsigned kBytes = sizeof(Key);
  static_assert(kBytes <= 4, "the key lives in the pair's upper 32 bits");
  std::array<std::array<std::size_t, 256>, kBytes> counts{};
  for (const std::uint64_t pair : pairs)
    for (unsigned b = 0; b < kBytes; ++b)
      ++counts[b][(pair >> (32 + 8 * b)) & 0xFF];
  std::vector<std::uint64_t> sorted;
  for (unsigned b = 0; b < kBytes; ++b) {
    auto& next = counts[b];
    if (std::find(next.begin(), next.end(), pairs.size()) != next.end())
      continue;
    std::size_t at = 0;
    for (std::size_t& count : next) at += std::exchange(count, at);
    sorted.resize(pairs.size());
    const unsigned shift = 32 + 8 * b;
    for (const std::uint64_t pair : pairs)
      sorted[next[(pair >> shift) & 0xFF]++] = pair;
    pairs.swap(sorted);
  }
}

}  // namespace campuslab::store
