// The split-search sorts shared by CART, the random forest and boosting.
//
// Every learner searches a node's split the same way: order the node's
// rows by one feature's value, then sweep the boundaries between
// distinct values. The value order is computed once per fit: ColumnSorter
// orders each feature's column exactly, and FeatureRanks turns that order
// into small dense integer ranks. A node then orders its positions by
// rank with RankSorter, a stable LSD radix sort of 8-byte entries that
// needs one pass per byte of the feature's largest rank (two for up to
// 65,536 distinct values).
//
// Ranks order rows exactly as `<` orders their values: equal values, and
// -0.0 beside +0.0, share a rank. A node's positions are ascending, so a
// stable sort leaves equal ranks in position order — the (value, row)
// order std::sort gives the same pairs. The sweep that follows therefore
// performs the same floating-point operations in the same order, and the
// fitted trees are byte-identical to a comparison sort's. NaN is outside
// the contract, as it is for std::sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "campuslab/ml/dataset.h"

namespace campuslab::ml {

/// Exact sort of one feature's column: the per-fit ranking sort.
class ColumnSorter {
 public:
  /// One sorted entry: a feature value and the row it came from.
  using Entry = std::pair<double, std::size_t>;

  /// Scratch for up to `max_rows` rows, reusable across calls.
  explicit ColumnSorter(std::size_t max_rows);

  /// Feature `feature` of `data` over `rows` as (value, row) entries in
  /// std::sort's order of those pairs. Values keep their exact bits.
  /// Preconditions: `rows` is strictly ascending and holds at most
  /// max_rows rows; no value is NaN. The span stays valid until the
  /// next call.
  std::span<const Entry> sort(const Dataset& data,
                              std::span<const std::size_t> rows,
                              std::size_t feature);

 private:
  std::vector<Entry> entries_;
  std::vector<Entry> scratch_;
};

/// Dense rank of every row's value, per feature: the smallest value has
/// rank 0, and equal values (with -0.0 equal to +0.0) share a rank.
/// Computed once per fit; a forest shares one table across its trees.
class FeatureRanks {
 public:
  /// Precondition: data.n_rows() < 2^32; no value is NaN.
  explicit FeatureRanks(const Dataset& data);

  /// Rank of each row's value of `feature`, indexed by row.
  std::span<const std::uint32_t> column(std::size_t feature) const noexcept {
    return std::span(ranks_).subspan(feature * n_rows_, n_rows_);
  }
  /// Bytes a rank of `feature` can occupy; every higher byte is zero.
  unsigned key_bytes(std::size_t feature) const noexcept {
    return key_bytes_[feature];
  }

 private:
  std::size_t n_rows_;
  std::vector<std::uint32_t> ranks_;  // feature-major
  std::vector<unsigned> key_bytes_;
};

/// The node sort: orders a node's positions by the rank of the row each
/// one stands for. A fit runs over positions that map to dataset rows
/// (the identity for a plain fit, a bootstrap draw for a forest tree).
class RankSorter {
 public:
  /// One sorted entry: a rank and the position it came from.
  struct Entry {
    std::uint32_t rank;
    std::uint32_t position;
  };

  /// Scratch for nodes of up to `max_positions` positions, sized once
  /// per fit and reused by every node.
  explicit RankSorter(std::size_t max_positions);

  /// `positions` as (rank, position) entries in ascending order of that
  /// pair, where position p has rank ranks.column(feature)[rows[p]].
  /// Preconditions: `positions` is strictly ascending, holds at most
  /// max_positions entries, and indexes `rows`. The span stays valid
  /// until the next call.
  std::span<const Entry> sort(const FeatureRanks& ranks, std::size_t feature,
                              std::span<const std::uint32_t> rows,
                              std::span<const std::uint32_t> positions);

 private:
  std::vector<Entry> entries_;
  std::vector<Entry> scratch_;
};

}  // namespace campuslab::ml
