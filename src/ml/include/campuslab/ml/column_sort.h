// ColumnSorter — the split-search sort shared by CART and boosting.
//
// Both learners search a node's split the same way: order the node's
// rows by one feature's value, then sweep the boundaries between
// distinct values. This kernel produces that order with a stable LSD
// radix sort on an order-preserving 64-bit image of each value: -0.0
// shares +0.0's image, and a byte that every key of the node shares
// costs no pass. The node's row list is ascending, so a stable sort
// leaves equal values in row order — exactly the (value, row) order
// std::sort gives the same pairs. The sweep that follows therefore
// performs the same floating-point operations in the same order, and
// the fitted trees are byte-identical to a comparison sort's.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "campuslab/ml/dataset.h"

namespace campuslab::ml {

class ColumnSorter {
 public:
  /// One sorted entry: a feature value and the row it came from.
  using Entry = std::pair<double, std::size_t>;

  /// Scratch for nodes of up to `max_rows` rows, sized once per fit and
  /// reused by every node.
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

}  // namespace campuslab::ml
