// Aggregation layer over the query engine: count / sum-bytes group-by
// and top-K heavy hitters, computed per segment (in parallel when a
// pool is supplied) and merged deterministically.
//
// Grouping semantics mirror the inverted indexes, which are built from
// the same key rule (for_each_group_key): kHost and kPort credit a flow
// to *both* endpoints (a flow between A and B counts toward A's row and
// B's row — "top talkers" in the operational sense), deduplicated when
// the two sides coincide; kLabel groups by the flow's majority label.
// Rows are ordered by bytes descending, key ascending on ties, so the
// first K rows ARE the top-K heavy hitters and the ordering is
// reproducible across runs, thread counts and cluster sizes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "campuslab/store/query_result.h"

namespace campuslab::store {

enum class GroupBy : std::uint8_t { kHost, kPort, kLabel };

std::string_view to_string(GroupBy by) noexcept;

struct AggregateRow {
  std::uint64_t key = 0;  // host address value / port / label index
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  // Typed views of `key` for the grouping that produced the row.
  packet::Ipv4Address host() const noexcept {
    return packet::Ipv4Address(static_cast<std::uint32_t>(key));
  }
  std::uint16_t port() const noexcept {
    return static_cast<std::uint16_t>(key);
  }
  packet::TrafficLabel label() const noexcept {
    return static_cast<packet::TrafficLabel>(key);
  }
};

struct AggregateResult {
  GroupBy group_by = GroupBy::kHost;
  /// Bytes descending, key ascending on ties; truncated to top_k when
  /// a top_k was requested.
  std::vector<AggregateRow> rows;
  /// Flows that matched the filter (each counted once, even when it
  /// credited two endpoint rows).
  std::uint64_t matched_flows = 0;
  QueryStats stats;
};

/// The key rule: calls credit(key) once for each group `f` belongs to.
/// kHost: its src host, and its dst host when that differs; kPort: its
/// src port, and its dst port when that differs; kLabel: its majority
/// label. Segment::seal lists rows in the inverted indexes by it.
template <typename Credit>
void for_each_group_key(GroupBy by, const capture::FlowRecord& f,
                        Credit&& credit) {
  switch (by) {
    case GroupBy::kHost:
      credit(std::uint64_t{f.tuple.src.value()});
      if (f.tuple.dst != f.tuple.src)
        credit(std::uint64_t{f.tuple.dst.value()});
      return;
    case GroupBy::kPort:
      credit(std::uint64_t{f.tuple.src_port});
      if (f.tuple.dst_port != f.tuple.src_port)
        credit(std::uint64_t{f.tuple.dst_port});
      return;
    case GroupBy::kLabel:
      credit(static_cast<std::uint64_t>(f.majority_label()));
      return;
  }
}

/// Partial group totals, keyed by AggregateRow::key.
using AggregateGroups = std::unordered_map<std::uint64_t, AggregateRow>;

/// Add `row`'s counts to its key's group.
inline void fold_row(AggregateGroups& groups, const AggregateRow& row) {
  AggregateRow& into = groups[row.key];
  into.key = row.key;
  into.flows += row.flows;
  into.packets += row.packets;
  into.bytes += row.bytes;
}

/// Credit one matching flow to each of its groups.
inline void fold_flow(AggregateGroups& groups, GroupBy by,
                      const capture::FlowRecord& f) {
  for_each_group_key(by, f, [&](std::uint64_t key) {
    fold_row(groups, AggregateRow{key, 1, f.packets, f.bytes});
  });
}

/// The groups as result rows in the row order (bytes descending, key
/// ascending), cut to the first top_k when 0 < top_k.
std::vector<AggregateRow> ranked_rows(const AggregateGroups& groups,
                                      std::size_t top_k);

}  // namespace campuslab::store
