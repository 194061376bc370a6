// ShardedFlowIngester::take() edge cases: empty inputs, single-shard
// identity, duplicate 5-tuples across shards, and the
// flow_export_before tie-break chain the deterministic merge rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "campuslab/capture/flow.h"
#include "campuslab/store/sharded_ingest.h"

namespace campuslab {
namespace {

using capture::FlowRecord;
using capture::flow_export_before;
using packet::FiveTuple;
using packet::Ipv4Address;

FiveTuple tuple(std::uint8_t src_octet, std::uint16_t src_port) {
  return FiveTuple{Ipv4Address(10, 0, 0, src_octet),
                   Ipv4Address(192, 168, 1, 1), src_port, 53, 17};
}

FlowRecord record(std::int64_t first_ns, std::int64_t last_ns,
                  const FiveTuple& t, std::uint64_t packets = 1) {
  FlowRecord r;
  r.tuple = t;
  r.first_ts = Timestamp::from_nanos(first_ns);
  r.last_ts = Timestamp::from_nanos(last_ns);
  r.packets = packets;
  return r;
}

/// Feed shard s's records to ingest(s, ·) in order, then take() the
/// canonical export.
std::vector<FlowRecord> ingest_and_take(
    const std::vector<std::vector<FlowRecord>>& per_shard) {
  store::ShardedFlowIngester ingester(per_shard.size());
  for (std::size_t s = 0; s < per_shard.size(); ++s)
    for (const auto& r : per_shard[s]) ingester.ingest(s, r);
  return ingester.take();
}

bool sorted_by_export_order(const std::vector<FlowRecord>& v) {
  return std::is_sorted(v.begin(), v.end(), flow_export_before);
}

TEST(FlowExportBefore, OrdersByFirstTimestampFirst) {
  const auto early = record(100, 900, tuple(2, 2000));
  const auto late = record(200, 300, tuple(1, 1000));
  // first_ts dominates even though `late` ends earlier and has the
  // smaller tuple.
  EXPECT_TRUE(flow_export_before(early, late));
  EXPECT_FALSE(flow_export_before(late, early));
}

TEST(FlowExportBefore, BreaksFirstTsTiesOnLastTs) {
  const auto short_flow = record(100, 200, tuple(2, 2000));
  const auto long_flow = record(100, 500, tuple(1, 1000));
  EXPECT_TRUE(flow_export_before(short_flow, long_flow));
  EXPECT_FALSE(flow_export_before(long_flow, short_flow));
}

TEST(FlowExportBefore, BreaksTimestampTiesOnTuple) {
  const auto a = record(100, 200, tuple(1, 1000));
  const auto b = record(100, 200, tuple(1, 2000));
  ASSERT_TRUE(a.tuple < b.tuple);
  EXPECT_TRUE(flow_export_before(a, b));
  EXPECT_FALSE(flow_export_before(b, a));
}

TEST(FlowExportBefore, IsIrreflexiveOnFullTies) {
  // Identical sort keys: neither precedes the other (strict weak
  // ordering requirement for std::stable_sort).
  const auto a = record(100, 200, tuple(1, 1000));
  const auto b = record(100, 200, tuple(1, 1000));
  EXPECT_FALSE(flow_export_before(a, b));
  EXPECT_FALSE(flow_export_before(b, a));
}

TEST(MergeFlowExports, NoShardsYieldsEmpty) {
  EXPECT_TRUE(ingest_and_take({}).empty());
}

TEST(MergeFlowExports, AllEmptyShardsYieldEmpty) {
  std::vector<std::vector<FlowRecord>> per_shard(4);
  EXPECT_TRUE(ingest_and_take(per_shard).empty());
}

TEST(MergeFlowExports, EmptyShardsAmongPopulatedOnesAreHarmless) {
  std::vector<std::vector<FlowRecord>> per_shard(3);
  per_shard[1].push_back(record(200, 300, tuple(1, 1000)));
  per_shard[1].push_back(record(100, 150, tuple(2, 2000)));
  const auto merged = ingest_and_take(per_shard);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_TRUE(sorted_by_export_order(merged));
  EXPECT_EQ(merged[0].first_ts, Timestamp::from_nanos(100));
}

TEST(MergeFlowExports, SingleShardIsSortedNotJustCopied) {
  // One shard whose eviction order (idle sweeps, capacity evictions)
  // disagrees with the canonical order: merge must still sort.
  std::vector<std::vector<FlowRecord>> per_shard(1);
  per_shard[0].push_back(record(300, 400, tuple(3, 3000), 30));
  per_shard[0].push_back(record(100, 200, tuple(1, 1000), 10));
  per_shard[0].push_back(record(200, 250, tuple(2, 2000), 20));
  const auto merged = ingest_and_take(per_shard);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_TRUE(sorted_by_export_order(merged));
  EXPECT_EQ(merged[0].packets, 10u);
  EXPECT_EQ(merged[1].packets, 20u);
  EXPECT_EQ(merged[2].packets, 30u);
}

TEST(MergeFlowExports, AlreadySortedSingleShardIsIdentity) {
  std::vector<std::vector<FlowRecord>> per_shard(1);
  per_shard[0].push_back(record(100, 200, tuple(1, 1000), 10));
  per_shard[0].push_back(record(150, 260, tuple(2, 2000), 20));
  per_shard[0].push_back(record(300, 400, tuple(3, 3000), 30));
  const auto merged = ingest_and_take(per_shard);
  ASSERT_EQ(merged.size(), 3u);
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(merged[i].packets, (i + 1) * 10) << i;
}

TEST(MergeFlowExports, InterleavesAcrossShardsDeterministically) {
  std::vector<std::vector<FlowRecord>> per_shard(2);
  per_shard[0].push_back(record(100, 200, tuple(1, 1000), 1));
  per_shard[0].push_back(record(300, 400, tuple(1, 1001), 3));
  per_shard[1].push_back(record(200, 300, tuple(2, 2000), 2));
  per_shard[1].push_back(record(400, 500, tuple(2, 2001), 4));
  const auto merged = ingest_and_take(per_shard);
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(merged[i].packets, i + 1) << i;
}

TEST(MergeFlowExports, DuplicateTuplesAcrossShardsAreBothKept) {
  // The same 5-tuple can legitimately export twice (idle timeout then
  // re-use); nothing may dedup or drop on tuple equality. Records keep
  // their identities and order by time.
  const auto t = tuple(1, 1000);
  std::vector<std::vector<FlowRecord>> per_shard(2);
  per_shard[0].push_back(record(500, 600, t, 5));
  per_shard[1].push_back(record(100, 200, t, 1));
  const auto merged = ingest_and_take(per_shard);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].packets, 1u);
  EXPECT_EQ(merged[1].packets, 5u);
}

TEST(MergeFlowExports, FullTiesKeepShardIndexOrder) {
  // Records identical in every sort key: stable_sort pins the result to
  // shard index order, making the merge a pure function of the
  // per-shard streams — not of which shard happened to flush first.
  const auto t = tuple(1, 1000);
  std::vector<std::vector<FlowRecord>> per_shard(3);
  per_shard[0].push_back(record(100, 200, t, 10));
  per_shard[1].push_back(record(100, 200, t, 11));
  per_shard[2].push_back(record(100, 200, t, 12));
  const auto merged = ingest_and_take(per_shard);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].packets, 10u);
  EXPECT_EQ(merged[1].packets, 11u);
  EXPECT_EQ(merged[2].packets, 12u);
}

}  // namespace
}  // namespace campuslab
