// Distributed store tests: consistent-hash placement, the StoreShard
// chunk protocol, and the headline property — an N-node cluster's
// queries, aggregates and cursor sequences are bit-identical to a
// single DataStore fed the same flows in the same canonical order,
// hot or cold tiers, healthy or with a node down.
//
// ClusterConcurrency.* run under TSAN in CI (router ingest racing
// scatter-gather readers).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>
#include <vector>

#include "campuslab/resilience/fault.h"
#include "campuslab/resilience/health.h"
#include "campuslab/store/cluster.h"
#include "campuslab/store/query_engine.h"
#include "campuslab/store/shard.h"
#include "campuslab/store/sharded_ingest.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using packet::TrafficLabel;

FlowRecord random_flow(Rng& rng) {
  FlowRecord f;
  const Ipv4Address src(
      static_cast<std::uint32_t>(0x0A010000 + rng.below(64)));
  const Ipv4Address dst(
      static_cast<std::uint32_t>(0x97650000 + rng.below(256)));
  static constexpr std::uint16_t kPorts[] = {53, 80, 443, 22, 25, 8080};
  f.tuple = packet::FiveTuple{
      src, dst, static_cast<std::uint16_t>(1024 + rng.below(60000)),
      kPorts[rng.below(6)],
      static_cast<std::uint8_t>(rng.chance(0.7) ? 6 : 17)};
  f.first_ts = Timestamp::from_seconds(rng.uniform(0, 600));
  f.last_ts = f.first_ts + Duration::from_seconds(rng.uniform(0.001, 30));
  f.packets = 1 + rng.below(1000);
  f.bytes = f.packets * (64 + rng.below(1400));
  const auto label =
      rng.chance(0.9) ? TrafficLabel::kBenign
                      : static_cast<TrafficLabel>(1 + rng.below(4));
  f.label_packets[static_cast<std::size_t>(label)] = f.packets;
  // Coincident endpoints take the key rule's one-key branch, which
  // Cluster::aggregate runs itself on a degraded scope's gathered rows.
  if (rng.chance(0.05)) f.tuple.dst = f.tuple.src;
  if (rng.chance(0.05)) f.tuple.src_port = f.tuple.dst_port;
  return f;
}

/// Flows in the canonical order every merge path feeds stores in.
std::vector<FlowRecord> canonical_flows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowRecord> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) flows.push_back(random_flow(rng));
  std::stable_sort(flows.begin(), flows.end(), capture::flow_export_before);
  return flows;
}

bool same_flow(const FlowRecord& a, const FlowRecord& b) {
  return a.tuple.src == b.tuple.src && a.tuple.dst == b.tuple.dst &&
         a.tuple.src_port == b.tuple.src_port &&
         a.tuple.dst_port == b.tuple.dst_port &&
         a.tuple.proto == b.tuple.proto && a.first_ts == b.first_ts &&
         a.last_ts == b.last_ts && a.packets == b.packets &&
         a.bytes == b.bytes &&
         a.majority_label() == b.majority_label();
}

void expect_rows_equal(const QueryResult& single,
                       const ClusterQueryResult& cluster,
                       const char* what) {
  ASSERT_EQ(single.size(), cluster.size()) << what;
  for (std::size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(single[i].id, cluster[i].id) << what << " row " << i;
    ASSERT_TRUE(same_flow(single[i].flow, cluster[i].flow))
        << what << " row " << i;
  }
}

void expect_aggregates_equal(const AggregateResult& a,
                             const AggregateResult& b, const char* what) {
  ASSERT_EQ(a.matched_flows, b.matched_flows) << what;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].key, b.rows[i].key) << what << " row " << i;
    ASSERT_EQ(a.rows[i].flows, b.rows[i].flows) << what << " row " << i;
    ASSERT_EQ(a.rows[i].packets, b.rows[i].packets) << what << " row " << i;
    ASSERT_EQ(a.rows[i].bytes, b.rows[i].bytes) << what << " row " << i;
  }
}

/// The full bit-identical battery: rows, filtered queries, aggregates,
/// cursor sequence, catalog totals.
void expect_bit_identical(const DataStore& single, const Cluster& cluster) {
  expect_rows_equal(single.query(FlowQuery{}), cluster.query(FlowQuery{}),
                    "full scan");

  FlowQuery by_host;
  by_host.about_host(Ipv4Address(static_cast<std::uint32_t>(0x0A010007)));
  expect_rows_equal(single.query(by_host), cluster.query(by_host),
                    "host query");

  FlowQuery by_port;
  by_port.on_port(443);
  expect_rows_equal(single.query(by_port), cluster.query(by_port),
                    "port query");

  FlowQuery by_label;
  by_label.with_label(TrafficLabel::kBenign);
  expect_rows_equal(single.query(by_label), cluster.query(by_label),
                    "label query");

  FlowQuery window;
  window.between(Timestamp::from_seconds(100), Timestamp::from_seconds(200));
  expect_rows_equal(single.query(window), cluster.query(window),
                    "time window");

  FlowQuery limited;
  limited.on_port(80).top(57);
  expect_rows_equal(single.query(limited), cluster.query(limited),
                    "limited query");

  for (const GroupBy by : {GroupBy::kHost, GroupBy::kPort, GroupBy::kLabel}) {
    expect_aggregates_equal(single.aggregate(FlowQuery{}, by, 0),
                            cluster.aggregate(FlowQuery{}, by, 0),
                            "aggregate full");
    expect_aggregates_equal(single.aggregate(by_port, by, 5),
                            cluster.aggregate(by_port, by, 5),
                            "aggregate top-5 filtered");
  }

  // Cursor sequences step identically, including under a limit.
  FlowQuery cq;
  cq.top(123);
  auto single_cur = single.open_cursor(cq);
  auto cluster_cur = cluster.open_cursor(cq);
  while (true) {
    const bool s = single_cur.next();
    const bool c = cluster_cur.next();
    ASSERT_EQ(s, c) << "cursor exhaustion";
    if (!s) break;
    ASSERT_EQ(single_cur.current().id, cluster_cur.current().id);
    ASSERT_TRUE(
        same_flow(single_cur.current().flow, cluster_cur.current().flow));
  }
  ASSERT_EQ(single_cur.produced(), cluster_cur.produced());

  const CatalogInfo sc = single.catalog();
  const CatalogInfo cc = cluster.catalog();
  EXPECT_EQ(sc.total_flows, cc.total_flows);
  EXPECT_EQ(sc.total_packets, cc.total_packets);
  EXPECT_EQ(sc.total_bytes, cc.total_bytes);
  EXPECT_EQ(sc.flows_per_label, cc.flows_per_label);
  EXPECT_EQ(single.size(), cluster.size());
}

// ------------------------------------------------------------ HashRing

TEST(HashRing, BothDirectionsColocate) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto f = random_flow(rng);
    const packet::FiveTuple fwd = f.tuple;
    const packet::FiveTuple rev{fwd.dst, fwd.src, fwd.dst_port,
                                fwd.src_port, fwd.proto};
    EXPECT_EQ(HashRing::key_of(fwd), HashRing::key_of(rev));
  }
}

TEST(HashRing, OwnersAreDistinctAndDeterministic) {
  const HashRing a(4, 64, 0xC1A55);
  const HashRing b(4, 64, 0xC1A55);
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = rng.next();
    NodeId oa[2], ob[2];
    a.owners_for_key(key, std::span<NodeId>(oa));
    b.owners_for_key(key, std::span<NodeId>(ob));
    EXPECT_EQ(oa[0], ob[0]);
    EXPECT_EQ(oa[1], ob[1]);
    EXPECT_NE(oa[0], oa[1]);
    EXPECT_EQ(a.primary_for_key(key), oa[0]);
  }
}

TEST(HashRing, VirtualNodesBalanceTheKeyspace) {
  const HashRing ring(4, 64, 0xC1A55);
  std::array<std::size_t, 4> owned{};
  Rng rng(9);
  for (int i = 0; i < 20'000; ++i)
    ++owned[ring.primary_for_key(rng.next())];
  for (const std::size_t count : owned) {
    // Fair share is 25%; 64 vnodes should keep every node within
    // loose bounds of it.
    EXPECT_GT(count, 20'000u * 10 / 100);
    EXPECT_LT(count, 20'000u * 45 / 100);
  }
}

TEST(HashRing, SingleNodeOwnsEverything) {
  const HashRing ring(1, 16, 1);
  Rng rng(10);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(ring.primary_for_key(rng.next()), 0u);
}

// ----------------------------------------------------------- LocalShard

TEST(LocalShard, ChunkedPullsEqualFullQuery) {
  DataStoreConfig cfg;
  cfg.segment_flows = 100;
  LocalShard shard(cfg);
  const auto flows = canonical_flows(1000, 21);
  ShardIngestBatch batch;
  for (const auto& f : flows) batch.rows.push_back(StoredFlow{0, f});
  const auto ack = shard.ingest(batch);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack.value().applied, flows.size());

  FlowQuery q;
  q.on_port(443);
  const auto full = shard.store().query(q);

  std::vector<StoredFlow> streamed;
  ShardQueryPlan plan;
  plan.query = q;
  plan.query.limit = std::numeric_limits<std::size_t>::max();
  plan.max_rows = 7;
  while (true) {
    auto reply = shard.query(plan);
    ASSERT_TRUE(reply.ok());
    for (auto& row : reply.value().rows) streamed.push_back(std::move(row));
    if (reply.value().exhausted) break;
    ASSERT_FALSE(reply.value().rows.empty()) << "no progress";
    plan.after_id = streamed.back().id;
  }
  ASSERT_EQ(streamed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(streamed[i].id, full[i].id);
    EXPECT_TRUE(same_flow(streamed[i].flow, full[i].flow));
  }
}

TEST(LocalShard, ChunkedPullsSkipDrainedColdSegmentsWithoutIo) {
  const std::string dir = "/tmp/campuslab_cluster_test_shardspill";
  std::filesystem::remove_all(dir);
  DataStoreConfig cfg;
  cfg.segment_flows = 100;
  cfg.spill_directory = dir;
  cfg.hot_bytes_budget = 0;  // spill every sealed segment
  LocalShard shard(cfg);
  const auto flows = canonical_flows(1000, 22);
  ShardIngestBatch batch;
  for (const auto& f : flows) batch.rows.push_back(StoredFlow{0, f});
  ASSERT_TRUE(shard.ingest(batch).ok());
  ASSERT_GT(shard.store().catalog().cold_segments, 5u);

  // Resume deep into the store: segments fully below the token must
  // not be decoded (no cold load, no prune — skipped before open).
  ShardQueryPlan plan;
  plan.after_id = 850;
  plan.max_rows = 1000;
  auto reply = shard.query(plan);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().exhausted);
  EXPECT_EQ(reply.value().rows.size(), 150u);
  EXPECT_LE(reply.value().stats.cold_loaded + reply.value().stats.cold_pruned,
            2u);
  std::filesystem::remove_all(dir);
}

TEST(LocalShard, PartialAckOnIngestFaultHandsBackTail) {
  resilience::FaultPlan plan;
  plan.seed = 1;
  resilience::FaultSpec spec;
  spec.site = "store.ingest";
  spec.kind = resilience::FaultKind::kFail;
  spec.skip_first = 40;
  spec.max_fires = 1000;  // every hit after the first 40 fails
  spec.every_n = 1;
  plan.faults.push_back(spec);
  resilience::FaultScope scope(std::move(plan));

  LocalShard shard;
  const auto flows = canonical_flows(100, 23);
  ShardIngestBatch batch;
  for (const auto& f : flows) batch.rows.push_back(StoredFlow{0, f});
  const auto ack = shard.ingest(batch);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().applied, 40u);
  EXPECT_EQ(shard.flow_count().value_or(0), 40u);
}

// ------------------------------------------------ cluster determinism

ClusterConfig test_config(std::size_t nodes, std::size_t segment_flows) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.node_store.segment_flows = segment_flows;
  return cfg;
}

TEST(ClusterDeterminism, BitIdenticalToSingleNodeAcrossNodeCounts) {
  const auto flows = canonical_flows(5000, 31);
  for (const std::size_t nodes : {1u, 2u, 4u}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    DataStoreConfig single_cfg;
    single_cfg.segment_flows = 500;
    DataStore single(single_cfg);
    for (const auto& f : flows) single.ingest(f);

    Cluster cluster(test_config(nodes, 500));
    const auto report = cluster.ingest(flows);
    ASSERT_EQ(report.acked, flows.size());
    ASSERT_EQ(report.fully_replicated, flows.size());
    ASSERT_EQ(report.lost, 0u);
    ASSERT_EQ(report.first_id, 1u);
    ASSERT_EQ(report.last_id, flows.size());

    expect_bit_identical(single, cluster);
  }
}

TEST(ClusterDeterminism, BitIdenticalWithColdSegments) {
  const std::string base = "/tmp/campuslab_cluster_test_cold";
  std::filesystem::remove_all(base);
  const auto flows = canonical_flows(4000, 32);

  DataStoreConfig single_cfg;
  single_cfg.segment_flows = 250;
  single_cfg.spill_directory = base + "/single";
  single_cfg.hot_bytes_budget = 0;
  DataStore single(single_cfg);
  for (const auto& f : flows) single.ingest(f);
  ASSERT_GT(single.catalog().cold_segments, 0u);

  for (const std::size_t nodes : {2u, 4u}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    ClusterConfig cfg = test_config(nodes, 250);
    cfg.node_store.spill_directory =
        base + "/c" + std::to_string(nodes);
    cfg.node_store.hot_bytes_budget = 0;
    Cluster cluster(cfg);
    ASSERT_EQ(cluster.ingest(flows).acked, flows.size());
    ASSERT_GT(cluster.catalog().cold_segments, 0u);
    expect_bit_identical(single, cluster);
  }
  std::filesystem::remove_all(base);
}

TEST(ClusterDeterminism, KilledNodeFlipsQueriesToReplicasBitIdentical) {
  const auto flows = canonical_flows(4000, 33);
  DataStoreConfig single_cfg;
  single_cfg.segment_flows = 400;
  DataStore single(single_cfg);
  for (const auto& f : flows) single.ingest(f);

  Cluster cluster(test_config(4, 400));
  const auto report = cluster.ingest(flows);
  ASSERT_EQ(report.fully_replicated, flows.size());

  cluster.kill_node(1);
  EXPECT_FALSE(cluster.alive(1));
  EXPECT_EQ(cluster.live_nodes(), 3u);

  const auto result = cluster.query(FlowQuery{});
  EXPECT_GE(result.stats().replica_scopes, 1u);
  expect_bit_identical(single, cluster);
}

TEST(ClusterDeterminism, DeadTargetAtIngestLagsButStaysQueryable) {
  const auto flows = canonical_flows(3000, 34);
  DataStoreConfig single_cfg;
  single_cfg.segment_flows = 300;
  DataStore single(single_cfg);
  for (const auto& f : flows) single.ingest(f);

  Cluster cluster(test_config(4, 300));
  cluster.kill_node(2);
  const auto report = cluster.ingest(flows);
  // One node down, replication 2: every flow still reaches at least
  // one live target — acked, with the copies that targeted the dead
  // node showing up as replica lag on their owner.
  EXPECT_EQ(report.acked, flows.size());
  EXPECT_EQ(report.lost, 0u);
  EXPECT_LT(report.fully_replicated, flows.size());
  std::uint64_t lag = 0;
  for (NodeId n = 0; n < 4; ++n) lag += cluster.replica_lag(n);
  EXPECT_EQ(lag, flows.size() - report.fully_replicated);

  // Every acked flow is queryable — including flows whose primary was
  // the dead node (their only copy lives in replica stores).
  expect_bit_identical(single, cluster);
}

TEST(ClusterDeterminism, MergeIntoClusterMatchesMergeIntoStore) {
  Rng rng(35);
  ShardedFlowIngester for_single(4);
  ShardedFlowIngester for_cluster(4);
  for (int i = 0; i < 3000; ++i) {
    const auto f = random_flow(rng);
    const std::size_t shard = rng.below(4);
    for_single.ingest(shard, f);
    for_cluster.ingest(shard, f);
  }
  DataStore single;
  ASSERT_EQ(for_single.merge_into(single), 3000u);

  Cluster cluster(test_config(4, 50'000));
  const auto report = for_cluster.merge_into(cluster);
  EXPECT_EQ(report.acked, 3000u);
  EXPECT_EQ(for_cluster.pending(), 0u);
  EXPECT_EQ(for_cluster.merged_total(), 3000u);

  expect_rows_equal(single.query(FlowQuery{}), cluster.query(FlowQuery{}),
                    "merged full scan");
}

TEST(ClusterDeterminism, MergeIntoShardMatchesMergeIntoStore) {
  Rng rng(36);
  ShardedFlowIngester for_single(2);
  ShardedFlowIngester for_shard(2);
  for (int i = 0; i < 500; ++i) {
    const auto f = random_flow(rng);
    const std::size_t shard = rng.below(2);
    for_single.ingest(shard, f);
    for_shard.ingest(shard, f);
  }
  DataStore single;
  ASSERT_EQ(for_single.merge_into(single), 500u);
  LocalShard shard;
  const auto merged = for_shard.merge_into(
      static_cast<StoreShard&>(shard));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), 500u);

  const auto single_rows = single.query(FlowQuery{});
  const auto shard_rows = shard.store().query(FlowQuery{});
  ASSERT_EQ(single_rows.size(), shard_rows.size());
  for (std::size_t i = 0; i < single_rows.size(); ++i) {
    EXPECT_EQ(single_rows[i].id, shard_rows[i].id);
    EXPECT_TRUE(same_flow(single_rows[i].flow, shard_rows[i].flow));
  }
}

// ------------------------------------------------------ logs & health

TEST(Cluster, LogsRouteWithReplicationAndSurviveNodeDeath) {
  Cluster cluster(test_config(4, 1000));
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    LogEvent ev;
    ev.ts = Timestamp::from_seconds(i);
    ev.source = (i % 2) ? "firewall" : "ids";
    ev.severity = i % 4;
    ev.subject =
        Ipv4Address(static_cast<std::uint32_t>(0x0A010000 + rng.below(32)));
    ev.message = "event-" + std::to_string(i);
    cluster.ingest_log(ev);
  }
  const auto all = cluster.query_logs(LogQuery{});
  ASSERT_EQ(all.size(), 200u);

  LogQuery severe;
  severe.at_least_severity(3);
  EXPECT_EQ(cluster.query_logs(severe).size(), 50u);

  cluster.kill_node(0);
  const auto after = cluster.query_logs(LogQuery{});
  EXPECT_EQ(after.size(), 200u) << "replicated logs survive a node death";
}

TEST(Cluster, FeedHealthReportsDeadNodeFraction) {
  Cluster cluster(test_config(4, 1000));
  resilience::HealthConfig hc;
  hc.degraded_occupancy = 0.2;
  hc.shedding_occupancy = 0.6;
  resilience::HealthMonitor monitor(hc);

  EXPECT_EQ(cluster.feed_health(monitor), resilience::HealthState::kHealthy);
  cluster.kill_node(3);
  EXPECT_EQ(cluster.feed_health(monitor),
            resilience::HealthState::kDegraded);
  cluster.kill_node(0);
  cluster.kill_node(1);
  EXPECT_EQ(cluster.feed_health(monitor),
            resilience::HealthState::kShedding);
  EXPECT_EQ(cluster.live_nodes(), 1u);
}

// --------------------------------------------------------- concurrency

TEST(ClusterConcurrency, ScatterGatherDuringRouterIngest) {
  Cluster cluster(test_config(4, 500));
  std::atomic<bool> stop{false};

  std::thread router([&] {
    Rng rng(51);
    for (int round = 0; round < 40; ++round) {
      std::vector<FlowRecord> batch;
      for (int i = 0; i < 100; ++i) batch.push_back(random_flow(rng));
      std::stable_sort(batch.begin(), batch.end(),
                       capture::flow_export_before);
      cluster.ingest(batch);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<bool> failed{false};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::size_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto rows = cluster.query(FlowQuery{});
        // Ids ascend and rows only accumulate.
        if (rows.size() < last) failed.store(true);
        for (std::size_t i = 1; i < rows.size(); ++i)
          if (rows[i].id <= rows[i - 1].id) failed.store(true);
        last = rows.size();
        const auto agg =
            cluster.aggregate(FlowQuery{}, GroupBy::kLabel, 0);
        if (agg.matched_flows < last) failed.store(true);
        auto cur = cluster.open_cursor(FlowQuery{}.top(64));
        std::uint64_t seen = 0;
        while (cur.next()) ++seen;
        if (seen > 64) failed.store(true);
        (void)r;
      }
    });
  }
  router.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(cluster.query(FlowQuery{}).size(), 4000u);
}

TEST(ClusterConcurrency, KillNodeUnderLoadKeepsResultsComplete) {
  Cluster cluster(test_config(4, 500));
  Rng rng(52);
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 4000; ++i) flows.push_back(random_flow(rng));
  std::stable_sort(flows.begin(), flows.end(),
                   capture::flow_export_before);
  const auto report = cluster.ingest(flows);
  ASSERT_EQ(report.fully_replicated, flows.size());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Fully replicated + one node down => always complete.
        if (cluster.query(FlowQuery{}).size() != flows.size())
          failed.store(true);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cluster.kill_node(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(cluster.query(FlowQuery{}).size(), flows.size());
}

}  // namespace
}  // namespace campuslab::store
