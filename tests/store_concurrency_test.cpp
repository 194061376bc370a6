// Concurrency tests for the store's snapshot-isolated query engine:
// results must survive retention evicting their segments (ASAN), stay
// fixed-size while ingest continues underneath, match serial execution
// bit-for-bit at any thread count, and hold their invariants under a
// full ingest+query+retention storm (TSAN).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "campuslab/store/datastore.h"
#include "campuslab/store/query_engine.h"

namespace campuslab::store {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using packet::TrafficLabel;

const Ipv4Address kHostA(10, 2, 16, 7);
const Ipv4Address kHostB(10, 2, 16, 8);
const Ipv4Address kWild(198, 51, 100, 1);

FlowRecord flow_at(double start_s, Ipv4Address src, Ipv4Address dst,
                   std::uint16_t sport, std::uint16_t dport,
                   std::uint8_t proto = 6,
                   TrafficLabel label = TrafficLabel::kBenign,
                   std::uint64_t bytes = 1500) {
  FlowRecord f;
  f.tuple = packet::FiveTuple{src, dst, sport, dport, proto};
  f.first_ts = Timestamp::from_seconds(start_s);
  f.last_ts = Timestamp::from_seconds(start_s + 0.05);
  f.packets = 3;
  f.bytes = bytes;
  f.label_packets[static_cast<std::size_t>(label)] = 3;
  return f;
}

FlowRecord random_flow(std::mt19937_64& rng, double start_s) {
  const bool a_src = rng() & 1;
  const auto other =
      Ipv4Address(10, 2, static_cast<std::uint8_t>(rng() % 4),
                  static_cast<std::uint8_t>(rng() % 200));
  const auto port = static_cast<std::uint16_t>(rng() % 7 == 0 ? 53 : 443);
  const auto label = rng() % 11 == 0 ? TrafficLabel::kPortScan
                                     : TrafficLabel::kBenign;
  return flow_at(start_s, a_src ? kHostA : other, a_src ? other : kHostA,
                 static_cast<std::uint16_t>(1024 + rng() % 50000), port,
                 rng() % 3 == 0 ? 17 : 6, label, 100 + rng() % 100000);
}

// Regression: a result pinned before retention must keep every row
// alive and readable after retention drops all of its segments. Before
// snapshot pinning this was a use-after-free (ASAN caught dangling
// StoredFlow pointers into freed segments).
TEST(StoreConcurrency, UseAfterEvictRegression) {
  DataStoreConfig cfg;
  cfg.segment_flows = 5;
  cfg.retention = Duration::seconds(100);
  DataStore store(cfg);
  for (int i = 0; i < 20; ++i)
    store.ingest(flow_at(i, kHostA, kHostB,
                         static_cast<std::uint16_t>(2000 + i), 443));

  const auto held = store.query(FlowQuery{});
  ASSERT_EQ(held.size(), 20u);
  auto cursor = store.open_cursor(FlowQuery{}.about_host(kHostA));
  ASSERT_TRUE(cursor.next());  // mid-iteration when eviction lands

  // Everything is now far older than the retention window.
  EXPECT_EQ(store.enforce_retention(Timestamp::from_seconds(1000)), 20u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.query(FlowQuery{}).empty());

  // The held result still reads cleanly out of its pinned segments.
  std::uint64_t last_id = 0;
  for (const auto& stored : held) {
    EXPECT_GT(stored.id, last_id);
    last_id = stored.id;
    EXPECT_EQ(stored.flow.tuple.src, kHostA);
    EXPECT_EQ(stored.flow.tuple.dst_port, 443);
  }
  std::size_t streamed = 1;
  while (cursor.next()) ++streamed;
  EXPECT_EQ(streamed, 20u);
}

TEST(StoreConcurrency, SnapshotIsolation) {
  DataStoreConfig cfg;
  cfg.segment_flows = 8;
  DataStore store(cfg);
  for (int i = 0; i < 10; ++i)
    store.ingest(flow_at(i, kHostA, kHostB, 4000, 443));

  const auto before = store.query(FlowQuery{});
  EXPECT_EQ(before.size(), 10u);
  for (int i = 10; i < 30; ++i)
    store.ingest(flow_at(i, kHostA, kHostB, 4000, 443));
  // The pinned result is a fixed point-in-time view...
  EXPECT_EQ(before.size(), 10u);
  EXPECT_EQ(before.back().flow.first_ts, Timestamp::from_seconds(9));
  // ...while a fresh query sees the new rows.
  EXPECT_EQ(store.query(FlowQuery{}).size(), 30u);
}

// Acceptance criterion: snapshot results are bit-identical between the
// parallel engine and a serial scan of the same (quiesced) store.
TEST(StoreConcurrency, ParallelMatchesSerialOnQuiescedStore) {
  DataStoreConfig cfg;
  cfg.segment_flows = 64;  // ~32 segments
  DataStore store(cfg);
  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < 2000; ++i) store.ingest(random_flow(rng, i * 0.01));

  ScanPool pool(4);
  ASSERT_EQ(pool.threads(), 4u);
  const std::vector<FlowQuery> queries = {
      FlowQuery{},
      FlowQuery{}.about_host(kHostA),
      FlowQuery{}.on_port(53),
      FlowQuery{}.with_label(TrafficLabel::kPortScan),
      FlowQuery{}.between(Timestamp::from_seconds(5),
                          Timestamp::from_seconds(12)),
      FlowQuery{}.about_host(kHostA).with_proto(17).top(37),
  };
  for (const auto& q : queries) {
    const auto serial = store.query(q);
    const auto parallel = store.query(q, pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].id, serial[i].id);
      EXPECT_EQ(parallel[i].flow.bytes, serial[i].flow.bytes);
      EXPECT_EQ(parallel[i].flow.first_ts, serial[i].flow.first_ts);
    }
    EXPECT_EQ(parallel.stats().index, serial.stats().index);
    // Aggregates merge per-segment partials; same determinism claim.
    const auto agg_s = store.aggregate(q, GroupBy::kHost, 10);
    const auto agg_p = store.aggregate(q, GroupBy::kHost, 10, pool);
    ASSERT_EQ(agg_p.rows.size(), agg_s.rows.size());
    EXPECT_EQ(agg_p.matched_flows, agg_s.matched_flows);
    for (std::size_t i = 0; i < agg_s.rows.size(); ++i) {
      EXPECT_EQ(agg_p.rows[i].key, agg_s.rows[i].key);
      EXPECT_EQ(agg_p.rows[i].bytes, agg_s.rows[i].bytes);
      EXPECT_EQ(agg_p.rows[i].flows, agg_s.rows[i].flows);
    }
  }
}

// The storm: one writer ingesting and periodically evicting, several
// readers running parallel queries, aggregates and cursors the whole
// time. Run under TSAN (CI wires this test into the tsan job) to prove
// the pin-then-scan-lock-free scheme is race-free; the invariant
// checks (ids strictly increasing, rows match the predicate) hold on
// every snapshot regardless of writer progress.
TEST(StoreConcurrency, ConcurrentIngestQueryRetention) {
  DataStoreConfig cfg;
  cfg.segment_flows = 32;
  cfg.retention = Duration::seconds(5);
  cfg.query_threads = 4;  // readers exercise the shared pool too
  DataStore store(cfg);

  constexpr int kFlows = 2000;  // modest: TSAN runs ~10x slower
  std::atomic<bool> done{false};

  std::thread writer([&] {
    std::mt19937_64 rng(7);
    for (int i = 0; i < kFlows; ++i) {
      const double now_s = i * 0.01;
      store.ingest(random_flow(rng, now_s));
      if (i % 256 == 255)
        store.enforce_retention(Timestamp::from_seconds(now_s));
    }
    done.store(true, std::memory_order_release);
  });

  auto check_rows = [](const QueryResult& r, const FlowQuery& q) {
    std::uint64_t last_id = 0;
    for (const auto& stored : r) {
      ASSERT_GT(stored.id, last_id);  // ingest order survives the merge
      last_id = stored.id;
      ASSERT_TRUE(q.matches(stored));
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      while (!done.load(std::memory_order_acquire)) {
        switch (rng() % 3) {
          case 0: {
            FlowQuery q;
            q.about_host(kHostA);
            check_rows(store.query(q), q);
            break;
          }
          case 1: {
            const auto agg =
                store.aggregate(FlowQuery{}, GroupBy::kLabel);
            std::uint64_t grouped = 0;
            for (const auto& row : agg.rows) grouped += row.flows;
            // Each flow has exactly one majority label.
            ASSERT_EQ(grouped, agg.matched_flows);
            break;
          }
          default: {
            auto cur = store.open_cursor(FlowQuery{}.on_port(53).top(64));
            std::uint64_t last_id = 0;
            while (cur.next()) {
              ASSERT_GT(cur.current().id, last_id);
              last_id = cur.current().id;
            }
            ASSERT_LE(cur.produced(), 64u);
            break;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  // Post-storm sanity: the store still answers, retention kept a tail.
  const auto remaining = store.query(FlowQuery{});
  EXPECT_GT(remaining.size(), 0u);
  EXPECT_LE(remaining.size(), static_cast<std::size_t>(kFlows));
  check_rows(remaining, FlowQuery{});
}

// The seal race: a writer with 16-flow segments seals hundreds of times
// while readers pin snapshots and answer host, port and label queries
// through the index. seal() builds the index under the store mutex
// before marking the segment sealed, and a pin reads `sealed` under the
// same mutex, so every answer must equal a brute-force scan of the very
// snapshot it ran on. Run under TSAN (CI matches "StoreConcurrency").
TEST(StoreConcurrency, IndexedAnswersMatchScanAcrossSeals) {
  DataStoreConfig cfg;
  cfg.segment_flows = 16;
  DataStore store(cfg);

  constexpr int kFlows = 4000;  // 250 seals; modest for TSAN
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::mt19937_64 rng(11);
    for (int i = 0; i < kFlows; ++i) {
      FlowRecord f = random_flow(rng, i * 0.01);
      if (i % 5 == 1) f.tuple.dst = f.tuple.src;            // host-local
      if (i % 5 == 2) f.tuple.src_port = f.tuple.dst_port;  // port-symmetric
      store.ingest(f);
    }
    done.store(true, std::memory_order_release);
  });

  const auto scan_ids = [](const StoreSnapshot& snap, const FlowQuery& q) {
    std::vector<std::uint64_t> ids;
    for (const auto& pin : snap.segments()) {
      const StoredFlow* flows = pin.segment->flows.data();
      for (std::uint32_t i = 0; i < pin.count; ++i)
        if (q.matches(flows[i])) ids.push_back(flows[i].id);
    }
    return ids;
  };
  const std::vector<FlowQuery> queries = {
      FlowQuery{}.about_host(kHostA),
      FlowQuery{}.about_host(Ipv4Address(10, 2, 1, 7)),
      FlowQuery{}.on_port(53),
      FlowQuery{}.on_port(443),
      FlowQuery{}.with_label(TrafficLabel::kPortScan),
  };

  std::atomic<std::size_t> index_hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::size_t round = static_cast<std::size_t>(t);
      bool last = false;
      while (!last) {
        last = done.load(std::memory_order_acquire);  // one round after
        const StoreSnapshot snap = store.snapshot();
        const FlowQuery& q = queries[round++ % queries.size()];
        const auto result = execute_query(snap, q, nullptr);
        std::vector<std::uint64_t> got;
        for (const auto& stored : result) got.push_back(stored.id);
        ASSERT_EQ(got, scan_ids(snap, q));
        index_hits.fetch_add(result.stats().index_hits,
                             std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(index_hits.load(), 0u);
  EXPECT_EQ(store.size(), static_cast<std::uint64_t>(kFlows));
}

// ---------------------------------------------------------------------
// Mixed-tier concurrency: the same guarantees with the cold tier in
// play. These run under TSAN too (CI matches "StoreTier").

// A snapshot pinned while its segments were hot must keep reading
// bit-identically after those segments spill to disk mid-scan: spill
// swaps the store's tier entry, but the pinned shared_ptr keeps the
// RAM copy alive for the life of the result (snapshot isolation
// extended across tier moves).
TEST(StoreTierConcurrency, SpillMidScanKeepsPinnedSnapshotIntact) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "campuslab_tier_midscan";
  std::filesystem::remove_all(dir);
  DataStoreConfig cfg;
  cfg.segment_flows = 10;
  cfg.spill_directory = dir.string();
  cfg.hot_bytes_budget = std::numeric_limits<std::uint64_t>::max();
  DataStore store(cfg);
  for (int i = 0; i < 100; ++i)
    store.ingest(flow_at(i, kHostA, kHostB,
                         static_cast<std::uint16_t>(3000 + i), 443));

  const auto held = store.query(FlowQuery{});
  ASSERT_EQ(held.size(), 100u);
  auto cursor = store.open_cursor(FlowQuery{}.about_host(kHostA));
  ASSERT_TRUE(cursor.next());  // mid-iteration when the tier moves

  EXPECT_EQ(store.spill(), 10u);  // every sealed segment goes cold
  EXPECT_EQ(store.catalog().cold_segments, 10u);

  std::uint64_t last_id = 0;
  for (const auto& stored : held) {
    EXPECT_GT(stored.id, last_id);
    last_id = stored.id;
    EXPECT_EQ(stored.flow.tuple.src, kHostA);
  }
  std::size_t streamed = 1;
  while (cursor.next()) ++streamed;
  EXPECT_EQ(streamed, 100u);

  // A fresh query reads the same rows back through the cold tier.
  const auto reread = store.query(FlowQuery{});
  ASSERT_EQ(reread.size(), held.size());
  for (std::size_t i = 0; i < held.size(); ++i)
    EXPECT_EQ(reread[i].id, held[i].id);
  std::filesystem::remove_all(dir);
}

// Parallel must equal serial bit-for-bit when the snapshot mixes hot
// and cold segments — the segment-position merge does not care where
// a segment's bytes live.
TEST(StoreTierConcurrency, ParallelMatchesSerialAcrossTiers) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "campuslab_tier_parallel";
  std::filesystem::remove_all(dir);
  DataStoreConfig cfg;
  cfg.segment_flows = 64;
  cfg.spill_directory = dir.string();
  cfg.hot_bytes_budget = std::numeric_limits<std::uint64_t>::max();
  DataStore store(cfg);
  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < 2000; ++i) store.ingest(random_flow(rng, i * 0.01));
  EXPECT_EQ(store.spill(15), 15u);  // ~half the segments go cold
  ASSERT_EQ(store.catalog().cold_segments, 15u);

  ScanPool pool(4);
  const std::vector<FlowQuery> queries = {
      FlowQuery{},
      FlowQuery{}.about_host(kHostA),
      FlowQuery{}.on_port(53),
      FlowQuery{}.with_label(TrafficLabel::kPortScan),
      FlowQuery{}.between(Timestamp::from_seconds(5),
                          Timestamp::from_seconds(12)),
      FlowQuery{}.about_host(kHostA).with_proto(17).top(37),
  };
  for (const auto& q : queries) {
    const auto serial = store.query(q);
    const auto parallel = store.query(q, pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].id, serial[i].id);
      EXPECT_EQ(parallel[i].flow.bytes, serial[i].flow.bytes);
      EXPECT_EQ(parallel[i].flow.first_ts, serial[i].flow.first_ts);
    }
    const auto agg_s = store.aggregate(q, GroupBy::kHost, 10);
    const auto agg_p = store.aggregate(q, GroupBy::kHost, 10, pool);
    ASSERT_EQ(agg_p.rows.size(), agg_s.rows.size());
    EXPECT_EQ(agg_p.matched_flows, agg_s.matched_flows);
    for (std::size_t i = 0; i < agg_s.rows.size(); ++i) {
      EXPECT_EQ(agg_p.rows[i].key, agg_s.rows[i].key);
      EXPECT_EQ(agg_p.rows[i].bytes, agg_s.rows[i].bytes);
    }
  }
  std::filesystem::remove_all(dir);
}

// The mixed-tier storm: one writer ingesting, spilling (spill shares
// ingest's single-writer contract) and evicting; readers running
// parallel queries, aggregates and cursors over snapshots that mix hot
// segments, cold handles, and segments mid-swap. TSAN proves the tier
// swap under the store mutex plus the lock-free pinned scans are
// race-free; the invariant checks hold on every snapshot.
TEST(StoreTierConcurrency, MixedTierIngestSpillQueryRetentionStorm) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "campuslab_tier_storm";
  std::filesystem::remove_all(dir);
  DataStoreConfig cfg;
  cfg.segment_flows = 32;
  cfg.retention = Duration::seconds(5);
  cfg.query_threads = 4;
  cfg.spill_directory = dir.string();
  // Tight budget: ~4 hot segments, everything older spills as the
  // writer advances, so queries constantly straddle the tier boundary.
  cfg.hot_bytes_budget = 64 * 1024;
  DataStore store(cfg);

  constexpr int kFlows = 2000;  // modest: TSAN runs ~10x slower
  std::atomic<bool> done{false};

  std::thread writer([&] {
    std::mt19937_64 rng(7);
    for (int i = 0; i < kFlows; ++i) {
      const double now_s = i * 0.01;
      store.ingest(random_flow(rng, now_s));  // spills via the budget
      if (i % 256 == 255)
        store.enforce_retention(Timestamp::from_seconds(now_s));
    }
    done.store(true, std::memory_order_release);
  });

  auto check_rows = [](const QueryResult& r, const FlowQuery& q) {
    std::uint64_t last_id = 0;
    for (const auto& stored : r) {
      ASSERT_GT(stored.id, last_id);
      last_id = stored.id;
      ASSERT_TRUE(q.matches(stored));
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      while (!done.load(std::memory_order_acquire)) {
        switch (rng() % 3) {
          case 0: {
            FlowQuery q;
            q.about_host(kHostA);
            const auto r = store.query(q);
            ASSERT_EQ(r.stats().cold_load_failures, 0u);
            check_rows(r, q);
            break;
          }
          case 1: {
            const auto agg =
                store.aggregate(FlowQuery{}, GroupBy::kLabel);
            std::uint64_t grouped = 0;
            for (const auto& row : agg.rows) grouped += row.flows;
            ASSERT_EQ(grouped, agg.matched_flows);
            break;
          }
          default: {
            auto cur = store.open_cursor(FlowQuery{}.on_port(53).top(64));
            std::uint64_t last_id = 0;
            while (cur.next()) {
              ASSERT_GT(cur.current().id, last_id);
              last_id = cur.current().id;
            }
            ASSERT_LE(cur.produced(), 64u);
            break;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  // Post-storm: the mixed store still answers coherently, spill really
  // happened, and failed loads never occurred.
  const auto remaining = store.query(FlowQuery{});
  EXPECT_GT(remaining.size(), 0u);
  EXPECT_LE(remaining.size(), static_cast<std::size_t>(kFlows));
  check_rows(remaining, FlowQuery{});
  EXPECT_EQ(remaining.stats().cold_load_failures, 0u);
  EXPECT_GT(remaining.stats().cold_loaded + remaining.stats().cold_pruned,
            0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace campuslab::store
