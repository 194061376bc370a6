// Tests for campuslab::store — ingest/index/query behaviour, query
// planning across indexes, retention, catalog metadata, log events,
// and the rotating packet archive.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "campuslab/obs/registry.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/packet_archive.h"
#include "campuslab/store/segment_file.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using packet::TrafficLabel;

FlowRecord make_flow(double start_s, double end_s, Ipv4Address src,
                     Ipv4Address dst, std::uint16_t sport,
                     std::uint16_t dport, std::uint8_t proto = 6,
                     TrafficLabel label = TrafficLabel::kBenign,
                     std::uint64_t packets = 10,
                     std::uint64_t bytes = 5000) {
  FlowRecord f;
  f.tuple = packet::FiveTuple{src, dst, sport, dport, proto};
  f.first_ts = Timestamp::from_seconds(start_s);
  f.last_ts = Timestamp::from_seconds(end_s);
  f.packets = packets;
  f.bytes = bytes;
  f.label_packets[static_cast<std::size_t>(label)] = packets;
  return f;
}

const Ipv4Address kAlice(10, 1, 16, 5);
const Ipv4Address kBob(10, 1, 16, 6);
const Ipv4Address kServer(93, 184, 216, 34);
const Ipv4Address kResolver(8, 8, 8, 8);

class StoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.ingest(make_flow(1, 2, kAlice, kServer, 5000, 443));
    store_.ingest(make_flow(2, 3, kBob, kServer, 5001, 443));
    store_.ingest(make_flow(3, 4, kAlice, kResolver, 5002, 53, 17));
    store_.ingest(make_flow(10, 20, kResolver, kAlice, 53, 6000, 17,
                            TrafficLabel::kDnsAmplification, 1000,
                            3'000'000));
  }
  DataStore store_;
};

TEST_F(StoreFixture, QueryByHostFindsBothDirections) {
  FlowQuery q;
  q.about_host(kAlice);
  const auto results = store_.query(q);
  EXPECT_EQ(results.size(), 3u);  // two as src, one as dst
}

TEST_F(StoreFixture, QueryBySrcAndDstAreDirectional) {
  FlowQuery by_src;
  by_src.src = kAlice;
  EXPECT_EQ(store_.query(by_src).size(), 2u);
  FlowQuery by_dst;
  by_dst.dst = kAlice;
  EXPECT_EQ(store_.query(by_dst).size(), 1u);
}

TEST_F(StoreFixture, QueryByPort) {
  FlowQuery q;
  q.on_port(53);
  EXPECT_EQ(store_.query(q).size(), 2u);
  FlowQuery q443;
  q443.on_port(443);
  EXPECT_EQ(store_.query(q443).size(), 2u);
}

TEST_F(StoreFixture, QueryByLabel) {
  FlowQuery q;
  q.with_label(TrafficLabel::kDnsAmplification);
  const auto results = store_.query(q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].flow.packets, 1000u);
  FlowQuery benign;
  benign.with_label(TrafficLabel::kBenign);
  EXPECT_EQ(store_.query(benign).size(), 3u);
}

TEST_F(StoreFixture, QueryByTimeRangeUsesOverlap) {
  FlowQuery q;
  q.between(Timestamp::from_seconds(2.5), Timestamp::from_seconds(3.5));
  // Flow 2 ([2,3]) and flow 3 ([3,4]) overlap; flow 1 ([1,2]) does not.
  EXPECT_EQ(store_.query(q).size(), 2u);
}

TEST_F(StoreFixture, ConjunctionOfPredicates) {
  FlowQuery q;
  q.about_host(kAlice);
  q.proto = 17;
  q.min_bytes = 1'000'000;
  const auto results = store_.query(q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].flow.majority_label(),
            TrafficLabel::kDnsAmplification);
}

TEST_F(StoreFixture, LimitCapsResults) {
  FlowQuery q;
  q.top(2);
  EXPECT_EQ(store_.query(q).size(), 2u);
}

TEST_F(StoreFixture, EmptyQueryReturnsEverything) {
  EXPECT_EQ(store_.query(FlowQuery{}).size(), 4u);
}

TEST_F(StoreFixture, NoMatchesIsEmptyNotError) {
  FlowQuery q;
  q.about_host(Ipv4Address(192, 0, 2, 1));
  EXPECT_TRUE(store_.query(q).empty());
}

TEST_F(StoreFixture, IdsAreStableAndMonotonic) {
  std::vector<std::uint64_t> ids;
  for (auto cur = store_.open_cursor(FlowQuery{}); cur.next();)
    ids.push_back(cur.current().id);
  ASSERT_EQ(ids.size(), 4u);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
}

TEST_F(StoreFixture, CatalogAggregates) {
  const auto cat = store_.catalog();
  EXPECT_EQ(cat.total_flows, 4u);
  EXPECT_EQ(cat.total_packets, 10u * 3 + 1000u);
  EXPECT_EQ(cat.earliest, Timestamp::from_seconds(1));
  EXPECT_EQ(cat.latest, Timestamp::from_seconds(20));
  EXPECT_EQ(cat.flows_per_label[0], 3u);
  EXPECT_EQ(cat.flows_per_label[static_cast<std::size_t>(
                TrafficLabel::kDnsAmplification)],
            1u);
}

TEST(DataStore, SegmentsRotateAndQuerySpansThem) {
  DataStoreConfig cfg;
  cfg.segment_flows = 10;
  DataStore store(cfg);
  for (int i = 0; i < 35; ++i) {
    store.ingest(make_flow(i, i + 0.5, kAlice, kServer,
                           static_cast<std::uint16_t>(1000 + i), 443));
  }
  EXPECT_EQ(store.catalog().segments, 4u);
  FlowQuery q;
  q.about_host(kAlice);
  EXPECT_EQ(store.query(q).size(), 35u);
}

TEST(DataStore, RetentionDropsOldSealedSegments) {
  DataStoreConfig cfg;
  cfg.segment_flows = 5;
  cfg.retention = Duration::seconds(100);
  DataStore store(cfg);
  for (int i = 0; i < 20; ++i)
    store.ingest(make_flow(i, i + 1, kAlice, kServer,
                           static_cast<std::uint16_t>(1000 + i), 443));
  // At t=200 segments ending before t=100 must go.
  const auto evicted = store.enforce_retention(
      Timestamp::from_seconds(200));
  EXPECT_EQ(evicted, 20u);  // all sealed (+last partial stays if unsealed)
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.catalog().evicted_by_retention, 20u);
}

TEST(DataStore, RetentionKeepsRecentData) {
  DataStoreConfig cfg;
  cfg.segment_flows = 5;
  cfg.retention = Duration::seconds(50);
  DataStore store(cfg);
  for (int i = 0; i < 20; ++i)
    store.ingest(make_flow(i * 10, i * 10 + 1, kAlice, kServer,
                           static_cast<std::uint16_t>(1000 + i), 443));
  store.enforce_retention(Timestamp::from_seconds(200));
  // Flows ending after t=150 must survive.
  FlowQuery q;
  q.from = Timestamp::from_seconds(150);
  EXPECT_GE(store.query(q).size(), 5u);
}

TEST(DataStore, CleansInvertedTimestamps) {
  DataStore store;
  auto f = make_flow(5, 3, kAlice, kServer, 1, 2);  // inverted
  store.ingest(f);
  auto cur = store.open_cursor(FlowQuery{});
  ASSERT_TRUE(cur.next());
  EXPECT_GE(cur.current().flow.last_ts, cur.current().flow.first_ts);
}

TEST(DataStore, LogEventsQueryable) {
  DataStore store;
  store.ingest_log(LogEvent{Timestamp::from_seconds(1), "firewall", 2,
                            kAlice, "blocked outbound 445"});
  store.ingest_log(LogEvent{Timestamp::from_seconds(2), "ids", 3, kBob,
                            "signature match: ssh brute force"});
  store.ingest_log(LogEvent{Timestamp::from_seconds(3), "syslog", 0,
                            kAlice, "dhcp renew"});

  LogQuery by_source;
  by_source.source = "firewall";
  EXPECT_EQ(store.query_logs(by_source).size(), 1u);

  LogQuery by_subject;
  by_subject.subject = kAlice;
  EXPECT_EQ(store.query_logs(by_subject).size(), 2u);

  LogQuery severe;
  severe.min_severity = 2;
  EXPECT_EQ(store.query_logs(severe).size(), 2u);

  LogQuery windowed;
  windowed.from = Timestamp::from_seconds(1.5);
  windowed.to = Timestamp::from_seconds(2.5);
  EXPECT_EQ(store.query_logs(windowed).size(), 1u);
}

// ------------------------------------------------------------- planner

TEST(QueryPlanner, RanksIndexesBySelectivity) {
  FlowQuery scan;
  EXPECT_EQ(planned_index(scan), IndexKind::kTimeScan);

  FlowQuery by_port;
  by_port.on_port(443);
  EXPECT_EQ(planned_index(by_port), IndexKind::kPort);

  FlowQuery by_label = std::move(by_port);
  by_label.with_label(TrafficLabel::kPortScan);
  EXPECT_EQ(planned_index(by_label), IndexKind::kLabel);

  // An exact host beats everything, whichever side it is pinned to.
  FlowQuery by_host = by_label;
  by_host.about_host(kAlice);
  EXPECT_EQ(planned_index(by_host), IndexKind::kHost);
  FlowQuery by_src;
  by_src.src = kAlice;
  EXPECT_EQ(planned_index(by_src), IndexKind::kHost);
  FlowQuery by_dst;
  by_dst.dst = kAlice;
  EXPECT_EQ(planned_index(by_dst), IndexKind::kHost);

  // Time bounds alone never select an inverted index.
  FlowQuery windowed;
  windowed.between(Timestamp::from_seconds(1), Timestamp::from_seconds(2));
  windowed.min_bytes = 100;
  EXPECT_EQ(planned_index(windowed), IndexKind::kTimeScan);
}

TEST_F(StoreFixture, QueryStatsReportPlanAndWork) {
  FlowQuery q;
  q.about_host(kAlice);
  const auto r = store_.query(q);
  EXPECT_EQ(r.stats().index, IndexKind::kHost);
  EXPECT_EQ(r.stats().segments_pinned, 1u);
  EXPECT_EQ(r.stats().segments_scanned, 1u);
  // The fixture's open segment is unsealed, so the scan is linear and
  // index_hits stays zero; rows_scanned covers the pinned prefix.
  EXPECT_EQ(r.stats().index_hits, 0u);
  EXPECT_EQ(r.stats().rows_scanned, 4u);

  DataStoreConfig cfg;
  cfg.segment_flows = 2;  // seal segments so indexes engage
  DataStore sealed(cfg);
  for (int i = 0; i < 4; ++i)
    sealed.ingest(make_flow(i, i + 1, kAlice, kServer,
                            static_cast<std::uint16_t>(1000 + i), 443));
  const auto rs = sealed.query(q);
  EXPECT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs.stats().index, IndexKind::kHost);
  EXPECT_EQ(rs.stats().index_hits, 4u);

  FlowQuery pruned;
  pruned.between(Timestamp::from_seconds(100),
                 Timestamp::from_seconds(200));
  const auto rp = sealed.query(pruned);
  EXPECT_TRUE(rp.empty());
  EXPECT_EQ(rp.stats().segments_scanned, 0u);  // all time-pruned
}

// ------------------------------------------------------------ builders

TEST_F(StoreFixture, RvalueBuilderChainIsOneExpression) {
  const auto r = store_.query(FlowQuery{}
                                  .about_host(kAlice)
                                  .with_proto(17)
                                  .at_least_bytes(1'000'000)
                                  .top(3));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.front().flow.majority_label(),
            TrafficLabel::kDnsAmplification);
}

TEST_F(StoreFixture, NewPredicateBuilders) {
  // since(): open-ended lower bound, overlap semantics.
  EXPECT_EQ(store_.query(FlowQuery{}.since(Timestamp::from_seconds(3)))
                .size(),
            3u);  // flows [2,3], [3,4] and [10,20] all reach t>=3
  // with_proto()
  EXPECT_EQ(store_.query(FlowQuery{}.with_proto(17)).size(), 2u);
  // at_least_bytes()
  EXPECT_EQ(store_.query(FlowQuery{}.at_least_bytes(1'000'000)).size(),
            1u);
  // from_direction(): fixture flows all default to kInbound.
  EXPECT_EQ(
      store_.query(FlowQuery{}.from_direction(sim::Direction::kOutbound))
          .size(),
      0u);
  EXPECT_EQ(
      store_.query(FlowQuery{}.from_direction(sim::Direction::kInbound))
          .size(),
      4u);
}

TEST(LogQueryBuilders, ChainAndFilter) {
  DataStore store;
  store.ingest_log(LogEvent{Timestamp::from_seconds(1), "firewall", 2,
                            kAlice, "blocked"});
  store.ingest_log(LogEvent{Timestamp::from_seconds(2), "firewall", 0,
                            kBob, "allowed"});
  store.ingest_log(LogEvent{Timestamp::from_seconds(3), "ids", 3, kAlice,
                            "match"});
  const auto r = store.query_logs(LogQuery{}
                                      .from_source("firewall")
                                      .at_least_severity(1)
                                      .about_subject(kAlice)
                                      .top(10));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].message, "blocked");
  EXPECT_EQ(store.query_logs(LogQuery{}.since(Timestamp::from_seconds(2)))
                .size(),
            2u);
}

// ------------------------------------------------------- QueryResult

TEST_F(StoreFixture, ResultIsIterableAndIndexable) {
  const auto r = store_.query(FlowQuery{});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_FALSE(r.empty());
  std::vector<std::uint64_t> ids;
  for (const auto& stored : r) ids.push_back(stored.id);
  ASSERT_EQ(ids.size(), 4u);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i].id, ids[i]);
  EXPECT_EQ(r.front().id, ids.front());
  EXPECT_EQ(r.back().id, ids.back());
  // Iterator -> works too (drop-in for the old pointer loops).
  EXPECT_EQ(r.begin()->id, ids.front());
}

// ----------------------------------------------------------- cursor

TEST_F(StoreFixture, CursorStreamsSameRowsAsQuery) {
  FlowQuery q;
  q.about_host(kAlice);
  const auto materialized = store_.query(q);
  auto cur = store_.open_cursor(q);
  std::size_t i = 0;
  while (cur.next()) {
    ASSERT_LT(i, materialized.size());
    EXPECT_EQ(cur.current().id, materialized[i].id);
    ++i;
  }
  EXPECT_EQ(i, materialized.size());
  EXPECT_EQ(cur.produced(), materialized.size());
  EXPECT_FALSE(cur.next());  // exhausted stays exhausted
}

TEST(QueryCursor, RespectsLimitAndSpansSegments) {
  DataStoreConfig cfg;
  cfg.segment_flows = 10;
  DataStore store(cfg);
  for (int i = 0; i < 35; ++i)
    store.ingest(make_flow(i, i + 0.5, kAlice, kServer,
                           static_cast<std::uint16_t>(1000 + i), 443));
  auto cur = store.open_cursor(FlowQuery{}.about_host(kAlice).top(25));
  std::uint64_t last_id = 0;
  std::size_t n = 0;
  while (cur.next()) {
    EXPECT_GT(cur.current().id, last_id);  // ingest order
    last_id = cur.current().id;
    ++n;
  }
  EXPECT_EQ(n, 25u);
  EXPECT_GE(cur.stats().segments_scanned, 3u);
}

// A cursor holds one cold decode at a time: once it yields a row of
// segment k+1 it has let go of segment k, so loading k's file again
// decodes it afresh instead of joining a decode the cursor still holds.
// The probe asks for what the cursor's time scan decoded (every row, no
// index), the one decode it could join: a whole load() could never
// share that decode, so it would read the file afresh either way.
TEST(QueryCursor, HoldsAtMostOneColdDecode) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("campuslab_cursor_cold_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DataStoreConfig cfg;
  cfg.segment_flows = 10;
  cfg.spill_directory = dir.string();  // budget 0: spill at seal
  DataStore store(cfg);
  for (int i = 0; i < 45; ++i)
    store.ingest(make_flow(i, i + 0.5, kAlice, kServer,
                           static_cast<std::uint16_t>(1000 + i), 443));
  const StoreSnapshot snap = store.snapshot();
  const auto& pins = snap.segments();
  ASSERT_EQ(pins.size(), 5u);
  for (std::size_t k = 0; k < 4; ++k) ASSERT_NE(pins[k].cold, nullptr);

  const obs::Counter& cold_loads =
      obs::Registry::global().counter("store.cold_loads");
  auto cur = store.open_cursor(FlowQuery{});
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t last_of_k = pins[k].cold->zone().id_hi;
    do {
      ASSERT_TRUE(cur.next());
    } while (cur.current().id <= last_of_k);
    const std::uint64_t before = cold_loads.value();
    ASSERT_TRUE(pins[k].cold->load(IndexKind::kTimeScan, 0).ok());
    EXPECT_EQ(cold_loads.value(), before + 1)
        << "the cursor still holds segment " << k << "'s decode";
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- aggregation

TEST_F(StoreFixture, AggregateByHostCreditsBothEndpoints) {
  const auto agg = store_.aggregate(FlowQuery{}, GroupBy::kHost);
  EXPECT_EQ(agg.matched_flows, 4u);
  auto row_for = [&](const Ipv4Address& a) -> const AggregateRow* {
    for (const auto& row : agg.rows)
      if (row.host() == a) return &row;
    return nullptr;
  };
  const auto* alice = row_for(kAlice);
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->flows, 3u);  // two as src, one as dst
  EXPECT_EQ(alice->bytes, 5000u + 5000u + 3'000'000u);
  const auto* server = row_for(kServer);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->flows, 2u);
  // Heaviest host first (ties broken by key).
  for (std::size_t i = 1; i < agg.rows.size(); ++i)
    EXPECT_GE(agg.rows[i - 1].bytes, agg.rows[i].bytes);
}

TEST_F(StoreFixture, AggregateByLabelAndPort) {
  const auto by_label = store_.aggregate(FlowQuery{}, GroupBy::kLabel);
  ASSERT_EQ(by_label.rows.size(), 2u);
  EXPECT_EQ(by_label.rows[0].label(), TrafficLabel::kDnsAmplification);
  EXPECT_EQ(by_label.rows[0].flows, 1u);
  EXPECT_EQ(by_label.rows[1].label(), TrafficLabel::kBenign);
  EXPECT_EQ(by_label.rows[1].flows, 3u);

  const auto by_port = store_.aggregate(FlowQuery{}, GroupBy::kPort);
  auto port_row = [&](std::uint16_t p) -> const AggregateRow* {
    for (const auto& row : by_port.rows)
      if (row.port() == p) return &row;
    return nullptr;
  };
  ASSERT_NE(port_row(443), nullptr);
  EXPECT_EQ(port_row(443)->flows, 2u);
  ASSERT_NE(port_row(53), nullptr);
  EXPECT_EQ(port_row(53)->flows, 2u);
}

TEST_F(StoreFixture, AggregateTopKIsHeavyHitters) {
  const auto top1 = store_.aggregate(FlowQuery{}, GroupBy::kHost, 1);
  ASSERT_EQ(top1.rows.size(), 1u);
  // The 3 MB amplification flow dominates; both its endpoints carry it,
  // and kAlice additionally carries 10 KB of web traffic.
  EXPECT_EQ(top1.rows[0].host(), kAlice);
  const auto full = store_.aggregate(FlowQuery{}, GroupBy::kHost);
  EXPECT_EQ(top1.rows[0].bytes, full.rows[0].bytes);
  // A filter narrows what is aggregated; its limit is ignored.
  FlowQuery benign;
  benign.with_label(TrafficLabel::kBenign).top(1);
  const auto agg = store_.aggregate(benign, GroupBy::kLabel);
  EXPECT_EQ(agg.matched_flows, 3u);
}

// Property: for random stores, every indexed query returns exactly the
// rows a brute-force scan with the same predicate returns, in the same
// order. Host-local (src == dst) and port-symmetric (src_port ==
// dst_port) flows hit the branches of the index rule. The store spills
// under a small hot budget, so some segments answer from an index read
// out of a file, others from one built at seal, and the open tail by
// scanning.
TEST(DataStoreProperty, IndexedQueryEqualsScan) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("campuslab_indexed_eq_scan_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Rng rng(404);
  DataStoreConfig cfg;
  cfg.segment_flows = 64;
  cfg.spill_directory = dir.string();
  cfg.hot_bytes_budget = 8 * cfg.segment_flows * sizeof(StoredFlow);
  DataStore store(cfg);
  const auto host = [&rng](std::uint32_t base, std::uint64_t pool) {
    return Ipv4Address(static_cast<std::uint32_t>(base + rng.below(pool)));
  };
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address src = host(0x0A010000, 32);
    const Ipv4Address dst = rng.chance(0.15) ? src : host(0xC6336400, 16);
    const auto dport =
        static_cast<std::uint16_t>(rng.chance(0.5) ? 53 : 443);
    const auto sport = rng.chance(0.15)
                           ? dport
                           : static_cast<std::uint16_t>(rng.below(3) + 5000);
    const auto label = static_cast<TrafficLabel>(rng.below(5));
    auto f = make_flow(rng.uniform(0, 1000), 0, src, dst, sport, dport,
                       static_cast<std::uint8_t>(rng.chance(0.5) ? 6 : 17),
                       label, 1 + rng.below(100), 100 + rng.below(100000));
    f.last_ts = f.first_ts + Duration::from_seconds(rng.uniform(0, 10));
    store.ingest(f);
  }
  const auto catalog = store.catalog();
  ASSERT_GT(catalog.cold_segments, 0u);
  ASSERT_GT(catalog.segments, catalog.cold_segments + 1);  // hot sealed too

  std::size_t cold_loaded = 0;
  std::size_t index_hits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    FlowQuery q;
    const double pick = rng.uniform(0, 1);
    if (pick < 0.3)
      q.host = host(rng.chance(0.5) ? 0x0A010000 : 0xC6336400, 32);
    else if (pick < 0.4)
      q.src = host(0x0A010000, 32);
    else if (pick < 0.5)
      q.dst = host(0xC6336400, 16);
    if (rng.chance(0.4)) q.label = static_cast<TrafficLabel>(rng.below(5));
    if (rng.chance(0.4))
      q.port = static_cast<std::uint16_t>(
          rng.chance(0.3) ? rng.below(3) + 5000 : (rng.chance(0.5) ? 53 : 443));
    if (rng.chance(0.5)) {
      const double a = rng.uniform(0, 1000);
      q.between(Timestamp::from_seconds(a),
                Timestamp::from_seconds(a + rng.uniform(0, 300)));
    }
    if (rng.chance(0.3)) q.min_bytes = rng.below(50000);

    const auto indexed = store.query(q);
    std::vector<std::uint64_t> got;
    for (const auto& s : indexed) got.push_back(s.id);
    // The reference walks the pins itself, apart from the engine.
    std::vector<std::uint64_t> want;
    const StoreSnapshot snap = store.snapshot();
    for (const PinnedSegment& pin : snap.segments()) {
      std::shared_ptr<const Segment> seg = pin.segment;
      if (seg == nullptr) {
        auto loaded = pin.cold->load();
        ASSERT_TRUE(loaded.ok()) << loaded.error().message;
        seg = std::move(loaded).value();
      }
      for (std::uint32_t i = 0; i < pin.count; ++i)
        if (q.matches(seg->flows[i])) want.push_back(seg->flows[i].id);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
    EXPECT_EQ(indexed.stats().cold_load_failures, 0u);
    cold_loaded += indexed.stats().cold_loaded;
    index_hits += indexed.stats().index_hits;
  }
  EXPECT_GT(cold_loaded, 0u);
  EXPECT_GT(index_hits, 0u);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- PacketArchive

class ArchiveFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("campuslab_archive_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  packet::Packet frame(double t_s) {
    using namespace packet;
    return PacketBuilder(Timestamp::from_seconds(t_s))
        .udp(Endpoint{MacAddress::from_id(1), Ipv4Address(10, 0, 16, 2),
                      1111},
             Endpoint{MacAddress::from_id(2), Ipv4Address(8, 8, 8, 8), 53})
        .payload_size(100)
        .build();
  }

  std::filesystem::path dir_;
};

TEST_F(ArchiveFixture, RotatesSegmentsBySpan) {
  PacketArchiveConfig cfg;
  cfg.directory = dir_.string();
  cfg.segment_span = Duration::seconds(60);
  auto archive = PacketArchive::open(cfg);
  ASSERT_TRUE(archive.ok());
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(archive.value().write(frame(i * 30.0)).ok());
  ASSERT_TRUE(archive.value().seal().ok());
  // 300s of traffic at 60s per segment -> 5 segments.
  EXPECT_EQ(archive.value().segments().size(), 5u);
  EXPECT_EQ(archive.value().records_written(), 10u);
}

TEST_F(ArchiveFixture, ReadRangeSpansSegments) {
  PacketArchiveConfig cfg;
  cfg.directory = dir_.string();
  cfg.segment_span = Duration::seconds(10);
  auto archive = PacketArchive::open(cfg);
  ASSERT_TRUE(archive.ok());
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(archive.value().write(frame(i * 1.0)).ok());
  auto r = archive.value().read_range(Timestamp::from_seconds(25),
                                      Timestamp::from_seconds(44));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 20u);  // t=25..44 inclusive
  for (std::size_t i = 1; i < r.value().size(); ++i)
    EXPECT_GE(r.value()[i].ts, r.value()[i - 1].ts);
}

TEST_F(ArchiveFixture, RetentionDeletesFiles) {
  PacketArchiveConfig cfg;
  cfg.directory = dir_.string();
  cfg.segment_span = Duration::seconds(10);
  cfg.retention = Duration::seconds(30);
  auto archive = PacketArchive::open(cfg);
  ASSERT_TRUE(archive.ok());
  for (int i = 0; i < 60; ++i)
    ASSERT_TRUE(archive.value().write(frame(i * 1.0)).ok());
  const auto before = archive.value().segments().size();
  const auto deleted =
      archive.value().enforce_retention(Timestamp::from_seconds(60));
  EXPECT_GT(deleted, 0u);
  EXPECT_EQ(archive.value().segments().size(), before - deleted);
  // Files are really gone.
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir_))
    ++files;
  EXPECT_EQ(files, archive.value().segments().size());
}

TEST_F(ArchiveFixture, OpenFailsOnMissingDirectory) {
  PacketArchiveConfig cfg;
  cfg.directory = (dir_ / "does_not_exist").string();
  EXPECT_FALSE(PacketArchive::open(cfg).ok());
}

}  // namespace
}  // namespace campuslab::store
