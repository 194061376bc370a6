// Differential test of hot against cold storage.
//
// The same seeded, generated flows go into two stores: one keeps every
// segment in RAM, the other spills each segment the moment it seals
// (hot_bytes_budget 0), so a cold read answers every sealed segment.
// Every read path then asks both stores the same questions: every
// planner choice (host, src, dst, label, port, time scan), with and
// without extra predicates (time window, proto, min_bytes, label), with
// limits and with after_id resumes, through DataStore::query at 1 and 4
// scan threads, aggregate, scan_chunk, open_cursor and LocalShard. The
// answers must be equal field for field, and so must QueryStats apart
// from the cold_* counters: a cold read decodes only what its plan
// needs, and must still find, scan and count exactly what the hot
// segment would.
//
// A result's snapshot is then reused: after an index query each cold
// pin parks a key projection, and follow-up plans over that snapshot
// must read the file again rather than the projection's few rows.
//
// Then threads run mixed plans over the same cold handles at once,
// beside a reader that holds time-scan decodes: the case in which a
// decode without an index section could be handed to a plan that needs
// one. The names start with StoreTier, so the TSAN job runs them.
//
// Seeds: fixed ones, plus CAMPUSLAB_FUZZ_SEED when it is set; every
// failure names its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "campuslab/store/datastore.h"
#include "campuslab/store/query_engine.h"
#include "campuslab/store/segment_file.h"
#include "campuslab/store/shard.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using packet::TrafficLabel;

constexpr std::size_t kFlows = 1234;  // 24 sealed segments, a hot tail
constexpr std::size_t kSegmentFlows = 50;
constexpr double kSpanSeconds = 1200;

// Fixed seeds, plus CAMPUSLAB_FUZZ_SEED when it is set.
std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds{7001, 7002};
  if (const char* env = std::getenv("CAMPUSLAB_FUZZ_SEED"))
    seeds.push_back(std::strtoull(env, nullptr, 10));
  return seeds;
}

Ipv4Address campus_host(Rng& rng) {
  return Ipv4Address(10, 3, static_cast<std::uint8_t>(rng.below(2)),
                     static_cast<std::uint8_t>(rng.below(24)));
}
Ipv4Address remote_host(Rng& rng) {
  return Ipv4Address(198, 51, 100, static_cast<std::uint8_t>(rng.below(12)));
}
std::uint16_t some_port(Rng& rng) {
  constexpr std::uint16_t kCommon[] = {53, 80, 443, 22, 8080};
  return rng.chance(0.6) ? kCommon[rng.below(5)]
                         : static_cast<std::uint16_t>(1024 + rng.below(200));
}

// Flows in roughly time order, as capture exports them, so time windows
// prune some cold files; hosts and ports come from small pools, and
// some flows are host-local or port-symmetric (the index rule's two
// branches).
std::vector<FlowRecord> generated_flows(Rng& rng) {
  std::vector<FlowRecord> flows;
  flows.reserve(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    FlowRecord f;
    const Ipv4Address src = campus_host(rng);
    const Ipv4Address dst = rng.chance(0.1) ? src : remote_host(rng);
    const std::uint16_t dport = some_port(rng);
    const std::uint16_t sport =
        rng.chance(0.1) ? dport
                        : static_cast<std::uint16_t>(30000 + rng.below(300));
    constexpr std::uint8_t kProtos[] = {6, 17, 1};
    f.tuple = packet::FiveTuple{src, dst, sport, dport, kProtos[rng.below(3)]};
    f.initial_direction =
        rng.chance(0.5) ? sim::Direction::kOutbound : sim::Direction::kInbound;
    const double start = kSpanSeconds * static_cast<double>(i) / kFlows +
                         rng.uniform(0, 30);
    f.first_ts = Timestamp::from_seconds(start);
    f.last_ts = f.first_ts + Duration::from_seconds(rng.uniform(0, 60));
    f.packets = 1 + rng.below(500);
    f.bytes = 60 + rng.below(200'000);
    f.payload_bytes = rng.below(f.bytes);
    f.fwd_packets = rng.below(f.packets + 1);
    f.rev_packets = f.packets - f.fwd_packets;
    f.syn_count = static_cast<std::uint32_t>(rng.below(3));
    f.fin_count = static_cast<std::uint32_t>(rng.below(2));
    f.psh_count = static_cast<std::uint32_t>(rng.below(20));
    f.saw_dns = dport == 53 || rng.chance(0.05);
    const auto label = rng.chance(0.6)
                           ? TrafficLabel::kBenign
                           : static_cast<TrafficLabel>(
                                 rng.below(packet::kTrafficLabelCount));
    f.label_packets[static_cast<std::size_t>(label)] = f.packets;
    f.scenario_id = label == TrafficLabel::kBenign
                        ? 0
                        : static_cast<std::uint32_t>(1 + rng.below(4));
    flows.push_back(f);
  }
  return flows;
}

// One query of every planner choice, with or without extra predicates
// and a limit.
FlowQuery random_query(Rng& rng) {
  FlowQuery q;
  const auto label = [&rng] {
    return static_cast<TrafficLabel>(rng.below(packet::kTrafficLabelCount));
  };
  switch (rng.below(6)) {
    case 0:
      q.host = rng.chance(0.5) ? campus_host(rng) : remote_host(rng);
      break;
    case 1: q.src = campus_host(rng); break;
    case 2: q.dst = remote_host(rng); break;
    case 3: q.label = label(); break;
    case 4: q.port = some_port(rng); break;
    default: break;  // time scan
  }
  if (rng.chance(0.4)) {
    const double a = rng.uniform(-60, kSpanSeconds);
    q.between(Timestamp::from_seconds(a),
              Timestamp::from_seconds(a + rng.uniform(0, 300)));
  }
  if (rng.chance(0.25)) q.proto = rng.chance(0.5) ? 6 : 17;
  if (rng.chance(0.25)) q.min_bytes = rng.below(150'000);
  if (rng.chance(0.2) && !q.label) q.label = label();
  if (rng.chance(0.1)) q.dns_only = rng.chance(0.5);
  if (rng.chance(0.4)) q.limit = 1 + rng.below(60);
  return q;
}

bool same_row(const StoredFlow& a, const StoredFlow& b) {
  const FlowRecord& x = a.flow;
  const FlowRecord& y = b.flow;
  return a.id == b.id && x.tuple == y.tuple &&
         x.initial_direction == y.initial_direction &&
         x.first_ts == y.first_ts && x.last_ts == y.last_ts &&
         x.packets == y.packets && x.bytes == y.bytes &&
         x.payload_bytes == y.payload_bytes &&
         x.fwd_packets == y.fwd_packets && x.rev_packets == y.rev_packets &&
         x.syn_count == y.syn_count && x.synack_count == y.synack_count &&
         x.fin_count == y.fin_count && x.rst_count == y.rst_count &&
         x.psh_count == y.psh_count && x.saw_dns == y.saw_dns &&
         x.label_packets == y.label_packets &&
         x.scenario_id == y.scenario_id;
}

template <typename Rows>
::testing::AssertionResult same_rows(const Rows& hot, const Rows& cold) {
  if (hot.size() != cold.size())
    return ::testing::AssertionFailure()
           << "hot " << hot.size() << " rows, cold " << cold.size();
  for (std::size_t i = 0; i < hot.size(); ++i)
    if (!same_row(hot[i], cold[i]))
      return ::testing::AssertionFailure()
             << "row " << i << ": hot id " << hot[i].id << ", cold id "
             << cold[i].id;
  return ::testing::AssertionSuccess();
}

// Every QueryStats field but the cold_* counters. `hot` must have loaded
// nothing cold, and `cold` must have failed no load.
::testing::AssertionResult same_stats(const QueryStats& hot,
                                      const QueryStats& cold) {
  if (hot.index != cold.index ||
      hot.segments_pinned != cold.segments_pinned ||
      hot.segments_scanned != cold.segments_scanned ||
      hot.index_hits != cold.index_hits ||
      hot.rows_scanned != cold.rows_scanned || hot.threads != cold.threads)
    return ::testing::AssertionFailure()
           << "stats differ: index " << to_string(hot.index) << "/"
           << to_string(cold.index) << ", pinned " << hot.segments_pinned
           << "/" << cold.segments_pinned << ", scanned "
           << hot.segments_scanned << "/" << cold.segments_scanned
           << ", index_hits " << hot.index_hits << "/" << cold.index_hits
           << ", rows_scanned " << hot.rows_scanned << "/"
           << cold.rows_scanned << ", threads " << hot.threads << "/"
           << cold.threads;
  if (hot.cold_loaded + hot.cold_pruned + hot.cold_load_failures != 0)
    return ::testing::AssertionFailure() << "the hot store read cold files";
  if (cold.cold_load_failures != 0)
    return ::testing::AssertionFailure()
           << cold.cold_load_failures << " cold loads failed";
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_aggregate(const AggregateResult& hot,
                                          const AggregateResult& cold) {
  if (hot.matched_flows != cold.matched_flows ||
      hot.rows.size() != cold.rows.size())
    return ::testing::AssertionFailure()
           << "matched " << hot.matched_flows << "/" << cold.matched_flows
           << ", rows " << hot.rows.size() << "/" << cold.rows.size();
  for (std::size_t i = 0; i < hot.rows.size(); ++i) {
    const AggregateRow& h = hot.rows[i];
    const AggregateRow& c = cold.rows[i];
    if (h.key != c.key || h.flows != c.flows || h.packets != c.packets ||
        h.bytes != c.bytes)
      return ::testing::AssertionFailure() << "group row " << i << " differs";
  }
  return same_stats(hot.stats, cold.stats);
}

// The two stores of one seed: all hot, and spilled at every seal. Both
// are LocalShards, so the shard boundary is tested over the very same
// stores.
struct TierPair {
  std::string dir;
  LocalShard hot;
  LocalShard cold;

  TierPair(const std::string& name, std::uint64_t seed)
      : dir((std::filesystem::path(::testing::TempDir()) /
             ("campuslab_tier_" + name + "_" + std::to_string(seed)))
                .string()),
        hot(config("")),
        cold(config(dir)) {
    Rng rng(seed);
    ShardIngestBatch batch;
    std::uint64_t id = 1;
    for (const FlowRecord& f : generated_flows(rng))
      batch.rows.push_back(StoredFlow{id++, f});
    EXPECT_TRUE(hot.ingest(batch).ok());
    EXPECT_TRUE(cold.ingest(batch).ok());
  }
  ~TierPair() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  static DataStoreConfig config(const std::string& spill_dir) {
    DataStoreConfig cfg;
    cfg.segment_flows = kSegmentFlows;
    cfg.spill_directory = spill_dir;
    cfg.hot_bytes_budget = 0;  // spill at seal
    std::error_code ec;
    if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir, ec);
    return cfg;
  }
};

// Every read path, both tiers, one seed's query stream.
TEST(StoreTierDifferential, EveryReadPathAnswersAlikeOnBothTiers) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    TierPair tiers("paths", seed);
    const DataStore& hot = tiers.hot.store();
    const DataStore& cold = tiers.cold.store();
    ASSERT_EQ(hot.catalog().cold_segments, 0u);
    ASSERT_EQ(cold.catalog().cold_segments, kFlows / kSegmentFlows);
    ScanPool serial(1);
    ScanPool parallel(4);
    Rng rng(seed ^ 0x71E5);
    std::size_t cold_loaded = 0;
    std::size_t index_plans = 0;
    for (int trial = 0; trial < 120; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      const FlowQuery q = random_query(rng);
      if (planned_index(q) != IndexKind::kTimeScan) ++index_plans;

      for (ScanPool* pool : {&serial, &parallel}) {
        const auto want = hot.query(q, *pool);
        const auto got = cold.query(q, *pool);
        ASSERT_TRUE(same_rows(want, got)) << pool->threads() << " threads";
        ASSERT_TRUE(same_stats(want.stats(), got.stats()));
        cold_loaded += got.stats().cold_loaded;

        const auto group_by = static_cast<GroupBy>(rng.below(3));
        const std::size_t top_k = rng.chance(0.5) ? 0 : 1 + rng.below(8);
        ASSERT_TRUE(same_aggregate(hot.aggregate(q, group_by, top_k, *pool),
                                   cold.aggregate(q, group_by, top_k, *pool)))
            << to_string(group_by) << " top " << top_k;
      }

      // scan_chunk from a random resume point, chunk after chunk.
      const std::size_t max_rows = 1 + rng.below(40);
      std::uint64_t after = rng.chance(0.3) ? rng.below(kFlows) : 0;
      for (bool exhausted = false; !exhausted;) {
        QueryStats want_stats;
        QueryStats got_stats;
        bool want_done = false;
        const auto want = scan_chunk(hot.snapshot(), q, after, max_rows,
                                     &want_stats, &want_done);
        const auto got = scan_chunk(cold.snapshot(), q, after, max_rows,
                                    &got_stats, &exhausted);
        ASSERT_TRUE(same_rows(want, got)) << "chunk after " << after;
        ASSERT_TRUE(same_stats(want_stats, got_stats));
        ASSERT_EQ(want_done, exhausted);
        if (!got.empty()) after = got.back().id;
      }

      // A cursor over each tier, in lock step.
      auto want_cursor = hot.open_cursor(q);
      auto got_cursor = cold.open_cursor(q);
      for (bool more = true; more;) {
        more = want_cursor.next();
        ASSERT_EQ(got_cursor.next(), more);
        if (more) {
          ASSERT_TRUE(same_row(want_cursor.current(), got_cursor.current()));
        }
      }
      ASSERT_TRUE(same_stats(want_cursor.stats(), got_cursor.stats()));

      // The shard boundary: a fresh pull, then after_id resumes.
      ShardQueryPlan plan{q, 0, 1 + rng.below(30)};
      for (;;) {
        auto want = tiers.hot.query(plan);
        auto got = tiers.cold.query(plan);
        ASSERT_TRUE(want.ok() && got.ok());
        ASSERT_TRUE(same_rows(want.value().rows, got.value().rows))
            << "shard pull after " << plan.after_id;
        ASSERT_TRUE(same_stats(want.value().stats, got.value().stats));
        ASSERT_EQ(want.value().exhausted, got.value().exhausted);
        if (got.value().exhausted || got.value().rows.empty()) break;
        plan.after_id = got.value().rows.back().id;
      }
      const auto group_by = static_cast<GroupBy>(rng.below(3));
      auto want_agg = tiers.hot.aggregate(q, group_by, 5);
      auto got_agg = tiers.cold.aggregate(q, group_by, 5);
      ASSERT_TRUE(want_agg.ok() && got_agg.ok());
      ASSERT_TRUE(same_aggregate(want_agg.value(), got_agg.value()));
    }
    EXPECT_GT(cold_loaded, 0u);
    EXPECT_GT(index_plans, 40u);
  }
}

// A result's snapshot is shareable with a cursor or a follow-up query
// (QueryResult::snapshot()). After a host, port or label query every
// cold pin of that snapshot parks a key projection: only the rows one
// key names, fewer than the pin's count. A follow-up on the snapshot
// with a time scan, with the same plan and another key, or with another
// plan must read the file again and answer as the hot store does,
// never reading past the projection's rows (the ASAN job runs this).
TEST(StoreTierDifferential, ResultSnapshotsServeFollowUpPlans) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    TierPair tiers("reuse", seed);
    const DataStore& hot = tiers.hot.store();
    const DataStore& cold = tiers.cold.store();
    ScanPool serial(1);
    ScanPool parallel(4);
    Rng rng(seed ^ 0x5EED);
    std::size_t key_pins = 0;
    std::size_t reloaded = 0;
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      // An index query with no window and no limit, so every cold pin
      // is read and parks the projection for its key.
      FlowQuery first;
      do first = random_query(rng);
      while (planned_index(first) == IndexKind::kTimeScan);
      first.from.reset();
      first.to.reset();
      first.limit = std::numeric_limits<std::size_t>::max();
      const auto hot_first = hot.query(first);
      const auto cold_first = cold.query(first);
      ASSERT_TRUE(same_rows(hot_first, cold_first));
      for (const auto& pin : cold_first.snapshot().segments())
        if (pin.cold != nullptr && pin.segment != nullptr &&
            pin.segment->projection.kind == SegmentProjection::Kind::kKey &&
            pin.segment->flows.size() < pin.count)
          ++key_pins;

      // Follow-ups: every file-wide time scan, then two random plans
      // (another key of the same index, another index, a time scan).
      const FlowQuery follow_ups[] = {FlowQuery{}, random_query(rng),
                                      random_query(rng)};
      for (const FlowQuery& q : follow_ups) {
        SCOPED_TRACE(std::string("follow-up ") +
                     std::string(to_string(planned_index(q))) + " after " +
                     std::string(to_string(planned_index(first))));
        for (ScanPool* pool : {&serial, &parallel}) {
          const auto want = execute_query(hot_first.snapshot(), q, pool);
          const auto got = execute_query(cold_first.snapshot(), q, pool);
          ASSERT_TRUE(same_rows(want, got)) << pool->threads() << " threads";
          ASSERT_TRUE(same_stats(want.stats(), got.stats()));
          reloaded += got.stats().cold_loaded;

          const auto group_by = static_cast<GroupBy>(rng.below(3));
          ASSERT_TRUE(same_aggregate(
              execute_aggregate(hot_first.snapshot(), q, group_by, 0, pool),
              execute_aggregate(cold_first.snapshot(), q, group_by, 0, pool)))
              << to_string(group_by);
        }

        QueryStats want_stats;
        QueryStats got_stats;
        bool want_done = false;
        bool got_done = false;
        const std::uint64_t after = rng.below(kFlows);
        const std::size_t max_rows = 1 + rng.below(40);
        ASSERT_TRUE(same_rows(scan_chunk(hot_first.snapshot(), q, after,
                                         max_rows, &want_stats, &want_done),
                              scan_chunk(cold_first.snapshot(), q, after,
                                         max_rows, &got_stats, &got_done)))
            << "chunk after " << after;
        ASSERT_TRUE(same_stats(want_stats, got_stats));
        ASSERT_EQ(want_done, got_done);

        QueryCursor want_cursor(hot_first.snapshot(), q);
        QueryCursor got_cursor(cold_first.snapshot(), q);
        for (bool more = true; more;) {
          more = want_cursor.next();
          ASSERT_EQ(got_cursor.next(), more);
          if (more) {
            ASSERT_TRUE(
                same_row(want_cursor.current(), got_cursor.current()));
          }
        }
        ASSERT_TRUE(same_stats(want_cursor.stats(), got_cursor.stats()));
      }

      // The first answer still reads its own key projections.
      ASSERT_TRUE(same_rows(hot_first, cold_first));
    }
    EXPECT_GT(key_pins, 0u);
    EXPECT_GT(reloaded, 0u);
  }
}

// Threads run mixed plans over the same cold handles at once: time
// scans share one index-less decode per file, and key plans read
// private projections. A reader beside them holds a time-scan decode of
// one file at a time, through the same handles, so key plans meet live
// decodes they must not join; it checks each against the whole file as
// read_segment_file decodes it. Every answer must equal the hot store's.
TEST(StoreTierDifferential, MixedPlansShareColdHandlesSafely) {
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 60;
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    TierPair tiers("mixed", seed);
    const DataStore& hot = tiers.hot.store();
    const DataStore& cold = tiers.cold.store();

    // Query streams and the hot answers, computed up front.
    struct Expected {
      FlowQuery q;
      QueryResult want;
    };
    std::vector<std::vector<Expected>> streams(kThreads);
    Rng rng(seed ^ 0x3A11);
    for (auto& stream : streams)
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const FlowQuery q = random_query(rng);
        stream.push_back({q, hot.query(q)});
      }

    std::atomic<bool> done{false};
    std::thread scan_holder([&] {
      const StoreSnapshot snap = cold.snapshot();
      Rng pick(seed);
      while (!done.load(std::memory_order_acquire)) {
        const auto& pin = snap.segments()[pick.below(snap.segments().size())];
        if (pin.cold == nullptr) continue;
        auto rows = pin.cold->load(IndexKind::kTimeScan, 0);
        auto whole = read_segment_file(pin.cold->path());
        ASSERT_TRUE(rows.ok() && whole.ok());
        const auto& got = rows.value()->flows;
        const auto& want = whole.value()->flows;
        EXPECT_TRUE(std::equal(
            got.begin(), got.end(), want.begin(), want.end(),
            [](const StoredFlow& a, const StoredFlow& b) {
              return a.id == b.id && a.flow.tuple == b.flow.tuple &&
                     a.flow.bytes == b.flow.bytes;
            }));
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> workers;
    std::vector<std::string> failures(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = 0; i < streams[t].size(); ++i) {
          const Expected& e = streams[t][i];
          const auto got = cold.query(e.q);
          auto rows = same_rows(e.want, got);
          auto stats = same_stats(e.want.stats(), got.stats());
          if (!rows || !stats) {
            failures[t] = "thread " + std::to_string(t) + " query " +
                          std::to_string(i) + " (" +
                          std::string(to_string(planned_index(e.q))) +
                          "): " + (!rows ? rows.message() : stats.message());
            return;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    done.store(true, std::memory_order_release);
    scan_holder.join();
    for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  }
}

}  // namespace
}  // namespace campuslab::store
