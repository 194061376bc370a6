// T-STORE — §5: the data store is "linked and indexed to provide fast
// and flexible search capabilities".
//
// Three parts:
//   1. google-benchmark microbenches: ingest rate, and query latency by
//      host / port / label / time-range / full scan as the store grows
//      10^4 -> 10^6 flows. The claim to reproduce is the *shape*:
//      indexed queries stay roughly flat (per result) while scans grow
//      linearly.
//   2. A printed parallel-scan table: the same 10^6-flow (20-segment)
//      store swept across 1/2/4/8 scan threads. Segment-granular fan
//      out should scale near-linearly until segments/thread hits the
//      merge floor; the gate asserts >= 2x at 4 threads (set
//      CAMPUSLAB_BENCH_GATE=1 to turn a miss into exit 1).
//   3. A concurrent ingest+query table: query latency while a writer
//      ingests and evicts underneath — the price of snapshot isolation
//      is pinning, not blocking.
//   4. A storage-tier table: hot vs cold vs pinned-cache scans, the
//      per-column compression report, and the zone-map pruning rate
//      (gate: >= 90% pruned for a narrow window).
//   5. A distributed sweep: the same 10^6 flows behind 1/2/4-node
//      clusters (replication 2) at 1 and 4 scan threads per node,
//      then the StoreShard boundary tax — the identical workload
//      queried directly vs through LocalShard (gate: <= 1.15x).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "campuslab/store/cluster.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/query_engine.h"
#include "campuslab/store/remote_shard.h"
#include "campuslab/store/segment_file.h"
#include "campuslab/store/shard.h"
#include "campuslab/store/shard_server.h"
#include "campuslab/util/rng.h"

using namespace campuslab;

namespace {

capture::FlowRecord random_flow(Rng& rng, double t_base) {
  capture::FlowRecord f;
  const packet::Ipv4Address src(
      static_cast<std::uint32_t>(0x0A010000 + rng.below(1024)));
  const packet::Ipv4Address dst(
      static_cast<std::uint32_t>(0x97650000 + rng.below(4096)));
  static constexpr std::uint16_t kPorts[] = {53, 80, 443, 22, 25, 8080};
  f.tuple = packet::FiveTuple{
      src, dst, static_cast<std::uint16_t>(1024 + rng.below(60000)),
      kPorts[rng.below(6)], static_cast<std::uint8_t>(
          rng.chance(0.7) ? 6 : 17)};
  f.first_ts = Timestamp::from_seconds(t_base + rng.uniform(0, 3600));
  f.last_ts = f.first_ts + Duration::from_seconds(rng.uniform(0.001, 60));
  f.packets = 1 + rng.below(1000);
  f.bytes = f.packets * (64 + rng.below(1400));
  const auto label = rng.chance(0.9)
                         ? packet::TrafficLabel::kBenign
                         : static_cast<packet::TrafficLabel>(
                               1 + rng.below(4));
  f.label_packets[static_cast<std::size_t>(label)] = f.packets;
  return f;
}

store::DataStore& store_of_size(std::int64_t n) {
  // One store per size, built once and reused across benchmarks.
  static std::map<std::int64_t, std::unique_ptr<store::DataStore>> cache;
  auto& slot = cache[n];
  if (!slot) {
    slot = std::make_unique<store::DataStore>();
    Rng rng(static_cast<std::uint64_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
      slot->ingest(random_flow(rng, 0));
  }
  return *slot;
}

void BM_Ingest(benchmark::State& state) {
  store::DataStore store;
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const auto flow = random_flow(rng, 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.ingest(flow));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ingest);

void BM_QueryByHost(benchmark::State& state) {
  auto& store = store_of_size(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    store::FlowQuery q;
    q.about_host(packet::Ipv4Address(
        static_cast<std::uint32_t>(0x0A010000 + rng.below(1024))));
    benchmark::DoNotOptimize(store.query(q));
  }
  state.SetLabel("indexed");
}
BENCHMARK(BM_QueryByHost)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_QueryByPort(benchmark::State& state) {
  auto& store = store_of_size(state.range(0));
  for (auto _ : state) {
    store::FlowQuery q;
    q.on_port(22).top(100);
    benchmark::DoNotOptimize(store.query(q));
  }
  state.SetLabel("indexed, limit 100");
}
BENCHMARK(BM_QueryByPort)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_QueryByLabel(benchmark::State& state) {
  auto& store = store_of_size(state.range(0));
  for (auto _ : state) {
    store::FlowQuery q;
    q.with_label(packet::TrafficLabel::kPortScan).top(100);
    benchmark::DoNotOptimize(store.query(q));
  }
  state.SetLabel("indexed, limit 100");
}
BENCHMARK(BM_QueryByLabel)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_QueryTimeRange(benchmark::State& state) {
  auto& store = store_of_size(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    store::FlowQuery q;
    const double start = rng.uniform(0, 3000);
    q.between(Timestamp::from_seconds(start),
              Timestamp::from_seconds(start + 5)).top(100);
    benchmark::DoNotOptimize(store.query(q));
  }
  state.SetLabel("segment-pruned scan, limit 100");
}
BENCHMARK(BM_QueryTimeRange)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_FullScan(benchmark::State& state) {
  auto& store = store_of_size(state.range(0));
  for (auto _ : state) {
    store::FlowQuery q;
    q.min_bytes = 1'000'000'000;  // matches ~nothing: pure scan cost
    benchmark::DoNotOptimize(store.query(q));
  }
  state.SetLabel("unindexed scan");
}
BENCHMARK(BM_FullScan)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_RetentionSweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    store::DataStoreConfig cfg;
    cfg.segment_flows = 10'000;
    cfg.retention = Duration::seconds(1800);
    store::DataStore store(cfg);
    Rng rng(4);
    for (int i = 0; i < 100'000; ++i)
      store.ingest(random_flow(rng, 0));
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        store.enforce_retention(Timestamp::from_seconds(7200)));
  }
  state.SetLabel("drop ~half of 100k flows");
}
BENCHMARK(BM_RetentionSweep)->Unit(benchmark::kMillisecond);

double time_best_of(int runs, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Part 2: scan-thread sweep over the 10^6-flow store (20 segments of
/// 50k at the default rotation). One task per segment, merged in
/// ingest order; parallel results are bit-identical to serial, so the
/// only question is wall clock. Returns the 4-thread full-scan speedup
/// for the gate.
double print_parallel_sweep_table() {
  auto& store = store_of_size(1'000'000);
  std::printf("\n== parallel scan sweep: 1M flows, %zu segments ==\n",
              store.catalog().segments);
  std::printf("%-9s%-15s%-11s%-15s%-11s\n", "threads", "full-scan ms",
              "speedup", "agg-host ms", "speedup");

  store::FlowQuery scan;
  scan.min_bytes = 1'000'000'000;  // matches ~nothing: pure scan cost
  double serial_scan = 0, serial_agg = 0, speedup_at_4 = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    store::ScanPool pool(threads);
    const double scan_ms = time_best_of(5, [&] {
      benchmark::DoNotOptimize(store.query(scan, pool));
    });
    const double agg_ms = time_best_of(5, [&] {
      benchmark::DoNotOptimize(
          store.aggregate(store::FlowQuery{}, store::GroupBy::kHost, 10,
                          pool));
    });
    if (threads == 1) { serial_scan = scan_ms; serial_agg = agg_ms; }
    const double scan_x = serial_scan / scan_ms;
    if (threads == 4) speedup_at_4 = scan_x;
    std::printf("%-9zu%-15.3f%-11.2f%-15.3f%-11.2f\n", threads, scan_ms,
                scan_x, agg_ms, serial_agg / agg_ms);
  }
  return speedup_at_4;
}

/// Part 3: the same queries while a writer ingests (and periodically
/// evicts) as fast as it can. Readers pin a snapshot in O(segments)
/// and never hold the store mutex while scanning, so query latency
/// should stay within small factors of the quiesced number.
void print_concurrent_ingest_query_table() {
  store::DataStoreConfig cfg;
  cfg.segment_flows = 50'000;
  cfg.retention = Duration::seconds(3600);
  store::DataStore store(cfg);
  Rng rng(9);
  for (int i = 0; i < 500'000; ++i) store.ingest(random_flow(rng, 0));

  store::ScanPool pool(4);
  store::FlowQuery scan;
  scan.min_bytes = 1'000'000'000;
  const double quiesced_ms =
      time_best_of(5, [&] { benchmark::DoNotOptimize(store.query(scan, pool)); });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingested{0};
  std::thread writer([&] {
    Rng wrng(10);
    double t = 3600;
    while (!stop.load(std::memory_order_acquire)) {
      store.ingest(random_flow(wrng, t));
      t += 0.001;
      const auto n = ingested.fetch_add(1, std::memory_order_relaxed);
      if ((n & 0xFFFF) == 0xFFFF)
        store.enforce_retention(Timestamp::from_seconds(t));
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kQueries = 20;
  double total_ms = 0, worst_ms = 0;
  for (int i = 0; i < kQueries; ++i) {
    const double ms = time_best_of(1, [&] {
      benchmark::DoNotOptimize(store.query(scan, pool));
    });
    total_ms += ms;
    worst_ms = std::max(worst_ms, ms);
  }
  const auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true, std::memory_order_release);
  writer.join();

  std::printf("\n== concurrent ingest + query (4 scan threads) ==\n");
  std::printf("quiesced full scan:    %8.3f ms\n", quiesced_ms);
  std::printf("under ingest, mean:    %8.3f ms  worst: %.3f ms\n",
              total_ms / kQueries, worst_ms);
  std::printf("writer sustained:      %8.0f flows/s during the %d "
              "queries (%.1fs window)\n",
              static_cast<double>(ingested.load()) / elapsed, kQueries,
              elapsed);
  std::puts("shape: snapshot pinning is O(segments) under the mutex; "
            "scans run lock-free, so ingest neither stalls queries nor "
            "is starved by them.");
}

/// Part 4: the storage tiers. Same 200k-flow store scanned fully hot,
/// fully cold (every scan pays the decode), and cold with a pinned
/// result keeping the decoded segments cached. Then the per-column
/// compression report for one representative segment, and the zone-map
/// pruning rate for a narrow time window over time-ordered cold data —
/// the property that makes deep retention cheap. Returns the pruning
/// rate for the gate.
double print_storage_tier_table() {
  const std::string dir = "/tmp/campuslab_bench_tier";
  std::filesystem::remove_all(dir);
  store::DataStoreConfig cfg;
  cfg.segment_flows = 10'000;
  cfg.spill_directory = dir;
  cfg.hot_bytes_budget = std::numeric_limits<std::uint64_t>::max();
  store::DataStore store(cfg);
  Rng rng(11);
  // Time-ordered ingest (like live capture): segment zone maps tile
  // the time axis, which is what makes pruning effective. random_flow
  // spreads first_ts over an hour, so pin the timestamps down here.
  for (int i = 0; i < 200'000; ++i) {
    auto f = random_flow(rng, 0);
    f.first_ts = Timestamp::from_seconds(i * 0.01);
    f.last_ts = f.first_ts + Duration::from_seconds(0.05);
    store.ingest(f);
  }

  store::FlowQuery scan;
  scan.min_bytes = 1'000'000'000;  // matches ~nothing: pure scan cost
  const double hot_ms =
      time_best_of(5, [&] { benchmark::DoNotOptimize(store.query(scan)); });
  const std::uint64_t hot_bytes = store.hot_bytes();

  const std::size_t spilled = store.spill();
  std::uint64_t file_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    file_bytes += entry.file_size();

  // Cold, uncached: each query decodes every file (nothing pins the
  // segments between runs, so the weak cache is empty every time).
  const double cold_ms =
      time_best_of(5, [&] { benchmark::DoNotOptimize(store.query(scan)); });
  // Cold, cached: a held result pins every segment, so subsequent
  // queries share the already-decoded copies.
  const auto pin = store.query(store::FlowQuery{});
  const double cached_ms =
      time_best_of(5, [&] { benchmark::DoNotOptimize(store.query(scan)); });

  std::printf("\n== storage tiers: 200k flows, %zu segments ==\n", spilled);
  std::printf("%-22s%-13s%-14s\n", "tier", "scan ms", "resident bytes");
  std::printf("%-22s%-13.3f%-14llu\n", "hot (RAM)", hot_ms,
              static_cast<unsigned long long>(hot_bytes));
  std::printf("%-22s%-13.3f%-14llu\n", "cold (decode/scan)", cold_ms,
              static_cast<unsigned long long>(file_bytes));
  std::printf("%-22s%-13.3f%-14s\n", "cold (pinned cache)", cached_ms,
              "files + pins");
  std::printf("on-disk compression: %.2fx (%llu -> %llu bytes)\n",
              static_cast<double>(hot_bytes) /
                  static_cast<double>(std::max<std::uint64_t>(file_bytes, 1)),
              static_cast<unsigned long long>(hot_bytes),
              static_cast<unsigned long long>(file_bytes));

  // Per-column report for one representative segment.
  {
    store::Segment seg(cfg.segment_flows);
    Rng crng(12);
    std::uint64_t id = 1;
    for (std::size_t i = 0; i < cfg.segment_flows; ++i) {
      store::StoredFlow stored{id++, random_flow(crng, i * 0.01)};
      seg.min_ts = std::min(seg.min_ts, stored.flow.first_ts);
      seg.max_ts = std::max(seg.max_ts, stored.flow.last_ts);
      seg.flows.push_back(stored);
    }
    seg.seal();
    store::SegmentFileInfo info;
    store::encode_segment(seg, &info);
    const double encode_ms = time_best_of(
        10, [&] { benchmark::DoNotOptimize(store::encode_segment(seg)); });
    std::printf("\n== per-column compression (one %u-flow segment) ==\n",
                info.zone.flow_count);
    std::printf("%-16s%-12s%-14s%-8s\n", "column", "file bytes",
                "memory bytes", "ratio");
    for (const auto& col : info.columns)
      std::printf("%-16s%-12llu%-14llu%-8.2f\n", col.name.c_str(),
                  static_cast<unsigned long long>(col.file_bytes),
                  static_cast<unsigned long long>(col.memory_bytes),
                  col.file_bytes
                      ? static_cast<double>(col.memory_bytes) /
                            static_cast<double>(col.file_bytes)
                      : 0.0);
    std::printf("%-16s%-12llu%-14llu%-8.2f\n", "total",
                static_cast<unsigned long long>(info.file_bytes),
                static_cast<unsigned long long>(info.memory_bytes),
                static_cast<double>(info.memory_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(
                        info.file_bytes, 1)));
    std::printf("encode: %.2f ms per segment (best of 10)\n", encode_ms);
  }

  // Zone-map pruning: a 20-second window out of ~2000 seconds of
  // time-ordered data should skip >= 90% of the cold files outright.
  store::FlowQuery narrow;
  narrow.between(Timestamp::from_seconds(900),
                 Timestamp::from_seconds(920));
  const auto r = store.query(narrow);
  const double considered =
      static_cast<double>(r.stats().cold_loaded + r.stats().cold_pruned);
  const double prune_rate =
      considered > 0
          ? static_cast<double>(r.stats().cold_pruned) / considered
          : 0.0;
  std::printf("\nzone-map pruning: 20s window, %zu loaded / %zu pruned "
              "of %zu cold segments (%.0f%% pruned)\n",
              r.stats().cold_loaded, r.stats().cold_pruned,
              r.stats().cold_loaded + r.stats().cold_pruned,
              prune_rate * 100.0);
  std::filesystem::remove_all(dir);
  return prune_rate;
}

/// Part 5: the distributed store. One million flows routed into
/// 1/2/4-node clusters (replication 2), scatter-gather scan and
/// aggregate latency at 1 and 4 scan threads per node store. Then the
/// StoreShard boundary tax: the same store queried directly vs
/// through the LocalShard message shapes — the indirection every node
/// pays even single-node — vs over a loopback socket through a
/// RemoteShard. Returns {in-process ratio, loopback ratio} for the
/// gates.
std::pair<double, double> print_cluster_sweep_table() {
  constexpr std::size_t kFlows = 1'000'000;
  std::vector<capture::FlowRecord> flows;
  flows.reserve(kFlows);
  {
    Rng rng(static_cast<std::uint64_t>(kFlows));
    for (std::size_t i = 0; i < kFlows; ++i)
      flows.push_back(random_flow(rng, 0));
  }

  store::FlowQuery scan;
  scan.min_bytes = 1'000'000'000;  // matches ~nothing: pure scan cost
  store::FlowQuery host;
  host.about_host(packet::Ipv4Address(0x0A010007));

  std::printf("\n== cluster sweep: 1M flows, replication 2 ==\n");
  std::printf("%-8s%-10s%-12s%-14s%-12s\n", "nodes", "threads", "scan ms",
              "host-q ms", "agg ms");
  for (const std::size_t nodes : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      store::ClusterConfig cfg;
      cfg.nodes = nodes;
      cfg.node_store.segment_flows = 50'000;
      cfg.node_store.query_threads = threads;
      store::Cluster cluster(cfg);
      cluster.ingest(flows);
      const double scan_ms = time_best_of(
          3, [&] { benchmark::DoNotOptimize(cluster.query(scan)); });
      const double host_ms = time_best_of(
          3, [&] { benchmark::DoNotOptimize(cluster.query(host)); });
      const double agg_ms = time_best_of(3, [&] {
        benchmark::DoNotOptimize(
            cluster.aggregate(scan, store::GroupBy::kHost, 10));
      });
      std::printf("%-8zu%-10zu%-12.3f%-14.3f%-12.3f\n", nodes, threads,
                  scan_ms, host_ms, agg_ms);
    }
  }
  std::printf("scatter-gather overhead = N x (message + merge); the\n"
              "deterministic id merge keeps results bit-identical.\n");

  // Boundary tax: identical 1M-flow stores, one queried directly, one
  // through the LocalShard interface (a near-empty scan, so the cost
  // measured is the boundary, not row copying).
  auto& direct = store_of_size(static_cast<std::int64_t>(kFlows));
  store::LocalShard shard;
  {
    store::ShardIngestBatch batch;
    batch.rows.reserve(kFlows);
    for (const auto& f : flows)
      batch.rows.push_back(store::StoredFlow{0, f});
    benchmark::DoNotOptimize(shard.ingest(batch));
  }
  const double direct_ms = time_best_of(
      5, [&] { benchmark::DoNotOptimize(direct.query(scan)); });
  store::ShardQueryPlan plan;
  plan.query = scan;
  const double shard_ms = time_best_of(
      5, [&] { benchmark::DoNotOptimize(shard.query(plan)); });
  const double ratio = direct_ms > 0 ? shard_ms / direct_ms : 1.0;

  // Loopback column: the same shard behind a ShardServer, queried by a
  // RemoteShard over 127.0.0.1 — the boundary tax plus one CLRP01
  // frame round trip per pull. The near-empty scan keeps row encoding
  // out of the number, so this is the floor a socket cluster pays.
  store::ShardServer server;
  server.add_shard(0, shard);
  double loopback_ms = 0.0;
  if (server.start().ok()) {
    store::RemoteShardConfig remote_cfg;
    remote_cfg.port = server.port();
    store::RemoteShard remote(remote_cfg);
    (void)remote.ping();  // connect outside the timed region
    loopback_ms = time_best_of(
        5, [&] { benchmark::DoNotOptimize(remote.query(plan)); });
    server.stop();
  }
  const double loopback_ratio =
      direct_ms > 0 ? loopback_ms / direct_ms : 1.0;
  std::printf("\nStoreShard boundary: direct %.3f ms, via shard %.3f ms "
              "(%.2fx), loopback %.3f ms (%.2fx)\n",
              direct_ms, shard_ms, ratio, loopback_ms, loopback_ratio);
  return {ratio, loopback_ratio};
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const double speedup_at_4 = print_parallel_sweep_table();
  print_concurrent_ingest_query_table();
  const double prune_rate = print_storage_tier_table();
  const auto [shard_ratio, loopback_ratio] = print_cluster_sweep_table();

  const unsigned cores = std::thread::hardware_concurrency();
  const bool gate = [] {
    const char* v = std::getenv("CAMPUSLAB_BENCH_GATE");
    return v && *v && *v != '0';
  }();
  std::printf("\nparallel query gate: %.2fx at 4 threads (target >= "
              "2.00x, %u cores) — %s\n",
              speedup_at_4, cores,
              cores < 4          ? "SKIPPED (fewer than 4 cores)"
              : speedup_at_4 >= 2.0 ? "OK"
                                    : "REGRESSION");
  std::printf("zone-map pruning gate: %.0f%% pruned (target >= 90%%) — "
              "%s\n",
              prune_rate * 100.0,
              prune_rate >= 0.9 ? "OK" : "REGRESSION");
  std::printf("shard boundary gate: %.2fx vs direct (target <= 1.15x) — "
              "%s\n",
              shard_ratio, shard_ratio <= 1.15 ? "OK" : "REGRESSION");
  std::printf("loopback boundary gate: %.2fx vs direct (target <= 2.00x) "
              "— %s\n",
              loopback_ratio, loopback_ratio <= 2.0 ? "OK" : "REGRESSION");
  int rc = 0;
  if (gate && cores >= 4 && speedup_at_4 < 2.0) rc = 1;
  if (gate && prune_rate < 0.9) rc = 1;
  if (gate && shard_ratio > 1.15) rc = 1;
  if (gate && loopback_ratio > 2.0) rc = 1;
  return rc;
}
