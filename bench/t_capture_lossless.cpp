// T-CAP — §5's "continuous, lossless, full packet capture at scale ...
// at link speeds of up to 100 Gbps or higher".
//
// Two parts:
//   1. google-benchmark microbenches of the capture hot path (ring
//      push/pop, the one-shard engine's offer/drain, and the sharded
//      engine on real worker threads — BM_ShardedCapture/1 is the
//      producer -> one ring -> one worker rate) establishing the
//      packets/sec ceiling of this host.
//   2. A printed loss table: offered load (Gbps-equivalent IMIX) vs
//      ring capacity on the one-shard engine, with a deliberately paced
//      consumer, reproducing the knee where "lossless" stops being
//      true — the paper's reason campus-scale (10-20G) is tractable
//      where carrier-scale is not.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "campuslab/capture/flow.h"
#include "campuslab/capture/sharded_engine.h"
#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/packet/buffer.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/util/rng.h"

using namespace campuslab;

namespace {

/// IMIX-ish synthetic frame sizes (mean ~ 400B).
std::vector<packet::Packet> make_imix(std::size_t count,
                                      std::uint64_t seed) {
  using namespace packet;
  Rng rng(seed);
  std::vector<Packet> out;
  out.reserve(count);
  const Endpoint src{MacAddress::from_id(1), Ipv4Address(8, 8, 8, 8), 53};
  for (std::size_t i = 0; i < count; ++i) {
    const Endpoint dst{MacAddress::from_id(2),
                       Ipv4Address(static_cast<std::uint32_t>(
                           0x0A001000 + rng.below(512))),
                       static_cast<std::uint16_t>(1024 + rng.below(60000))};
    const double roll = rng.uniform();
    const std::size_t payload =
        roll < 0.58 ? 26 : (roll < 0.91 ? 532 : 1458);  // IMIX
    out.push_back(PacketBuilder(Timestamp::from_nanos(
                                    static_cast<std::int64_t>(i)))
                      .udp(src, dst)
                      .payload_size(payload)
                      .build());
  }
  return out;
}

void BM_RingPushPop(benchmark::State& state) {
  capture::SpscRing<packet::Packet> ring(1 << 12);
  auto frames = make_imix(1024, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    packet::Packet p = frames[i++ & 1023];
    benchmark::DoNotOptimize(ring.try_push(std::move(p)));
    packet::Packet out;
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingPushPop);

void BM_EngineOfferDrain(benchmark::State& state) {
  capture::ShardedCaptureEngine engine(
      {.shards = 1,
       .ring_capacity = static_cast<std::size_t>(state.range(0))});
  std::uint64_t sink_bytes = 0;
  engine.add_sink_factory([&](std::size_t) {
    return [&](const capture::DecodedPacket& t) {
      sink_bytes += t.pkt.size();
    };
  });
  auto frames = make_imix(4096, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    engine.offer(frames[i++ & 4095], sim::Direction::kInbound);
    if ((i & 63) == 0) engine.poll_shard(0, 64);
  }
  engine.drain();
  benchmark::DoNotOptimize(sink_bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineOfferDrain)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_ShardedCapture(benchmark::State& state) {
  // Sustained rate with one producer and N shard workers; the producer
  // retries on ring-full so items processed == items consumed.
  const auto shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    capture::ShardedCaptureConfig cfg;
    cfg.shards = shards;
    cfg.ring_capacity = 1 << 14;
    capture::ShardedCaptureEngine engine(cfg);
    std::vector<std::uint64_t> consumed_bytes(shards, 0);
    engine.add_sink_factory([&](std::size_t s) {
      return [&consumed_bytes, s](const capture::DecodedPacket& t) {
        consumed_bytes[s] += t.pkt.size();
      };
    });
    auto frames = make_imix(8192, 4);
    constexpr std::size_t kCount = 200'000;
    state.ResumeTiming();

    engine.start();
    for (std::size_t i = 0; i < kCount;) {
      if (engine.offer(frames[i & 8191], sim::Direction::kInbound)) ++i;
    }
    engine.stop();
    benchmark::DoNotOptimize(consumed_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          200'000);
}
BENCHMARK(BM_ShardedCapture)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Loss-knee table: virtual-time offered load against a consumer whose
/// per-packet service cost is fixed (ns), sweeping ring capacity.
void print_loss_table() {
  std::puts("\n=== T-CAP: loss vs offered load (IMIX, paced consumer) ===");
  std::puts("consumer service cost: 120 ns/pkt (~8.3 Mpps ceiling)");
  std::printf("%-14s", "offered");
  const std::size_t rings[] = {1 << 10, 1 << 14, 1 << 18};
  for (const auto r : rings) std::printf("ring=%-8zu", r);
  std::puts("(loss rate)");

  const double gbps_points[] = {1, 5, 10, 20, 40, 100};
  for (const double gbps : gbps_points) {
    std::printf("%5.0f Gbps     ", gbps);
    for (const auto ring_cap : rings) {
      capture::ShardedCaptureEngine engine(
          {.shards = 1, .ring_capacity = ring_cap});
      engine.add_sink_factory(
          [](std::size_t) { return [](const capture::DecodedPacket&) {}; });
      auto frames = make_imix(4096, 7);

      // Virtual-time pacing: mean frame 454B -> arrivals at `gbps`;
      // consumer drains in bursts every 50 us of virtual time, capped
      // by its 120ns/pkt service rate.
      const double mean_frame_bits = 454 * 8;
      const double arrival_pps = gbps * 1e9 / mean_frame_bits;
      const double service_pps = 1e9 / 120.0;
      const double burst_interval_s = 50e-6;
      const auto drain_per_burst = static_cast<std::size_t>(
          service_pps * burst_interval_s);

      double now = 0.0, next_drain = burst_interval_s;
      Rng rng(static_cast<std::uint64_t>(gbps * 100) + ring_cap);
      constexpr std::size_t kPackets = 400'000;
      for (std::size_t i = 0; i < kPackets; ++i) {
        now += rng.exponential(1.0 / arrival_pps);
        while (now >= next_drain) {
          engine.poll_shard(0, drain_per_burst);
          next_drain += burst_interval_s;
        }
        engine.offer(frames[i & 4095], sim::Direction::kInbound);
      }
      engine.drain();
      std::printf("%-13.5f", engine.stats().loss_rate());
    }
    std::puts("");
  }
  std::puts("shape: lossless through the service ceiling (~24 Gbps IMIX "
            "at 120ns/pkt); past it, bigger rings only delay the knee.");
}

/// Sharded loss-knee table: same virtual-time model as above, but the
/// 5-tuple hash spreads arrivals over N shards, each drained by its own
/// paced consumer (120 ns/pkt each — the "one core per shard" budget).
/// The knee per N is the largest drop-free offered load; sharding must
/// move it by ~N (modulo hash imbalance).
void print_sharded_loss_table() {
  std::puts("\n=== T-CAP: sharded loss vs offered load "
            "(IMIX, 120 ns/pkt consumer PER SHARD, ring 16Ki/shard) ===");
  const std::size_t shard_counts[] = {1, 2, 4};
  const double gbps_points[] = {5, 10, 20, 30, 40, 60, 80, 100, 160};

  std::printf("%-14s", "offered");
  for (const auto n : shard_counts) std::printf("shards=%-7zu", n);
  std::puts("(loss rate)");

  double knee[sizeof(shard_counts) / sizeof(shard_counts[0])] = {};
  std::vector<std::uint64_t> shard4_drops;
  double shard4_drop_load = 0;

  for (const double gbps : gbps_points) {
    std::printf("%5.0f Gbps     ", gbps);
    for (std::size_t ni = 0; ni < 3; ++ni) {
      const std::size_t shards = shard_counts[ni];
      capture::ShardedCaptureConfig cfg;
      cfg.shards = shards;
      cfg.ring_capacity = 1 << 14;
      capture::ShardedCaptureEngine engine(cfg);
      engine.add_sink_factory(
          [](std::size_t) { return [](const capture::DecodedPacket&) {}; });
      auto frames = make_imix(4096, 11);

      const double mean_frame_bits = 454 * 8;
      const double arrival_pps = gbps * 1e9 / mean_frame_bits;
      const double service_pps = 1e9 / 120.0;  // per shard
      const double burst_interval_s = 50e-6;
      const auto drain_per_burst =
          static_cast<std::size_t>(service_pps * burst_interval_s);

      double now = 0.0, next_drain = burst_interval_s;
      Rng rng(static_cast<std::uint64_t>(gbps * 100) + shards);
      constexpr std::size_t kPackets = 300'000;
      for (std::size_t i = 0; i < kPackets; ++i) {
        now += rng.exponential(1.0 / arrival_pps);
        while (now >= next_drain) {
          for (std::size_t s = 0; s < shards; ++s)
            engine.poll_shard(s, drain_per_burst);
          next_drain += burst_interval_s;
        }
        engine.offer(frames[i & 4095], sim::Direction::kInbound);
      }
      engine.drain();

      const auto loss = engine.stats().loss_rate();
      std::printf("%-13.5f", loss);
      if (loss == 0.0 && gbps > knee[ni]) knee[ni] = gbps;
      if (shards == 4 && engine.stats().dropped > 0 &&
          shard4_drops.empty()) {
        shard4_drop_load = gbps;
        for (std::size_t s = 0; s < shards; ++s)
          shard4_drops.push_back(engine.shard_stats(s).dropped);
      }
    }
    std::puts("");
  }

  std::printf("drop-free knee: shards=1 -> %.0f Gbps, shards=2 -> %.0f "
              "Gbps, shards=4 -> %.0f Gbps (x%.1f over single shard)\n",
              knee[0], knee[1], knee[2],
              knee[0] > 0 ? knee[2] / knee[0] : 0.0);
  if (!shard4_drops.empty()) {
    std::printf("per-shard drops (shards=4, first lossy load %.0f Gbps):",
                shard4_drop_load);
    for (std::size_t s = 0; s < shard4_drops.size(); ++s)
      std::printf("  shard%zu=%" PRIu64, s, shard4_drops[s]);
    std::puts("");
  } else {
    std::puts("per-shard drops (shards=4): none at any offered load "
              "(lossless through 160 Gbps)");
  }
  std::puts("shape: the knee scales ~linearly with shard count — the "
            "paper's 100 Gbps target needs the multi-queue path.");
}

/// Allocation accounting for the parse-once/copy-never refactor,
/// measured off the shared buffer pool's own counters. Two runs of the
/// same engine hot path:
///   legacy  — deep-copies every frame before offering, the per-hop
///             behavior before Packet became a pooled handle (pre-pool
///             each of those acquisitions was a raw malloc, and the
///             ring hop + sink copies added ~2 more per packet);
///   pooled  — offer(const&) as the tap does it now: a refcount bump.
/// The pooled run must stay at ~0 heap allocations per offered packet
/// (acceptance: <= 0.05) once the slab freelist is warm.
void print_allocation_table() {
  auto& pool = packet::default_buffer_pool();
  std::puts("\n=== T-CAP: buffer-pool traffic per offered packet ===");
  std::printf("%-8s%-18s%-18s%-14s\n", "run", "acquisitions/pkt",
              "heap allocs/pkt", "pool hit rate");

  auto frames = make_imix(4096, 13);
  constexpr std::size_t kCount = 400'000;

  const auto run = [&](const char* name, bool legacy_deep_copy) {
    capture::ShardedCaptureEngine engine(
        {.shards = 1, .ring_capacity = 1 << 14});
    std::uint64_t sink_bytes = 0;
    engine.add_sink_factory([&](std::size_t) {
      return [&](const capture::DecodedPacket& t) {
        sink_bytes += t.pkt.size();
      };
    });
    const auto before = pool.stats();
    for (std::size_t i = 0; i < kCount; ++i) {
      if (legacy_deep_copy) {
        packet::Packet deep;
        deep.assign(frames[i & 4095].bytes());
        deep.ts = frames[i & 4095].ts;
        engine.offer(std::move(deep), sim::Direction::kInbound);
      } else {
        engine.offer(frames[i & 4095], sim::Direction::kInbound);
      }
      if ((i & 63) == 0) engine.poll_shard(0, 64);
    }
    engine.drain();
    benchmark::DoNotOptimize(sink_bytes);
    const auto after = pool.stats();
    const double acquisitions =
        static_cast<double>((after.pool_hits - before.pool_hits) +
                            (after.pool_misses - before.pool_misses));
    const double heap_allocs =
        static_cast<double>(after.heap_allocations -
                            before.heap_allocations);
    const double hit_rate =
        acquisitions == 0.0
            ? 1.0
            : static_cast<double>(after.pool_hits - before.pool_hits) /
                  acquisitions;
    std::printf("%-8s%-18.4f%-18.4f%-14.4f\n", name,
                acquisitions / static_cast<double>(kCount),
                heap_allocs / static_cast<double>(kCount), hit_rate);
    return heap_allocs / static_cast<double>(kCount);
  };

  run("legacy", true);
  const double pooled = run("pooled", false);

  const auto s = pool.stats();
  std::printf("pool gauge: outstanding=%" PRIu64 " high_water=%" PRIu64
              " freelist=%" PRIu64 " oversize=%" PRIu64 "\n",
              s.outstanding, s.high_water, s.freelist_size,
              s.oversize_allocations);
  std::printf("hot path: %.4f heap allocs/offered packet (target <= "
              "0.05) — %s\n",
              pooled, pooled <= 0.05 ? "OK" : "REGRESSION");
  std::puts("shape: pre-pool the legacy column was >= 3 mallocs/packet "
            "(tap copy + ring copy + sink copies); the pool absorbs even "
            "forced deep copies, and the handle path allocates nothing.");
}

/// Per-stage latency distribution of the capture path, from the
/// campuslab::obs stage histograms. Sample period 1 so every hop of
/// every packet is measured; quantiles resolve inside the log2 bucket
/// that holds the rank (within 2x — the right resolution for tails).
void print_stage_latency_table() {
  obs::set_trace_sample_period(1);
  obs::set_tracing_enabled(true);

  constexpr std::size_t kShards = 2;
  capture::ShardedCaptureConfig cfg;
  cfg.shards = kShards;
  cfg.ring_capacity = 1 << 14;
  capture::ShardedCaptureEngine engine(cfg);
  std::vector<std::unique_ptr<capture::FlowMeter>> meters;
  for (std::size_t s = 0; s < kShards; ++s)
    meters.push_back(std::make_unique<capture::FlowMeter>());
  engine.add_sink_factory([&](std::size_t s) {
    return [meter = meters[s].get()](const capture::DecodedPacket& t) {
      meter->offer(t.pkt, t.view, t.dir);
    };
  });

  auto frames = make_imix(4096, 17);
  constexpr std::size_t kCount = 200'000;
  for (std::size_t i = 0; i < kCount; ++i) {
    engine.offer(frames[i & 4095], sim::Direction::kInbound);
    if ((i & 63) == 0) engine.drain();
  }
  engine.drain();

  std::puts("\n=== T-CAP: per-stage latency (ns, sampled every packet) ===");
  std::printf("%-22s%-10s%-10s%-10s%-10s%-10s\n", "stage", "count", "p50",
              "p99", "p999", "mean");
  const auto snap = obs::Registry::global().snapshot();
  for (const auto& m : snap.metrics) {
    if (m.name != "pipeline_stage_ns" || m.histogram.count == 0) continue;
    std::printf("%-22s%-10" PRIu64 "%-10.0f%-10.0f%-10.0f%-10.0f\n",
                m.labels.c_str(), m.histogram.count,
                m.histogram.quantile(0.50), m.histogram.quantile(0.99),
                m.histogram.quantile(0.999), m.histogram.mean());
  }
  std::puts("shape: enqueue/dequeue are tens of ns; decode dominates the "
            "per-packet budget, flow_update sits between.");
  obs::set_trace_sample_period(256);
}

/// The observability bill: the same 4-shard hot path with tracing off
/// vs on (default 1/256 sampling). Acceptance: <= 3% throughput cost at
/// the knee configuration.
void print_obs_overhead_table() {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCount = 400'000;
  auto frames = make_imix(4096, 19);

  const auto run_once = [&]() -> double {
    capture::ShardedCaptureConfig cfg;
    cfg.shards = kShards;
    cfg.ring_capacity = 1 << 14;
    capture::ShardedCaptureEngine engine(cfg);
    std::vector<std::unique_ptr<capture::FlowMeter>> meters;
    for (std::size_t s = 0; s < kShards; ++s)
      meters.push_back(std::make_unique<capture::FlowMeter>());
    engine.add_sink_factory([&](std::size_t s) {
      return [meter = meters[s].get()](const capture::DecodedPacket& t) {
        meter->offer(t.pkt, t.view, t.dir);
      };
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kCount; ++i) {
      engine.offer(frames[i & 4095], sim::Direction::kInbound);
      if ((i & 63) == 0) engine.drain();
    }
    engine.drain();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
           static_cast<double>(kCount);
  };
  obs::set_trace_sample_period(256);  // production default
  // Warm the pool and caches, then interleave off/on pairs and take the
  // per-mode minimum, so frequency and cache drift hit both modes alike.
  obs::set_tracing_enabled(false);
  run_once();
  double off_ns = 1e18, on_ns = 1e18;
  for (int r = 0; r < 7; ++r) {
    obs::set_tracing_enabled(false);
    off_ns = std::min(off_ns, run_once());
    obs::set_tracing_enabled(true);
    on_ns = std::min(on_ns, run_once());
  }

  const double overhead = (on_ns - off_ns) / off_ns * 100.0;
  std::puts("\n=== T-CAP: observability overhead (4 shards, IMIX) ===");
  std::printf("tracing off: %7.1f ns/pkt (%.2f Mpps)\n", off_ns,
              1e3 / off_ns);
  std::printf("tracing on:  %7.1f ns/pkt (%.2f Mpps), 1/256 sampling\n",
              on_ns, 1e3 / on_ns);
  std::printf("overhead: %+.2f%% (target <= 3%%) — %s\n", overhead,
              overhead <= 3.0 ? "OK" : "REGRESSION");
  std::puts("shape: counters are relaxed fetch_adds resolved once; timers "
            "pay two clock reads only on the sampled 1/256 of packets.");
}

/// Fault recovery at the 4-shard knee configuration: a worker death
/// (sink exception) injected every 100 000th dispatch, supervisor
/// armed. The run must complete with restarts == injected deaths,
/// nothing unaccounted, and the restart tail visible from the
/// resilience.restart_ns histogram. Then the bill for the always-on
/// machinery: armed-but-idle injector vs disarmed (chaos-mode tax,
/// informational) and the disarmed per-packet check the shipped binary
/// pays permanently (gated <= 1% of the pipeline budget).
void print_fault_recovery_table() {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCount = 400'000;
  constexpr std::uint64_t kDeathEvery = 100'000;
  auto frames = make_imix(4096, 23);

  std::puts("\n=== T-CAP: fault recovery (4 shards, worker death every "
            "100k dispatches) ===");

  const auto snap_before = obs::Registry::global().snapshot();
  const auto* hist_before = snap_before.find("resilience.restart_ns");

  resilience::FaultPlan plan;
  plan.seed = resilience::FaultPlan::seed_from_env(1);
  plan.faults.push_back({.site = "capture.sink_dispatch",
                         .kind = resilience::FaultKind::kThrow,
                         .every_n = kDeathEvery});
  std::uint64_t fires = 0, restarts = 0, quarantines = 0;
  std::vector<std::uint64_t> delivered_per_shard(kShards, 0);
  capture::CaptureStats stats;
  {
    resilience::FaultScope scope(plan);
    capture::ShardedCaptureConfig cfg;
    cfg.shards = kShards;
    cfg.ring_capacity = 1 << 14;
    cfg.max_worker_restarts = 64;
    capture::ShardedCaptureEngine engine(cfg);
    engine.add_sink_factory([&](std::size_t s) {
      return [&delivered_per_shard, s](const capture::DecodedPacket&) {
        ++delivered_per_shard[s];
      };
    });
    engine.start();
    for (std::size_t i = 0; i < kCount;) {
      if (engine.offer(frames[i & 4095], sim::Direction::kInbound)) ++i;
    }
    engine.stop();
    fires = scope.injector().total_fires();
    restarts = engine.worker_restarts();
    quarantines = engine.quarantined_shards();
    stats = engine.stats();
  }

  const auto snap_after = obs::Registry::global().snapshot();
  const auto* hist_after = snap_after.find("resilience.restart_ns");
  obs::HistogramSnapshot restart{};
  if (hist_after != nullptr) {
    restart = hist_before != nullptr
                  ? hist_after->histogram.since(hist_before->histogram)
                  : hist_after->histogram;
  }

  std::uint64_t delivered = 0;
  for (const auto d : delivered_per_shard) delivered += d;
  const std::uint64_t lost =
      stats.accepted - stats.consumed - stats.abandoned;

  std::printf("injected worker deaths: %" PRIu64
              " (every %" PRIu64 "th dispatch, seed %" PRIu64 ")\n",
              fires, kDeathEvery, plan.seed);
  std::printf("supervisor restarts: %" PRIu64 " (%s injected), "
              "quarantines: %" PRIu64 "\n",
              restarts, restarts == fires ? "==" : "MISMATCH vs",
              quarantines);
  std::printf("time-to-restart: p50=%.0f ns  p99=%.0f ns  (n=%" PRIu64
              ")\n",
              restart.quantile(0.50), restart.quantile(0.99),
              restart.count);
  std::printf("accounting: offered=%" PRIu64 " (retry-on-full) "
              "accepted=%" PRIu64 " consumed=%" PRIu64 " abandoned=%"
              PRIu64 "\n",
              stats.offered, stats.accepted, stats.consumed,
              stats.abandoned);
  std::printf("packets lost per death: %.2f (unaccounted: %" PRIu64
              "); undelivered in-flight per death: %.2f (counted "
              "consumed)\n",
              fires > 0 ? static_cast<double>(lost) /
                              static_cast<double>(fires)
                        : 0.0,
              lost,
              fires > 0 ? static_cast<double>(stats.consumed - delivered) /
                              static_cast<double>(fires)
                        : 0.0);

  // --- the no-fault bill -------------------------------------------
  // Same interleaved min-of-7 discipline as the obs table: the full
  // single-threaded pipeline (offer + hash + ring + sinks + flow
  // meter), injector disarmed vs armed with a plan that never fires.
  const auto run_once = [&frames]() -> double {
    capture::ShardedCaptureConfig cfg;
    cfg.shards = kShards;
    cfg.ring_capacity = 1 << 14;
    capture::ShardedCaptureEngine engine(cfg);
    std::vector<std::unique_ptr<capture::FlowMeter>> meters;
    for (std::size_t s = 0; s < kShards; ++s)
      meters.push_back(std::make_unique<capture::FlowMeter>());
    engine.add_sink_factory([&](std::size_t s) {
      return [meter = meters[s].get()](const capture::DecodedPacket& t) {
        meter->offer(t.pkt, t.view, t.dir);
      };
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kCount; ++i) {
      engine.offer(frames[i & 4095], sim::Direction::kInbound);
      if ((i & 63) == 0) engine.drain();
    }
    engine.drain();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
           static_cast<double>(kCount);
  };
  resilience::FaultPlan idle;
  idle.seed = 1;
  idle.faults.push_back({.site = "capture.sink_dispatch",
                         .kind = resilience::FaultKind::kThrow,
                         .every_n = 1'000'000'000'000ull});
  idle.faults.push_back({.site = "flow.update",
                         .kind = resilience::FaultKind::kThrow,
                         .every_n = 1'000'000'000'000ull});
  run_once();  // warm pool and caches
  double off_ns = 1e18, on_ns = 1e18;
  for (int r = 0; r < 7; ++r) {
    off_ns = std::min(off_ns, run_once());
    {
      resilience::FaultScope scope(idle);
      on_ns = std::min(on_ns, run_once());
    }
  }

  // The shipped binary runs disarmed: its permanent cost is the null
  // check at each injection point. Calibrate that check directly and
  // express it against the measured per-packet pipeline budget (two
  // hot-path sites: sink dispatch + flow update).
  constexpr std::size_t kProbe = 20'000'000;
  const auto p0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kProbe; ++i)
    resilience::fault_point("capture.sink_dispatch");
  const auto p1 = std::chrono::steady_clock::now();
  const double check_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(p1 - p0)
              .count()) /
      static_cast<double>(kProbe);
  const double disarmed_pct = 2.0 * check_ns / off_ns * 100.0;
  const double armed_pct = (on_ns - off_ns) / off_ns * 100.0;

  std::puts("--- overhead when no faults fire (interleaved min of 7) ---");
  std::printf("injector disarmed: %7.1f ns/pkt (%.2f Mpps)\n", off_ns,
              1e3 / off_ns);
  std::printf("armed, zero fires: %7.1f ns/pkt (%+.2f%% — chaos-mode "
              "tax, paid only under an installed plan)\n",
              on_ns, armed_pct);
  std::printf("disarmed check: %.2f ns/site x 2 sites = %+.2f%% of the "
              "pipeline (target <= 1%%) — %s\n",
              check_ns, disarmed_pct,
              disarmed_pct <= 1.0 ? "OK" : "REGRESSION");
  std::puts("shape: recovery is the catch-to-repoll hop (sub-us); the "
            "in-flight frame of each death is consumed-not-delivered, "
            "and nothing leaves the accounting identities.");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Stage latencies first: the global histograms are clean, so the
  // table's counts are exactly this table's packets.
  print_stage_latency_table();
  print_obs_overhead_table();
  print_allocation_table();
  print_loss_table();
  print_sharded_loss_table();
  print_fault_recovery_table();
  return 0;
}
