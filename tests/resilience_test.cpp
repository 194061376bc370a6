// campuslab::resilience tests — deterministic fault injection, retry
// with backoff, the health state machine / degradation tiers, and the
// supervised sharded capture pipeline under chaos:
//   - FaultInjector firing patterns are pure functions of the plan
//   - retry_status backoff/deadline behavior, wall-clock free
//   - HealthMonitor escalates instantly, recovers with hysteresis
//   - worker deaths are caught, counted, restarted; budgets quarantine
//   - bounded stop-drain abandons (and counts) what a wedged sink holds
//   - the golden-trace fixture replayed under every fault class ends
//     Healthy with exact accounting and zero FastLoop verdicts shed
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "campuslab/capture/flow.h"
#include "campuslab/capture/sharded_engine.h"
#include "campuslab/control/development_loop.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/features/packet_dataset.h"
#include "campuslab/features/packet_features.h"
#include "campuslab/obs/registry.h"
#include "campuslab/packet/builder.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/resilience/health.h"
#include "campuslab/resilience/retry.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/packet_archive.h"
#include "campuslab/store/sharded_ingest.h"
#include "campuslab/util/rng.h"

namespace campuslab {
namespace {

using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::FaultScope;
using resilience::FaultSpec;
using resilience::HealthState;
using resilience::RetryPolicy;
using resilience::ShedClass;

packet::Packet make_udp(std::uint16_t src_port, std::int64_t ts_ns = 1000) {
  return PacketBuilder(Timestamp::from_nanos(ts_ns))
      .udp(Endpoint{MacAddress::from_id(1), Ipv4Address(10, 0, 16, 2),
                    src_port},
           Endpoint{MacAddress::from_id(2), Ipv4Address(8, 8, 8, 8), 53})
      .payload_size(32)
      .build();
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, EveryNFiresOnSchedule) {
  FaultPlan plan;
  plan.faults.push_back({.site = "t.every", .kind = FaultKind::kFail,
                         .every_n = 3});
  FaultInjector injector(plan);
  std::string pattern;
  for (int i = 0; i < 9; ++i)
    pattern.push_back(injector.evaluate("t.every") != nullptr ? '1' : '0');
  EXPECT_EQ(pattern, "001001001");
  EXPECT_EQ(injector.fires("t.every"), 3u);
  EXPECT_EQ(injector.hits("t.every"), 9u);
}

TEST(FaultInjector, SkipFirstAndMaxFiresBound) {
  FaultPlan plan;
  plan.faults.push_back({.site = "t.skip", .kind = FaultKind::kFail,
                         .every_n = 1, .skip_first = 5, .max_fires = 2});
  FaultInjector injector(plan);
  std::string pattern;
  for (int i = 0; i < 10; ++i)
    pattern.push_back(injector.evaluate("t.skip") != nullptr ? '1' : '0');
  // Hits 0-4 skipped, hits 5 and 6 fire, then the budget is spent.
  EXPECT_EQ(pattern, "0000011000");
  EXPECT_EQ(injector.fires("t.skip"), 2u);
}

TEST(FaultInjector, ProbabilityPatternIsSeedDeterministic) {
  auto pattern_for = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.faults.push_back({.site = "t.prob", .kind = FaultKind::kFail,
                           .probability = 0.3});
    FaultInjector injector(plan);
    std::string pattern;
    for (int i = 0; i < 400; ++i)
      pattern.push_back(injector.evaluate("t.prob") != nullptr ? '1' : '0');
    return pattern;
  };
  const auto a1 = pattern_for(7), a2 = pattern_for(7), b = pattern_for(8);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  const auto fires = static_cast<double>(
      std::count(a1.begin(), a1.end(), '1'));
  EXPECT_NEAR(fires / 400.0, 0.3, 0.1);
}

TEST(FaultInjector, UnknownSiteAndDisarmedAreNoOps) {
  FaultPlan plan;
  plan.faults.push_back({.site = "t.known", .kind = FaultKind::kThrow,
                         .every_n = 1});
  {
    FaultScope scope(plan);
    EXPECT_EQ(scope.injector().evaluate("t.unknown"), nullptr);
    EXPECT_NO_THROW(resilience::fault_point("t.unknown"));
    EXPECT_THROW(resilience::fault_point("t.known"),
                 resilience::FaultInjected);
  }
  // Scope exited: the site is live code but completely disarmed.
  EXPECT_NO_THROW(resilience::fault_point("t.known"));
  EXPECT_EQ(FaultInjector::current(), nullptr);
}

TEST(FaultInjector, StatusChannelReportsInsteadOfThrowing) {
  FaultPlan plan;
  plan.faults.push_back({.site = "t.status", .kind = FaultKind::kFail,
                         .every_n = 2});
  FaultScope scope(plan);
  EXPECT_TRUE(resilience::fault_point_status("t.status").ok());
  const auto failed = resilience::fault_point_status("t.status");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, "fault_injected");
}

TEST(FaultInjector, FiresAreMirroredToObsCounters) {
  auto& counter = obs::Registry::global().counter(
      "resilience.faults_injected_total", "site=t.mirror");
  const auto before = counter.value();
  FaultPlan plan;
  plan.faults.push_back({.site = "t.mirror", .kind = FaultKind::kFail,
                         .every_n = 2});
  FaultInjector injector(plan);
  for (int i = 0; i < 10; ++i) (void)injector.evaluate("t.mirror");
  EXPECT_EQ(counter.value() - before, injector.fires("t.mirror"));
  EXPECT_EQ(injector.fires("t.mirror"), 5u);
}

TEST(FaultPlan, SeedComesFromEnvironment) {
  ::setenv("CAMPUSLAB_FAULT_SEED", "42", 1);
  EXPECT_EQ(FaultPlan::seed_from_env(7), 42u);
  ::setenv("CAMPUSLAB_FAULT_SEED", "junk", 1);
  EXPECT_EQ(FaultPlan::seed_from_env(7), 7u);
  ::unsetenv("CAMPUSLAB_FAULT_SEED");
  EXPECT_EQ(FaultPlan::seed_from_env(7), 7u);
}

// ---------------------------------------------------------------------------
// Retry

TEST(Retry, SucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  Rng rng(1);
  int calls = 0;
  std::vector<Duration> sleeps;
  resilience::RetryTelemetry telemetry;
  const auto status = resilience::retry_status(
      policy, rng, "t.transient",
      [&calls]() -> Status {
        return ++calls < 3 ? Status(Error::make("io", "blip"))
                           : Status::success();
      },
      [&sleeps](Duration d) { sleeps.push_back(d); }, &telemetry);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(telemetry.attempts, 3u);
  ASSERT_EQ(sleeps.size(), 2u);  // backoff between attempts only
}

TEST(Retry, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff = Duration::millis(1);
  policy.max_backoff = Duration::millis(8);
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(resilience::backoff_for(policy, 1, rng).count_nanos(),
            Duration::millis(1).count_nanos());
  EXPECT_EQ(resilience::backoff_for(policy, 2, rng).count_nanos(),
            Duration::millis(2).count_nanos());
  EXPECT_EQ(resilience::backoff_for(policy, 4, rng).count_nanos(),
            Duration::millis(8).count_nanos());
  // Past the cap it stays capped.
  EXPECT_EQ(resilience::backoff_for(policy, 10, rng).count_nanos(),
            Duration::millis(8).count_nanos());
}

TEST(Retry, JitterStaysInBounds) {
  RetryPolicy policy;
  policy.initial_backoff = Duration::millis(10);
  policy.max_backoff = Duration::millis(10);
  policy.jitter = 0.2;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const auto b = resilience::backoff_for(policy, 1, rng);
    EXPECT_GE(b.count_nanos(), Duration::millis(8).count_nanos());
    EXPECT_LE(b.count_nanos(), Duration::millis(12).count_nanos());
  }
}

TEST(Retry, ExhaustionKeepsStableCode) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline = Duration::seconds(100);
  Rng rng(1);
  int calls = 0;
  const auto status = resilience::retry_status(
      policy, rng, "t.exhaust",
      [&calls]() -> Status {
        ++calls;
        return Error::make("io", "still down");
      },
      [](Duration) {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "retry_exhausted");
  EXPECT_EQ(calls, 3);
}

TEST(Retry, DeadlineBoundsTotalBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = Duration::millis(10);
  policy.max_backoff = Duration::millis(10);
  policy.jitter = 0.0;
  policy.deadline = Duration::millis(25);  // room for 2 sleeps, not 3
  Rng rng(1);
  int calls = 0;
  std::vector<Duration> sleeps;
  const auto status = resilience::retry_status(
      policy, rng, "t.deadline",
      [&calls]() -> Status {
        ++calls;
        return Error::make("io", "down");
      },
      [&sleeps](Duration d) { sleeps.push_back(d); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "retry_deadline");
  EXPECT_EQ(calls, 3);  // try, sleep 10, try, sleep 10, try, give up
  EXPECT_EQ(sleeps.size(), 2u);
}

// ---------------------------------------------------------------------------
// Health / degradation

TEST(HealthMonitor, EscalatesImmediatelyRecoversWithDebounce) {
  resilience::HealthConfig cfg;  // 0.50 / 0.85, margin 0.15, 3 samples
  resilience::HealthMonitor monitor(cfg);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  // One hot sample jumps straight to Shedding.
  EXPECT_EQ(monitor.update(0.9), HealthState::kShedding);
  // Calm samples step down ONE tier per debounce window.
  EXPECT_EQ(monitor.update(0.1), HealthState::kShedding);
  EXPECT_EQ(monitor.update(0.1), HealthState::kShedding);
  EXPECT_EQ(monitor.update(0.1), HealthState::kDegraded);
  EXPECT_EQ(monitor.update(0.1), HealthState::kDegraded);
  EXPECT_EQ(monitor.update(0.1), HealthState::kDegraded);
  EXPECT_EQ(monitor.update(0.1), HealthState::kHealthy);
  EXPECT_GE(monitor.transitions(), 3u);
}

TEST(HealthMonitor, HysteresisMarginPreventsFlapping) {
  resilience::HealthMonitor monitor{resilience::HealthConfig{}};
  EXPECT_EQ(monitor.update(0.6), HealthState::kDegraded);
  // 0.45 is below the 0.50 entry threshold but above 0.50 - 0.15: not
  // calm enough to start recovering — the boundary cannot flap.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(monitor.update(0.45), HealthState::kDegraded);
  // A dip under the margin for the debounce window does recover.
  monitor.update(0.30);
  monitor.update(0.30);
  EXPECT_EQ(monitor.update(0.30), HealthState::kHealthy);
}

TEST(HealthMonitor, LatencySignalEscalatesToo) {
  resilience::HealthConfig cfg;
  cfg.degraded_p99_ns = 1000;
  cfg.shedding_p99_ns = 10000;
  resilience::HealthMonitor monitor(cfg);
  EXPECT_EQ(monitor.update(0.0, 500), HealthState::kHealthy);
  EXPECT_EQ(monitor.update(0.0, 2000), HealthState::kDegraded);
  EXPECT_EQ(monitor.update(0.0, 20000), HealthState::kShedding);
}

TEST(DegradationController, ShedMatrixFollowsTiers) {
  resilience::DegradationController controller;
  // Healthy: nothing sheds.
  EXPECT_FALSE(controller.should_shed(ShedClass::kDatasetRow));
  EXPECT_FALSE(controller.should_shed(ShedClass::kArchiveWrite));
  // Degraded: dataset rows only.
  controller.update(0.6);
  EXPECT_TRUE(controller.should_shed(ShedClass::kDatasetRow));
  EXPECT_FALSE(controller.should_shed(ShedClass::kArchiveWrite));
  // Shedding: archive writes go too.
  controller.update(0.95);
  EXPECT_TRUE(controller.should_shed(ShedClass::kDatasetRow));
  EXPECT_TRUE(controller.should_shed(ShedClass::kArchiveWrite));
  EXPECT_EQ(controller.shed_count(ShedClass::kDatasetRow), 2u);
  EXPECT_EQ(controller.shed_count(ShedClass::kArchiveWrite), 1u);
}

TEST(DegradationController, FastLoopVerdictsStructurallyNeverShed) {
  resilience::DegradationController controller;
  controller.update(0.99);  // deepest tier
  ASSERT_EQ(controller.state(), HealthState::kShedding);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(controller.should_shed(ShedClass::kFastLoopVerdict));
  EXPECT_EQ(controller.shed_count(ShedClass::kFastLoopVerdict), 0u);
  EXPECT_EQ(controller.fastloop_protected(), 100u);
}

TEST(DegradationController, DatasetRowsShedUnderDegraded) {
  resilience::DegradationController controller;
  controller.update(0.6);
  features::PacketDatasetCollector collector;
  collector.set_degradation(&controller);
  for (int i = 0; i < 20; ++i) {
    const capture::DecodedPacket frame(
        make_udp(static_cast<std::uint16_t>(1000 + i)),
        sim::Direction::kInbound);
    collector.offer(frame.pkt, frame.view, frame.dir);
  }
  // Extractor state advanced for every packet, but no rows were kept.
  EXPECT_EQ(collector.packets_seen(), 20u);
  EXPECT_EQ(collector.rows_collected(), 0u);
  EXPECT_EQ(controller.shed_count(ShedClass::kDatasetRow), 20u);
}

TEST(DegradationController, ArchiveWritesShedUnderShedding) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("campuslab_shed_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto archive = store::PacketArchive::open({.directory = dir.string()});
  ASSERT_TRUE(archive.ok());
  resilience::DegradationController controller;
  archive.value().set_degradation(&controller);

  EXPECT_TRUE(archive.value().write(make_udp(1)).ok());
  controller.update(0.95);
  EXPECT_TRUE(archive.value().write(make_udp(2)).ok());  // shed == success
  EXPECT_EQ(archive.value().records_written(), 1u);
  EXPECT_EQ(controller.shed_count(ShedClass::kArchiveWrite), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Supervised sharded engine

TEST(Supervisor, WorkerDeathsAreCaughtCountedAndRestarted) {
  FaultPlan plan;
  plan.faults.push_back({.site = "capture.sink_dispatch",
                         .kind = FaultKind::kThrow, .every_n = 100,
                         .max_fires = 5});
  FaultScope scope(plan);

  capture::ShardedCaptureEngine engine({.shards = 2});
  std::atomic<std::uint64_t> seen{0};
  engine.add_sink_factory([&seen](std::size_t) {
    return [&seen](const capture::DecodedPacket&) { ++seen; };
  });
  engine.start();
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    auto pkt = make_udp(static_cast<std::uint16_t>(rng.below(60000)),
                        1000 + i);
    while (!engine.offer(std::move(pkt), sim::Direction::kInbound)) {
      std::this_thread::yield();  // lossless offer: retry ring-full
      pkt = make_udp(static_cast<std::uint16_t>(rng.below(60000)), 1000 + i);
    }
  }
  engine.stop();

  const auto fires = scope.injector().fires("capture.sink_dispatch");
  EXPECT_EQ(fires, 5u);
  // Every injected death was supervised: restarts match fires exactly,
  // no shard hit its budget, and accounting is exact — the only frames
  // the sinks missed are the ones whose dispatch threw.
  EXPECT_EQ(engine.worker_restarts(), fires);
  EXPECT_EQ(engine.quarantined_shards(), 0u);
  const auto s = engine.stats();
  EXPECT_EQ(s.offered, 2000u);
  EXPECT_EQ(s.accepted + s.dropped, s.offered);
  EXPECT_EQ(s.consumed + s.abandoned, s.accepted);
  EXPECT_EQ(s.abandoned, 0u);
  EXPECT_EQ(seen.load(), s.consumed - fires);
}

TEST(Supervisor, RestartBudgetQuarantinesAndReroutes) {
  capture::ShardedCaptureEngine engine(
      {.shards = 2, .max_worker_restarts = 1});
  // Shard 1's sink always throws — a persistent failure, not transient.
  std::atomic<std::uint64_t> shard0_seen{0};
  engine.add_sink_factory([&shard0_seen](std::size_t shard) {
    return [&shard0_seen, shard](const capture::DecodedPacket&) {
      if (shard == 1) throw std::runtime_error("persistently broken sink");
      ++shard0_seen;
    };
  });
  // Find a packet that hashes to each shard.
  std::uint16_t port_for[2] = {0, 0};
  for (std::uint16_t p = 1; port_for[0] == 0 || port_for[1] == 0; ++p) {
    const auto pkt = make_udp(p);
    port_for[engine.shard_of(packet::PacketView(pkt))] = p;
  }

  engine.start();
  // Feed shard 1 until its two worker deaths exhaust the budget of 1.
  for (int i = 0; i < 1000 && !engine.shard_quarantined(1); ++i) {
    (void)engine.offer(make_udp(port_for[1], 1000 + i),
                       sim::Direction::kInbound);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(engine.shard_quarantined(1));
  EXPECT_EQ(engine.worker_restarts(1), 2u);  // budget 1 + the fatal death

  // Shard 1's slice now reroutes to the survivor and is processed there.
  const auto seen_before = shard0_seen.load();
  const auto rerouted_before = engine.rerouted_packets();
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(engine.offer(make_udp(port_for[1], 500000 + i),
                             sim::Direction::kInbound));
  engine.stop();
  EXPECT_EQ(engine.rerouted_packets() - rerouted_before, 50u);
  EXPECT_EQ(shard0_seen.load() - seen_before, 50u);

  // Quarantine abandons, it does not lose: global identity still exact.
  const auto s = engine.stats();
  EXPECT_EQ(s.accepted + s.dropped, s.offered);
  EXPECT_EQ(s.consumed + s.abandoned, s.accepted);
}

TEST(Supervisor, BoundedStopDrainAbandonsWedgedSink) {
  capture::ShardedCaptureEngine engine({.shards = 1,
                                        .poll_batch = 4,
                                        .stop_drain_deadline =
                                            Duration::millis(20)});
  engine.add_sink_factory([](std::size_t) {
    return [](const capture::DecodedPacket&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));  // wedged
    };
  });
  for (int i = 0; i < 400; ++i)
    ASSERT_TRUE(engine.offer(make_udp(static_cast<std::uint16_t>(1 + i)),
                             sim::Direction::kInbound));
  engine.start();
  const auto t0 = std::chrono::steady_clock::now();
  engine.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  // 400 frames * 2ms each would be 800ms of drain; the deadline cut it.
  EXPECT_LT(stop_ms, 500);
  const auto s = engine.stats();
  EXPECT_GT(s.abandoned, 0u);
  EXPECT_GT(s.drained_on_stop, 0u);
  EXPECT_LE(s.drained_on_stop, s.consumed);
  EXPECT_EQ(s.consumed + s.abandoned, s.accepted);
  EXPECT_EQ(s.accepted + s.dropped, s.offered);
}

TEST(Supervisor, UnboundedDrainStillRunsToEmpty) {
  capture::ShardedCaptureEngine engine(
      {.shards = 1, .stop_drain_deadline = Duration::nanos(0)});
  std::atomic<std::uint64_t> seen{0};
  engine.add_sink_factory([&seen](std::size_t) {
    return [&seen](const capture::DecodedPacket&) { ++seen; };
  });
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(engine.offer(make_udp(static_cast<std::uint16_t>(1 + i)),
                             sim::Direction::kInbound));
  engine.start();
  engine.stop();
  const auto s = engine.stats();
  EXPECT_EQ(s.abandoned, 0u);
  EXPECT_EQ(s.consumed, s.accepted);
  EXPECT_EQ(seen.load(), s.consumed);
}

// The chaos-CI gate: with no faults armed, a 1-shard pipeline must
// never restart, quarantine, or abandon anything.
TEST(Supervisor, OneShardBaselineIsQuiet) {
  capture::ShardedCaptureEngine engine({.shards = 1});
  std::atomic<std::uint64_t> seen{0};
  engine.add_sink_factory([&seen](std::size_t) {
    return [&seen](const capture::DecodedPacket&) { ++seen; };
  });
  engine.start();
  for (int i = 0; i < 5000; ++i) {
    auto pkt = make_udp(static_cast<std::uint16_t>(1 + (i % 60000)), i);
    while (!engine.offer(std::move(pkt), sim::Direction::kInbound)) {
      std::this_thread::yield();
      pkt = make_udp(static_cast<std::uint16_t>(1 + (i % 60000)), i);
    }
  }
  engine.stop();
  EXPECT_EQ(engine.worker_restarts(), 0u);
  EXPECT_EQ(engine.quarantined_shards(), 0u);
  const auto s = engine.stats();
  EXPECT_EQ(s.offered, 5000u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.abandoned, 0u);
  EXPECT_EQ(s.consumed, s.accepted);
  EXPECT_EQ(seen.load(), 5000u);
}

// ---------------------------------------------------------------------------
// Store retry paths

capture::FlowRecord make_flow(std::uint16_t port, std::int64_t ts_ns) {
  capture::FlowRecord f;
  f.tuple = packet::FiveTuple{Ipv4Address(10, 0, 16, 2),
                              Ipv4Address(8, 8, 8, 8), port, 53, 17};
  f.first_ts = Timestamp::from_nanos(ts_ns);
  f.last_ts = f.first_ts;
  f.packets = 1;
  f.bytes = 100;
  return f;
}

TEST(StoreRetry, TransientIngestFailuresAreRetriedThrough) {
  // Every 3rd ingest attempt fails; a 2-attempt retry always clears it.
  FaultPlan plan;
  plan.faults.push_back({.site = "store.ingest", .kind = FaultKind::kFail,
                         .every_n = 3});
  FaultScope scope(plan);

  store::ShardedFlowIngester ingester(2);
  for (int i = 0; i < 20; ++i)
    ingester.ingest(static_cast<std::size_t>(i % 2),
                    make_flow(static_cast<std::uint16_t>(1000 + i), i));
  store::DataStore store;
  RetryPolicy policy;
  const auto result = ingester.merge_into(store, policy, [](Duration) {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 20u);
  EXPECT_EQ(ingester.pending(), 0u);
  EXPECT_EQ(store.catalog().total_flows, 20u);
  EXPECT_GT(scope.injector().fires("store.ingest"), 0u);
}

TEST(StoreRetry, ExhaustionRebuffersTailAndRecoversNextMerge) {
  store::ShardedFlowIngester ingester(2);
  for (int i = 0; i < 10; ++i)
    ingester.ingest(static_cast<std::size_t>(i % 2),
                    make_flow(static_cast<std::uint16_t>(2000 + i), i));
  store::DataStore store;
  RetryPolicy policy;
  policy.max_attempts = 2;
  {
    // Hard outage: every attempt fails, retries exhaust mid-merge.
    FaultPlan plan;
    plan.faults.push_back({.site = "store.ingest", .kind = FaultKind::kFail,
                           .every_n = 1});
    FaultScope scope(plan);
    const auto result = ingester.merge_into(store, policy, [](Duration) {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, "retry_exhausted");
  }
  // Nothing ingested, nothing lost: all 10 flows still pending.
  EXPECT_EQ(store.catalog().total_flows, 0u);
  EXPECT_EQ(ingester.pending(), 10u);
  // Outage over: the re-buffered flows merge completely.
  const auto result = ingester.merge_into(store, policy, [](Duration) {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 10u);
  EXPECT_EQ(ingester.pending(), 0u);
  EXPECT_EQ(store.catalog().total_flows, 10u);
}

TEST(StoreRetry, PartialExhaustionKeepsIngestedPrefix) {
  store::ShardedFlowIngester ingester(1);
  for (int i = 0; i < 10; ++i)
    ingester.ingest(0, make_flow(static_cast<std::uint16_t>(3000 + i), i));
  store::DataStore store;
  RetryPolicy policy;
  policy.max_attempts = 2;
  {
    // First 4 ingest attempts succeed, everything after fails: the
    // merge lands a prefix, then exhausts.
    FaultPlan plan;
    plan.faults.push_back({.site = "store.ingest", .kind = FaultKind::kFail,
                           .every_n = 1, .skip_first = 4});
    FaultScope scope(plan);
    const auto result = ingester.merge_into(store, policy, [](Duration) {});
    ASSERT_FALSE(result.ok());
  }
  EXPECT_EQ(store.catalog().total_flows, 4u);
  EXPECT_EQ(ingester.pending(), 6u);
  const auto result = ingester.merge_into(store, policy, [](Duration) {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 6u);
  EXPECT_EQ(store.catalog().total_flows, 10u);
  EXPECT_EQ(ingester.merged_total(), 10u);
}

// ---------------------------------------------------------------------------
// Chaos suite: the golden-trace fixture replayed through the full
// supervised pipeline — engine workers, flow meters, dataset collector,
// store ingest, FastLoop — once per fault class. Regardless of what is
// injected, the run must end with exact accounting, every fault
// recorded in obs, zero FastLoop verdicts shed, and a pipeline that
// reports Healthy once the pressure is gone.

struct ChaosFrame {
  std::int64_t ts_ns = 0;
  sim::Direction dir = sim::Direction::kInbound;
  packet::TrafficLabel label = packet::TrafficLabel::kBenign;
  std::vector<std::uint8_t> bytes;
};

std::vector<ChaosFrame> read_golden_fixture() {
  std::ifstream in(CAMPUSLAB_TEST_DATA_DIR "/golden_trace_frames.txt");
  std::vector<ChaosFrame> trace;
  std::string line;
  auto nibble = [](char c) -> std::uint8_t {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    int dir = 0, label = 0;
    std::string hex;
    ChaosFrame f;
    fields >> f.ts_ns >> dir >> label >> hex;
    f.dir = static_cast<sim::Direction>(dir);
    f.label = static_cast<packet::TrafficLabel>(label);
    f.bytes.reserve(hex.size() / 2);
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
      f.bytes.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) |
                                                  nibble(hex[i + 1])));
    trace.push_back(std::move(f));
  }
  return trace;
}

/// Stump over quantized frame size — attack-sized DNS responses land
/// above the split with confidence 1.0 (same package as obs_test).
control::DeploymentPackage make_chaos_package() {
  ml::Dataset data(features::packet_feature_names(), {"benign", "attack"});
  std::vector<double> row(features::kPacketFeatureCount, 0.0);
  for (int i = 0; i < 20; ++i) {
    row[static_cast<std::size_t>(features::PacketFeature::kFrameBytes)] =
        500.0;
    data.add(row, 0);
    row[static_cast<std::size_t>(features::PacketFeature::kFrameBytes)] =
        900.0;
    data.add(row, 1);
  }
  ml::TreeConfig cfg;
  cfg.max_depth = 2;
  control::DeploymentPackage package;
  package.student = ml::DecisionTree(cfg);
  package.student.fit(data);
  package.task = control::AutomationTask::dns_amplification_drop();
  std::vector<std::pair<double, double>> ranges(
      features::kPacketFeatureCount,
      {0.0, static_cast<double>(dataplane::Quantizer::kMaxQ) + 1.0});
  package.quantizer = dataplane::Quantizer::from_ranges(std::move(ranges));
  package.strategy = "tree_walk";
  return package;
}

void run_chaos_class(const char* name, FaultSpec spec) {
  SCOPED_TRACE(name);
  const auto trace = read_golden_fixture();
  ASSERT_GT(trace.size(), 100u) << "golden fixture missing";

  FaultPlan plan;
  plan.seed = FaultPlan::seed_from_env(1);
  plan.faults.push_back(std::move(spec));
  const std::string site = plan.faults[0].site;
  auto& fault_counter = obs::Registry::global().counter(
      "resilience.faults_injected_total", "site=" + site);
  const auto counter_before = fault_counter.value();
  FaultScope scope(plan);

  constexpr std::size_t kShards = 2;
  // Budget must absorb every injected worker death without quarantine:
  // the chaos contract is "survives and recovers", not "reroutes".
  capture::ShardedCaptureEngine engine({.shards = kShards,
                                        .ring_capacity = 1 << 9,
                                        .max_worker_restarts = 64});
  resilience::DegradationController controller;
  store::ShardedFlowIngester ingester(kShards);
  std::vector<std::unique_ptr<capture::FlowMeter>> meters;
  std::vector<std::unique_ptr<features::PacketDatasetCollector>> collectors;
  for (std::size_t s = 0; s < kShards; ++s) {
    meters.push_back(std::make_unique<capture::FlowMeter>());
    meters.back()->set_sink(
        [&ingester, s](const capture::FlowRecord& flow) {
          ingester.ingest(s, flow);
        });
    collectors.push_back(
        std::make_unique<features::PacketDatasetCollector>());
    collectors.back()->set_degradation(&controller);
  }
  engine.add_sink_factory([&meters, &collectors](std::size_t s) {
    return [meter = meters[s].get(), collector = collectors[s].get()](
               const capture::DecodedPacket& t) {
      meter->offer(t.pkt, t.view, t.dir);
      collector->offer(t.pkt, t.view, t.dir);
    };
  });

  auto loop = control::FastLoop::deploy(make_chaos_package());
  ASSERT_TRUE(loop.ok());
  loop.value()->set_degradation(&controller);

  engine.start();
  std::uint64_t inspected = 0;
  std::size_t i = 0;
  for (const auto& f : trace) {
    packet::Packet pkt;
    pkt.ts = Timestamp::from_nanos(f.ts_ns);
    pkt.label = f.label;
    pkt.assign(f.bytes);
    if (f.dir == sim::Direction::kInbound) {
      (void)loop.value()->inspect(pkt, packet::PacketView(pkt));
      ++inspected;
    }
    (void)engine.offer(std::move(pkt), f.dir);
    if (++i % 16 == 0) {
      double occ = 0.0;
      for (std::size_t s = 0; s < kShards; ++s)
        occ = std::max(occ, static_cast<double>(engine.ring_occupancy(s)) /
                                static_cast<double>(1 << 9));
      controller.update(occ);
    }
  }
  engine.stop();

  // Store merge rides the retry path (store.ingest faults land here).
  store::DataStore store;
  RetryPolicy policy;
  policy.max_attempts = 4;
  const auto merged = ingester.merge_into(store, policy, [](Duration) {});
  EXPECT_TRUE(merged.ok());

  // 1. Every injected fault is recorded in obs, and something fired.
  const auto fires = scope.injector().fires(site);
  EXPECT_GT(fires, 0u) << "fault class never fired — spec too sparse";
  EXPECT_EQ(fault_counter.value() - counter_before, fires);

  // 2. Worker deaths (if this class causes any) were all supervised.
  EXPECT_EQ(engine.quarantined_shards(), 0u);

  // 3. Accounting identity is exact despite the chaos.
  const auto s = engine.stats();
  EXPECT_EQ(s.accepted + s.dropped, s.offered);
  EXPECT_EQ(s.consumed + s.abandoned, s.accepted);

  // 4. FastLoop verdicts were never shed; the protected path saw every
  // inbound frame.
  EXPECT_EQ(controller.shed_count(ShedClass::kFastLoopVerdict), 0u);
  EXPECT_GE(controller.fastloop_protected(), inspected);
  EXPECT_EQ(loop.value()->stats().inspected, inspected);

  // 5. Pressure gone, the pipeline reports Healthy again.
  for (int calm = 0; calm < 8; ++calm) controller.update(0.0);
  EXPECT_EQ(controller.state(), HealthState::kHealthy);
}

TEST(ChaosGoldenTrace, SinkExceptionWorkerDeaths) {
  run_chaos_class("sink_throw",
                  {.site = "capture.sink_dispatch",
                   .kind = FaultKind::kThrow, .every_n = 40,
                   .max_fires = 6});
}

TEST(ChaosGoldenTrace, SlowConsumerDelays) {
  run_chaos_class("sink_delay",
                  {.site = "capture.sink_dispatch",
                   .kind = FaultKind::kDelay, .every_n = 25,
                   .delay = Duration::micros(200)});
}

TEST(ChaosGoldenTrace, FlowUpdateWorkerDeaths) {
  run_chaos_class("flow_throw",
                  {.site = "flow.update", .kind = FaultKind::kThrow,
                   .every_n = 60, .max_fires = 4});
}

TEST(ChaosGoldenTrace, DatasetAppendStalls) {
  run_chaos_class("dataset_delay",
                  {.site = "dataset.append", .kind = FaultKind::kDelay,
                   .every_n = 30, .delay = Duration::micros(150)});
}

TEST(ChaosGoldenTrace, StoreIngestFailuresRetried) {
  run_chaos_class("store_fail",
                  {.site = "store.ingest", .kind = FaultKind::kFail,
                   .every_n = 5});
}

TEST(StoreRetry, ArchiveWriteRetriesThroughInjectedFailures) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("campuslab_arch_retry_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto archive = store::PacketArchive::open({.directory = dir.string()});
  ASSERT_TRUE(archive.ok());
  FaultPlan plan;
  plan.faults.push_back({.site = "archive.write", .kind = FaultKind::kFail,
                         .every_n = 1, .max_fires = 2});
  FaultScope scope(plan);
  RetryPolicy policy;
  Rng rng(5);
  // First two attempts fail (injected), third lands.
  EXPECT_TRUE(archive.value().write(make_udp(9), policy, rng,
                                    [](Duration) {}).ok());
  EXPECT_EQ(archive.value().records_written(), 1u);
  EXPECT_EQ(scope.injector().fires("archive.write"), 2u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace campuslab
