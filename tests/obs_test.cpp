// campuslab::obs — metric primitives, registry semantics, stage
// tracing, and the end-to-end claim that one Registry::snapshot()
// exposes every pipeline stage.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/control/development_loop.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/features/packet_dataset.h"
#include "campuslab/features/packet_features.h"
#include "campuslab/obs/metrics.h"
#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/packet/builder.h"
#include "campuslab/store/shard.h"
#include "campuslab/store/sharded_ingest.h"

namespace campuslab {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricKind;
using obs::Registry;

TEST(ObsCounter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAddRead) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsHistogram, BucketBoundaries) {
  // Bucket b >= 1 covers [2^(b-1), 2^b); bucket 0 is exact zero.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(ObsHistogram, SnapshotCountsSumAndMean) {
  Histogram h;
  h.observe(0);
  h.observe(100);
  h.observe(200);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 300u);
  EXPECT_DOUBLE_EQ(snap.mean(), 100.0);
  EXPECT_EQ(snap.buckets[0], 1u);  // the zero
  EXPECT_EQ(snap.buckets[Histogram::bucket_of(100)], 1u);
  EXPECT_EQ(snap.buckets[Histogram::bucket_of(200)], 1u);
}

TEST(ObsHistogram, QuantilesLandInTheRightBucket) {
  Histogram h;
  // 900 fast events (~64ns bucket) and 100 slow ones (~8192ns bucket).
  for (int i = 0; i < 900; ++i) h.observe(64);
  for (int i = 0; i < 100; ++i) h.observe(8192);
  const auto snap = h.snapshot();
  // p50 must resolve inside the fast bucket [64, 128); p999 inside the
  // slow bucket [8192, 16384).
  const double p50 = snap.quantile(0.50);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 128.0);
  const double p999 = snap.quantile(0.999);
  EXPECT_GE(p999, 8192.0);
  EXPECT_LE(p999, 16384.0);
  // Quantiles are monotone in q.
  EXPECT_LE(snap.quantile(0.1), snap.quantile(0.9));
}

TEST(ObsHistogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 0.0);
}

TEST(ObsRegistry, GetOrCreateReturnsSameObject) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5u);
}

TEST(ObsRegistry, LabelsDistinguishMetrics) {
  Registry reg;
  Counter& s0 = reg.counter("drops", "shard=0");
  Counter& s1 = reg.counter("drops", "shard=1");
  EXPECT_NE(&s0, &s1);
  s0.add(3);
  s1.add(7);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("drops", "shard=0", -1), 3.0);
  EXPECT_DOUBLE_EQ(snap.value_or("drops", "shard=1", -1), 7.0);
}

TEST(ObsRegistry, KindsAreSeparateNamespaces) {
  Registry reg;
  reg.counter("m").add(2);
  reg.gauge("m").set(9);
  const auto snap = reg.snapshot();
  // Both exist, both named "m", different kinds.
  std::size_t counters = 0, gauges = 0;
  for (const auto& m : snap.metrics) {
    if (m.name != "m") continue;
    if (m.kind == MetricKind::kCounter) ++counters;
    if (m.kind == MetricKind::kGauge) ++gauges;
  }
  EXPECT_EQ(counters, 1u);
  EXPECT_EQ(gauges, 1u);
}

TEST(ObsRegistry, SnapshotIsSortedAndFindable) {
  Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("alpha", "shard=1").add(3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "alpha");
  EXPECT_EQ(snap.metrics[0].labels, "");
  EXPECT_EQ(snap.metrics[1].labels, "shard=1");
  EXPECT_EQ(snap.metrics[2].name, "zeta");
  ASSERT_NE(snap.find("alpha", "shard=1"), nullptr);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsRegistry, CallbackGaugesSampleLiveAndUnregister) {
  Registry reg;
  double level = 12.0;
  {
    auto handle =
        reg.register_callback("depth", "", [&level] { return level; });
    EXPECT_DOUBLE_EQ(reg.snapshot().value_or("depth", "", -1), 12.0);
    level = 30.0;  // live: next snapshot sees the new value
    EXPECT_DOUBLE_EQ(reg.snapshot().value_or("depth", "", -1), 30.0);
  }
  // Handle destroyed -> callback gone -> no dangling sample.
  EXPECT_EQ(reg.snapshot().find("depth"), nullptr);
}

TEST(ObsRegistry, DuplicateCallbacksSum) {
  // Two instances of one component exporting the same (name, labels)
  // aggregate, mirroring counter get-or-create semantics.
  Registry reg;
  auto h1 = reg.register_callback("pending", "", [] { return 4.0; });
  auto h2 = reg.register_callback("pending", "", [] { return 6.0; });
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or("pending", "", -1), 10.0);
}

TEST(ObsRegistry, CallbackHandleMoveTransfersOwnership) {
  Registry reg;
  auto h1 = reg.register_callback("g", "", [] { return 1.0; });
  Registry::CallbackHandle h2 = std::move(h1);
  EXPECT_NE(reg.snapshot().find("g"), nullptr);
  {
    Registry::CallbackHandle h3;
    h3 = std::move(h2);
    EXPECT_NE(reg.snapshot().find("g"), nullptr);
  }
  EXPECT_EQ(reg.snapshot().find("g"), nullptr);
}

TEST(ObsRegistry, TextExportFormatsCountersAndHistograms) {
  Registry reg;
  reg.counter("pkt.count", "shard=0").add(42);
  reg.histogram("lat_ns").observe(100);
  const auto text = reg.snapshot().to_text();
  EXPECT_NE(text.find("pkt.count{shard=0} 42"), std::string::npos);
  EXPECT_NE(text.find("lat_ns count=1"), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST(ObsRegistry, JsonExportIsWellFormedEnough) {
  Registry reg;
  reg.counter("c").add(1);
  reg.gauge("g", "shard=0").set(2);
  reg.histogram("h").observe(7);
  const auto json = reg.snapshot().to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":\"shard=0\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsCounterConcurrency, RelaxedAddsNeverLoseIncrements) {
  Registry reg;
  Counter& c = reg.counter("concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsStageTimer, RecordsWhenSamplingEveryEvent) {
  obs::set_trace_sample_period(1);
  obs::set_tracing_enabled(true);
  Histogram h;
  {
    obs::StageTimer t(h);
    EXPECT_TRUE(t.armed());
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  obs::set_trace_sample_period(256);
}

TEST(ObsStageTimer, DisabledTimersRecordNothing) {
  obs::set_trace_sample_period(1);
  obs::set_tracing_enabled(false);
  Histogram h;
  {
    obs::StageTimer t(h);
    EXPECT_FALSE(t.armed());
  }
  EXPECT_EQ(h.snapshot().count, 0u);
  obs::set_tracing_enabled(true);
  obs::set_trace_sample_period(256);
}

TEST(ObsStageTimer, CancelDiscardsTheMeasurement) {
  obs::set_trace_sample_period(1);
  Histogram h;
  {
    obs::StageTimer t(h);
    t.cancel();
  }
  EXPECT_EQ(h.snapshot().count, 0u);
  obs::set_trace_sample_period(256);
}

TEST(ObsStageTimer, SamplePeriodRoundsToPowerOfTwo) {
  obs::set_trace_sample_period(48);
  EXPECT_EQ(obs::trace_sample_period(), 64u);
  obs::set_trace_sample_period(0);
  EXPECT_EQ(obs::trace_sample_period(), 1u);
  obs::set_trace_sample_period(256);
}

// ---------------------------------------------------------------------------
// Integration: one snapshot of the global registry exposes the whole
// pipeline (the ISSUE's >= 6 stage acceptance bar).

using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;

Endpoint host(std::uint32_t id, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(id), Ipv4Address(10, 0, 0, id & 0xFF),
                  port};
}

/// A deterministic deployable package: a stump over quantized
/// kFrameBytes (identity quantizer), so FastLoop verdicts depend only
/// on frame size — no training randomness, no float fragility.
control::DeploymentPackage make_frame_size_package(double split_bytes) {
  ml::Dataset data(features::packet_feature_names(), {"benign", "attack"});
  std::vector<double> row(features::kPacketFeatureCount, 0.0);
  for (int i = 0; i < 20; ++i) {
    row[static_cast<std::size_t>(features::PacketFeature::kFrameBytes)] =
        split_bytes - 200.0;
    data.add(row, 0);
    row[static_cast<std::size_t>(features::PacketFeature::kFrameBytes)] =
        split_bytes + 200.0;
    data.add(row, 1);
  }
  ml::TreeConfig cfg;
  cfg.max_depth = 2;
  control::DeploymentPackage package;
  package.student = ml::DecisionTree(cfg);
  package.student.fit(data);
  package.task = control::AutomationTask::dns_amplification_drop();
  package.quantizer =
      dataplane::Quantizer::identity(features::kPacketFeatureCount);
  package.strategy = "tree_walk";
  return package;
}

TEST(ObsPipeline, SnapshotExposesAtLeastSixStages) {
  obs::set_tracing_enabled(true);
  obs::set_trace_sample_period(1);  // every hop records

  constexpr std::size_t kShards = 2;
  capture::ShardedCaptureEngine engine(
      {.shards = kShards, .ring_capacity = 1 << 10});
  store::ShardedFlowIngester ingester(kShards);
  features::PacketDatasetCollector datasets;
  engine.add_sink_factory([&](std::size_t shard) {
    return [&ingester, &datasets, shard](const capture::DecodedPacket& t) {
      ingester.meter(shard).offer(t);
      datasets.offer(t.pkt, t.view, t.dir);
    };
  });

  auto package = make_frame_size_package(700.0);
  auto loop = control::FastLoop::deploy(package);
  ASSERT_TRUE(loop.ok());

  for (int i = 0; i < 400; ++i) {
    auto pkt = PacketBuilder(Timestamp::from_nanos(i * 1000000))
                   .udp(host(1 + (i % 8), 40000), host(100, 53))
                   .payload_size(i % 2 == 0 ? 120 : 1200)
                   .build();
    loop.value()->inspect(pkt, packet::PacketView(pkt));
    engine.offer(std::move(pkt), sim::Direction::kInbound);
  }
  engine.drain();
  ingester.flush();
  store::LocalShard store;
  (void)ingester.merge_into(store);

  const auto snap = obs::Registry::global().snapshot();

  // Stage histograms: every hop of the ISSUE's list shows up with
  // samples in one snapshot.
  const char* stages[] = {"tap_decode",     "ring_enqueue", "ring_dequeue",
                          "sink_dispatch",  "flow_update",  "dataset_append",
                          "store_ingest",   "fastloop_inspect",
                          "switch_apply"};
  std::size_t populated = 0;
  for (const char* stage : stages) {
    const auto* m =
        snap.find("pipeline_stage_ns", std::string("stage=") + stage);
    ASSERT_NE(m, nullptr) << stage;
    EXPECT_EQ(m->kind, MetricKind::kHistogram) << stage;
    if (m->histogram.count > 0) ++populated;
  }
  EXPECT_GE(populated, 6u);

  // Counters and gauges from across the layers.
  EXPECT_GE(snap.value_or("capture.shard.offered", "shard=0", 0) +
                snap.value_or("capture.shard.offered", "shard=1", 0),
            400.0);
  EXPECT_GT(snap.value_or("flow.flows_created", "", 0), 0.0);
  EXPECT_GT(snap.value_or("dataset.packets_seen", "", 0), 0.0);
  EXPECT_GT(snap.value_or("store.flows_ingested", "", 0), 0.0);
  EXPECT_GE(snap.value_or("fastloop.inspected", "", 0), 400.0);
  EXPECT_GE(snap.value_or("switch.processed", "", 0), 400.0);
  EXPECT_NE(snap.find("bufferpool.outstanding"), nullptr);
  EXPECT_NE(snap.find("capture.ring_occupancy", "shard=0"), nullptr);
  EXPECT_NE(snap.find("flow.table_size", "shard=0"), nullptr);
  EXPECT_NE(snap.find("store.ingest_pending"), nullptr);

  // Exports render.
  EXPECT_FALSE(snap.to_text().empty());
  EXPECT_FALSE(snap.to_json().empty());

  obs::set_trace_sample_period(256);
}

}  // namespace
}  // namespace campuslab
