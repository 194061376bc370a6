// Tests for campuslab::features — sketches (EWMA rate, linear-counting
// distinct), flow feature semantics, stateful per-packet features on
// real attack traffic, and dataset building from the store.
#include <gtest/gtest.h>

#include "campuslab/capture/decoded.h"
#include "campuslab/features/dataset_builder.h"
#include "campuslab/features/packet_features.h"
#include "campuslab/features/sketch.h"
#include "campuslab/sim/simulator.h"

namespace campuslab::features {
namespace {

using packet::Ipv4Address;
using packet::TrafficLabel;
using sim::Direction;

// ---------------------------------------------------------------- EwmaRate

TEST(EwmaRate, ConvergesToSteadyRate) {
  EwmaRate rate(Duration::seconds(1));
  // 100 events/second for 5 seconds.
  for (int i = 0; i < 500; ++i)
    rate.update(Timestamp::from_seconds(i * 0.01), 1.0);
  EXPECT_NEAR(rate.rate_at(Timestamp::from_seconds(5.0)), 100.0, 15.0);
}

TEST(EwmaRate, DecaysWhenIdle) {
  EwmaRate rate(Duration::seconds(1));
  for (int i = 0; i < 200; ++i)
    rate.update(Timestamp::from_seconds(i * 0.01), 1.0);
  const double busy = rate.rate_at(Timestamp::from_seconds(2.0));
  const double later = rate.rate_at(Timestamp::from_seconds(6.0));
  EXPECT_GT(busy, 50.0);
  EXPECT_LT(later, busy * 0.05);  // 4 tau of decay
}

TEST(EwmaRate, ScalesWithWeight) {
  EwmaRate pps(Duration::seconds(1)), bps(Duration::seconds(1));
  for (int i = 0; i < 300; ++i) {
    const auto t = Timestamp::from_seconds(i * 0.01);
    pps.update(t, 1.0);
    bps.update(t, 1500.0);
  }
  const auto t = Timestamp::from_seconds(3.0);
  EXPECT_NEAR(bps.rate_at(t) / pps.rate_at(t), 1500.0, 1.0);
}

// ----------------------------------------------------------- BitmapDistinct

TEST(BitmapDistinct, SmallCountsNearExact) {
  BitmapDistinct sketch;
  for (std::uint64_t k = 0; k < 20; ++k) sketch.add(k * 7919);
  EXPECT_NEAR(sketch.estimate(), 20.0, 3.0);
}

TEST(BitmapDistinct, DuplicatesDontInflate) {
  BitmapDistinct sketch;
  for (int rep = 0; rep < 100; ++rep)
    for (std::uint64_t k = 0; k < 10; ++k) sketch.add(k);
  EXPECT_NEAR(sketch.estimate(), 10.0, 2.0);
}

TEST(BitmapDistinct, LargeCountsSaturateGracefully) {
  BitmapDistinct small_set, large_set;
  for (std::uint64_t k = 0; k < 30; ++k) small_set.add(k);
  for (std::uint64_t k = 0; k < 5000; ++k) large_set.add(k);
  EXPECT_GT(large_set.estimate(), small_set.estimate() * 5);
}

TEST(BitmapDistinct, ResetClears) {
  BitmapDistinct sketch;
  for (std::uint64_t k = 0; k < 100; ++k) sketch.add(k);
  sketch.reset();
  EXPECT_EQ(sketch.bits_set(), 0u);
  EXPECT_EQ(sketch.estimate(), 0.0);
}

// ------------------------------------------------------------ FlowFeatures

capture::FlowRecord amp_flow() {
  capture::FlowRecord f;
  f.tuple = packet::FiveTuple{Ipv4Address(8, 8, 8, 8),
                              Ipv4Address(10, 1, 16, 2), 53, 7777, 17};
  f.initial_direction = Direction::kInbound;
  f.first_ts = Timestamp::from_seconds(10);
  f.last_ts = Timestamp::from_seconds(12);
  f.packets = 2000;
  f.bytes = 6'000'000;
  f.payload_bytes = 5'800'000;
  f.fwd_packets = 2000;
  f.saw_dns = true;
  f.label_packets[static_cast<std::size_t>(
      TrafficLabel::kDnsAmplification)] = 2000;
  return f;
}

TEST(FlowFeatures, NamesMatchCount) {
  EXPECT_EQ(flow_feature_names().size(), kFlowFeatureCount);
  const auto x = extract_flow_features(amp_flow());
  EXPECT_EQ(x.size(), kFlowFeatureCount);
}

TEST(FlowFeatures, AmplificationFlowShape) {
  const auto x = extract_flow_features(amp_flow());
  auto get = [&](FlowFeature f) {
    return x[static_cast<std::size_t>(f)];
  };
  EXPECT_DOUBLE_EQ(get(FlowFeature::kDurationSeconds), 2.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kPacketsPerSecond), 1000.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kBytesPerSecond), 3e6);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kMeanPacketBytes), 3000.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kIsUdp), 1.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kIsTcp), 0.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kSrcPortIsDns), 1.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kIsInbound), 1.0);
  EXPECT_DOUBLE_EQ(get(FlowFeature::kSawDns), 1.0);
  EXPECT_NEAR(get(FlowFeature::kPayloadRatio), 5.8 / 6.0, 1e-9);
}

TEST(FlowFeatures, SinglePacketProbeFiniteRates) {
  capture::FlowRecord f;
  f.tuple = packet::FiveTuple{Ipv4Address(23, 0, 0, 1),
                              Ipv4Address(10, 1, 16, 9), 44000, 3389, 6};
  f.first_ts = f.last_ts = Timestamp::from_seconds(1);
  f.packets = 1;
  f.bytes = 60;
  f.syn_count = 1;
  const auto x = extract_flow_features(f);
  for (const auto v : x) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(FlowFeature::kSynRatio)],
                   1.0);
}

// ---------------------------------------------------------- PacketFeatures

TEST(PacketFeatures, NamesMatchCount) {
  EXPECT_EQ(packet_feature_names().size(), kPacketFeatureCount);
}

TEST(PacketFeatures, RegisterFeaturesFlagged) {
  EXPECT_TRUE(is_register_feature(PacketFeature::kDstInboundPps));
  EXPECT_TRUE(is_register_feature(PacketFeature::kSrcFanout));
  EXPECT_FALSE(is_register_feature(PacketFeature::kSrcPort));
  EXPECT_FALSE(is_register_feature(PacketFeature::kIsUdp));
}

packet::Packet inbound_udp(double t, Ipv4Address src, Ipv4Address dst,
                           std::uint16_t sport, std::size_t payload) {
  using namespace packet;
  return PacketBuilder(Timestamp::from_seconds(t))
      .udp(Endpoint{MacAddress::from_id(1), src, sport},
           Endpoint{MacAddress::from_id(2), dst, 9999})
      .payload_size(payload)
      .build();
}

TEST(PacketFeatures, RateRegistersRiseUnderFlood) {
  StatefulFeatureExtractor extractor;
  const Ipv4Address victim(10, 1, 16, 2);
  std::vector<double> early, late;
  for (int i = 0; i < 5000; ++i) {
    // 1000 pps flood from rotating reflectors.
    const Ipv4Address reflector(
        static_cast<std::uint32_t>(0x08080000 + (i % 200)));
    const capture::DecodedPacket frame(
        inbound_udp(1.0 + i * 0.001, reflector, victim, 53, 1200),
        Direction::kInbound);
    const auto x = extractor.extract(frame.pkt, frame.view, frame.dir);
    ASSERT_EQ(x.size(), kPacketFeatureCount);
    if (i == 100) early = x;
    if (i == 4999) late = x;
  }
  auto get = [](const std::vector<double>& x, PacketFeature f) {
    return x[static_cast<std::size_t>(f)];
  };
  EXPECT_GT(get(late, PacketFeature::kDstInboundPps), 500.0);
  EXPECT_GT(get(late, PacketFeature::kDstInboundPps),
            get(early, PacketFeature::kDstInboundPps));
  EXPECT_GT(get(late, PacketFeature::kDstInboundBps), 5e5);
  EXPECT_GT(get(late, PacketFeature::kDstDistinctSrcs), 50.0);
  EXPECT_DOUBLE_EQ(get(late, PacketFeature::kSrcPortIsDns), 1.0);
  EXPECT_DOUBLE_EQ(get(late, PacketFeature::kIsUdp), 1.0);
}

TEST(PacketFeatures, FanoutRisesForScanner) {
  StatefulFeatureExtractor extractor;
  const Ipv4Address scanner(23, 5, 5, 5);
  std::vector<double> last;
  for (int i = 0; i < 200; ++i) {
    const Ipv4Address target(
        static_cast<std::uint32_t>(0x0A011000 + i));
    const capture::DecodedPacket frame(
        inbound_udp(1.0 + i * 0.01, scanner, target, 40000, 0),
        Direction::kInbound);
    last = extractor.extract(frame.pkt, frame.view, frame.dir);
  }
  EXPECT_GT(last[static_cast<std::size_t>(PacketFeature::kSrcFanout)],
            80.0);
}

TEST(PacketFeatures, SketchWindowRolls) {
  PacketFeatureConfig cfg;
  cfg.sketch_window = Duration::seconds(2);
  StatefulFeatureExtractor extractor(cfg);
  const Ipv4Address victim(10, 1, 16, 2);
  // Burst of distinct sources, then quiet, then one packet much later.
  for (int i = 0; i < 100; ++i) {
    const capture::DecodedPacket frame(
        inbound_udp(1.0 + i * 0.001,
                    Ipv4Address(static_cast<std::uint32_t>(0x17000000 + i)),
                    victim, 53, 100),
        Direction::kInbound);
    extractor.extract(frame.pkt, frame.view, frame.dir);
  }
  const capture::DecodedPacket later(
      inbound_udp(10.0, Ipv4Address(23, 9, 9, 9), victim, 53, 100),
      Direction::kInbound);
  const auto x = extractor.extract(later.pkt, later.view, later.dir);
  // Window rolled: the distinct-src sketch only saw the one new packet.
  EXPECT_LT(
      x[static_cast<std::size_t>(PacketFeature::kDstDistinctSrcs)], 5.0);
}

TEST(PacketFeatures, OutboundPacketsSkipRegisters) {
  StatefulFeatureExtractor extractor;
  const capture::DecodedPacket frame(
      inbound_udp(1.0, Ipv4Address(10, 1, 16, 2), Ipv4Address(8, 8, 8, 8),
                  5000, 64),
      Direction::kOutbound);
  const auto x = extractor.extract(frame.pkt, frame.view, frame.dir);
  ASSERT_EQ(x.size(), kPacketFeatureCount);
  EXPECT_EQ(x[static_cast<std::size_t>(PacketFeature::kDstInboundPps)],
            0.0);
  EXPECT_EQ(extractor.tracked_dsts(), 0u);
}

TEST(PacketFeatures, NonIpReturnsEmpty) {
  StatefulFeatureExtractor extractor;
  packet::Packet junk;
  junk.ts = Timestamp::from_seconds(1);
  junk.assign(64, 0xAA);
  EXPECT_TRUE(
      extractor.extract(junk, packet::PacketView(junk), Direction::kInbound)
          .empty());
}

TEST(PacketFeatures, HostTrackingBounded) {
  PacketFeatureConfig cfg;
  cfg.max_tracked_hosts = 100;
  StatefulFeatureExtractor extractor(cfg);
  for (int i = 0; i < 1000; ++i) {
    const capture::DecodedPacket frame(
        inbound_udp(1.0 + i * 0.001, Ipv4Address(23, 0, 0, 1),
                    Ipv4Address(static_cast<std::uint32_t>(0x0A010000 + i)),
                    40000, 0),
        Direction::kInbound);
    extractor.extract(frame.pkt, frame.view, frame.dir);
  }
  EXPECT_LE(extractor.tracked_dsts(), 100u);
}

// ---------------------------------------------------------- DatasetBuilder

TEST(DatasetBuilder, MulticlassFromSimulatedTraffic) {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = 61;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(800)
          .starting_at(Timestamp::from_seconds(3))
          .lasting(Duration::seconds(5)));
  sim::CampusSimulator simulator(scenario);

  capture::FlowMeter meter;
  std::vector<capture::FlowRecord> flows;
  meter.set_sink([&](const capture::FlowRecord& r) { flows.push_back(r); });
  simulator.network().set_tap(
      [&](const packet::Packet& p, Direction d) { meter.offer({p, d}); });
  simulator.run_for(Duration::seconds(12));
  meter.flush();

  const auto data = build_flow_dataset(flows);
  EXPECT_EQ(data.n_features(), kFlowFeatureCount);
  EXPECT_EQ(data.n_classes(), 7);
  EXPECT_EQ(data.n_rows(), flows.size());
  const auto counts = data.class_counts();
  EXPECT_GT(counts[0], 0u);  // benign
  EXPECT_GT(counts[static_cast<std::size_t>(
                TrafficLabel::kDnsAmplification)],
            0u);
}

TEST(DatasetBuilder, BinaryTargetCollapsesLabels) {
  std::vector<capture::FlowRecord> flows{amp_flow()};
  capture::FlowRecord benign;
  benign.tuple = packet::FiveTuple{Ipv4Address(10, 1, 16, 3),
                                   Ipv4Address(1, 1, 1, 1), 5000, 443, 6};
  benign.first_ts = benign.last_ts = Timestamp::from_seconds(1);
  benign.packets = 10;
  benign.bytes = 5000;
  benign.label_packets[0] = 10;
  flows.push_back(benign);
  capture::FlowRecord scan = benign;
  scan.label_packets = {};
  scan.label_packets[static_cast<std::size_t>(TrafficLabel::kPortScan)] =
      10;
  flows.push_back(scan);

  FlowDatasetOptions opt;
  opt.binary_target = TrafficLabel::kDnsAmplification;
  const auto data = build_flow_dataset(flows, opt);
  EXPECT_EQ(data.n_classes(), 2);
  EXPECT_EQ(data.label(0), 1);  // the amp flow
  EXPECT_EQ(data.label(1), 0);  // benign
  EXPECT_EQ(data.label(2), 0);  // other attack counts as "rest"
  EXPECT_EQ(data.class_names()[1], "dns_amplification");

  FlowDatasetOptions any_attack;
  any_attack.attack_vs_benign = true;
  const auto binary = build_flow_dataset(flows, any_attack);
  EXPECT_EQ(binary.label(0), 1);
  EXPECT_EQ(binary.label(1), 0);
  EXPECT_EQ(binary.label(2), 1);
}

TEST(DatasetBuilder, FromStoreMatchesFromRecords) {
  std::vector<capture::FlowRecord> flows{amp_flow()};
  store::DataStore ds;
  ds.ingest(flows[0]);
  const auto a = build_flow_dataset(flows);
  const auto b = build_flow_dataset(ds);
  ASSERT_EQ(a.n_rows(), b.n_rows());
  for (std::size_t f = 0; f < a.n_features(); ++f)
    EXPECT_EQ(a.row(0)[f], b.row(0)[f]);
  EXPECT_EQ(a.label(0), b.label(0));
}

TEST(DatasetBuilder, FromStoreRowsGoInExportOrder) {
  // Ingested out of order; the rows come back by first activity.
  store::DataStore ds;
  for (const std::uint32_t id : {3u, 1u, 2u}) {
    auto flow = amp_flow();
    flow.first_ts = Timestamp::from_seconds(id);
    flow.scenario_id = id;
    ds.ingest(flow);
  }
  std::vector<std::uint32_t> scenario_ids;
  const auto data = build_flow_dataset(ds, {}, scenario_ids);
  EXPECT_EQ(data.n_rows(), 3u);
  EXPECT_EQ(scenario_ids, (std::vector<std::uint32_t>{1, 2, 3}));
}

}  // namespace
}  // namespace campuslab::features
