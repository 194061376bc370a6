// ShardedCaptureEngine under real concurrency: lossless accounting
// (offered == accepted + dropped, accepted == consumed after drain),
// shard affinity (a conversation never splits across shards), per-shard
// drop attribution, merged-stats consistency, and the full
// shard -> FlowMeter -> ShardedFlowIngester -> DataStore path.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/features/flow_merge.h"
#include "campuslab/packet/builder.h"
#include "campuslab/store/sharded_ingest.h"
#include "campuslab/util/rng.h"

namespace campuslab::capture {
namespace {

using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using sim::Direction;

Endpoint ep(std::uint32_t id, Ipv4Address ip, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(id), ip, port};
}

/// Random UDP traffic over `hosts` distinct client endpoints, one
/// packet every microsecond. Roughly half the packets are "reverse"
/// (server -> client) so shard affinity is actually exercised.
std::vector<packet::Packet> make_traffic(std::size_t count,
                                         std::size_t hosts,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<packet::Packet> out;
  out.reserve(count);
  const auto server = ep(1, Ipv4Address(8, 8, 8, 8), 53);
  for (std::size_t i = 0; i < count; ++i) {
    const auto client =
        ep(2, Ipv4Address(static_cast<std::uint32_t>(
               0x0A001000 + rng.below(static_cast<std::uint32_t>(hosts)))),
           static_cast<std::uint16_t>(1024 + rng.below(5000)));
    auto builder = PacketBuilder(
        Timestamp::from_nanos(static_cast<std::int64_t>(i) * 1000));
    out.push_back(rng.chance(0.5)
                      ? builder.udp(client, server).payload_size(64).build()
                      : builder.udp(server, client).payload_size(200).build());
  }
  return out;
}

TEST(ShardedCaptureEngine, ConcurrentLosslessAccounting) {
  ShardedCaptureConfig cfg;
  cfg.shards = 4;
  cfg.ring_capacity = 1 << 10;
  ShardedCaptureEngine engine(cfg);
  ASSERT_EQ(engine.shards(), 4u);

  std::vector<std::uint64_t> per_shard_seen(4, 0);
  engine.add_sink_factory([&](std::size_t shard) {
    return [&per_shard_seen, shard](const DecodedPacket&) {
      ++per_shard_seen[shard];  // worker-local: only shard's thread
    };
  });

  const auto traffic = make_traffic(200'000, 64, 0xBEEF);
  engine.start();
  for (const auto& pkt : traffic)
    engine.offer(pkt, Direction::kInbound);
  engine.stop();  // drain-on-shutdown

  const auto merged = engine.stats();
  EXPECT_EQ(merged.offered, traffic.size());
  EXPECT_EQ(merged.offered, merged.accepted + merged.dropped);
  EXPECT_EQ(merged.accepted, merged.consumed);  // nothing stuck in rings

  // Merged stats are exactly the sum of the shard stats, and each
  // shard balances independently (drops attributable per shard).
  CaptureStats sum;
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    const auto shard = engine.shard_stats(s);
    EXPECT_EQ(shard.offered, shard.accepted + shard.dropped);
    EXPECT_EQ(shard.accepted, shard.consumed);
    EXPECT_EQ(shard.consumed, per_shard_seen[s]);
    EXPECT_EQ(engine.ring_occupancy(s), 0u);
    sum += shard;
  }
  EXPECT_EQ(sum.offered, merged.offered);
  EXPECT_EQ(sum.accepted, merged.accepted);
  EXPECT_EQ(sum.dropped, merged.dropped);
  EXPECT_EQ(sum.consumed, merged.consumed);
  EXPECT_EQ(sum.offered_bytes, merged.offered_bytes);
  EXPECT_EQ(sum.dropped_bytes, merged.dropped_bytes);

  // With 64 hosts and 4 shards the spreader must actually spread.
  std::size_t busy_shards = 0;
  for (std::size_t s = 0; s < engine.shards(); ++s)
    if (engine.shard_stats(s).offered > 0) ++busy_shards;
  EXPECT_GE(busy_shards, 2u);
}

TEST(ShardedCaptureEngine, SameConversationSameShard) {
  ShardedCaptureConfig cfg;
  cfg.shards = 8;
  ShardedCaptureEngine engine(cfg);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto a = ep(1, Ipv4Address(static_cast<std::uint32_t>(
                           0x0A000000 + rng.below(4096))),
                      static_cast<std::uint16_t>(1024 + rng.below(60000)));
    const auto b = ep(2, Ipv4Address(static_cast<std::uint32_t>(
                           0x08080000 + rng.below(256))),
                      static_cast<std::uint16_t>(rng.chance(0.5) ? 53 : 443));
    const auto ts = Timestamp::from_nanos(i);
    const auto fwd_frame =
        PacketBuilder(ts).udp(a, b).payload_size(64).build();
    const auto rev_frame =
        PacketBuilder(ts).udp(b, a).payload_size(64).build();
    const packet::PacketView fwd(fwd_frame);
    const packet::PacketView rev(rev_frame);
    EXPECT_EQ(engine.shard_of(fwd), engine.shard_of(rev));
    EXPECT_LT(engine.shard_of(fwd), engine.shards());
    // Deterministic: the spreader is a pure function of the tuple.
    EXPECT_EQ(engine.shard_of(fwd), engine.shard_of(fwd));
  }
}

TEST(ShardedCaptureEngine, NonIpFramesSpreadAcrossShards) {
  // Regression for the shard-0 hot spot: frames with no IPv4 tuple
  // (malformed, truncated, non-IP ethertypes) used to all land on
  // shard 0, so a junk flood serialized behind one worker. They now
  // get a cheap byte hash and must spread.
  ShardedCaptureConfig cfg;
  cfg.shards = 8;
  ShardedCaptureEngine engine(cfg);
  Rng rng(42);
  std::vector<std::size_t> hits(cfg.shards, 0);
  for (int i = 0; i < 2000; ++i) {
    packet::Packet junk;
    junk.ts = Timestamp::from_nanos(i);
    junk.resize(14 + rng.below(128));  // too short / garbage headers
    for (auto& b : junk.mutable_bytes())
      b = static_cast<std::uint8_t>(rng.below(256));
    const auto shard = engine.shard_of(packet::PacketView(junk));
    ASSERT_LT(shard, engine.shards());
    // Deterministic: same bytes -> same shard, every time.
    EXPECT_EQ(engine.shard_of(packet::PacketView(junk)), shard);
    hits[shard]++;
  }
  std::size_t busy = 0;
  for (const auto h : hits) busy += h > 0 ? 1 : 0;
  EXPECT_GE(busy, 6u) << "junk frames still hot-spotting";
  // No shard may swallow the majority of the junk.
  for (const auto h : hits) EXPECT_LT(h, 2000u / 2);
}

TEST(ShardedCaptureEngine, SpreaderOutputPinned) {
  // Pin the spreader's exact outputs. The FNV fold moved to
  // util/hash.h (kFnvCompatBasis + whole-word fnv1a_step); these
  // values are the pre-dedup historical spreads, and a change here
  // means every deployed shard->worker assignment silently moved.
  ShardedCaptureConfig cfg;
  cfg.shards = 8;
  ShardedCaptureEngine engine(cfg);

  const auto tuple_shard = [&](std::uint32_t src, std::uint32_t dst,
                               std::uint16_t sport, std::uint16_t dport) {
    const auto pkt = PacketBuilder(Timestamp::from_nanos(1))
                         .udp(ep(1, Ipv4Address(src), sport),
                              ep(2, Ipv4Address(dst), dport))
                         .payload_size(32)
                         .build();
    return engine.shard_of(packet::PacketView(pkt));
  };
  EXPECT_EQ(tuple_shard(0x0A000001, 0x08080808, 4242, 53), 0u);
  EXPECT_EQ(tuple_shard(0x0A000002, 0x08080808, 4242, 53), 1u);
  EXPECT_EQ(tuple_shard(0x0A000001, 0x08080404, 9999, 443), 5u);
  EXPECT_EQ(tuple_shard(0xC0A80101, 0x0A000001, 1, 2), 5u);

  // Tuple-less frames take the byte-hash path under the same basis.
  packet::Packet junk;
  junk.ts = Timestamp::from_nanos(2);
  junk.resize(32);
  for (std::size_t i = 0; i < 32; ++i)
    junk.mutable_bytes()[i] = static_cast<std::uint8_t>(i * 7 + 3);
  EXPECT_EQ(engine.shard_of(packet::PacketView(junk)), 1u);
}

TEST(ShardedCaptureEngine, DropsAttributedToTheFullShard) {
  ShardedCaptureConfig cfg;
  cfg.shards = 4;
  cfg.ring_capacity = 2;
  ShardedCaptureEngine engine(cfg);  // no workers: rings fill up

  // One conversation -> exactly one shard fills and drops.
  const auto pkt = PacketBuilder(Timestamp::from_nanos(1))
                       .udp(ep(1, Ipv4Address(10, 0, 16, 9), 4242),
                            ep(2, Ipv4Address(8, 8, 8, 8), 53))
                       .payload_size(64)
                       .build();
  const auto victim = engine.shard_of(packet::PacketView(pkt));
  for (int i = 0; i < 10; ++i) engine.offer(pkt, Direction::kOutbound);

  for (std::size_t s = 0; s < engine.shards(); ++s) {
    const auto stats = engine.shard_stats(s);
    if (s == victim) {
      EXPECT_EQ(stats.offered, 10u);
      EXPECT_EQ(stats.accepted, 2u);  // ring capacity
      EXPECT_EQ(stats.dropped, 8u);
    } else {
      EXPECT_EQ(stats.offered, 0u);
      EXPECT_EQ(stats.dropped, 0u);
    }
  }
  EXPECT_EQ(engine.stats().dropped, 8u);
  EXPECT_EQ(engine.drain(), 2u);
  EXPECT_EQ(engine.stats().consumed, 2u);
}

// The full pipeline: workers meter flows shard-locally, evictions go
// through the ShardedFlowIngester, and the ordered merge lands every
// flow in the DataStore — with identical store content across runs.
TEST(ShardedCapturePipeline, FlowsReachStoreDeterministically) {
  const auto traffic = make_traffic(60'000, 48, 0xCAFE);

  auto run_once = [&](std::size_t shards) {
    ShardedCaptureConfig cfg;
    cfg.shards = shards;
    cfg.ring_capacity = 1 << 12;
    ShardedCaptureEngine engine(cfg);
    features::ShardedFlowCollector flows(shards);
    store::ShardedFlowIngester ingester(shards);
    for (std::size_t s = 0; s < shards; ++s)
      flows.meter(s).set_sink([&ingester, s](const FlowRecord& r) {
        ingester.ingest(s, r);
      });
    engine.add_sink_factory([&](std::size_t s) {
      return [&flows, s](const DecodedPacket& t) { flows.meter(s).offer(t); };
    });

    engine.start();
    for (const auto& pkt : traffic) {
      // Retry on ring-full: this test is about flow conservation, so
      // every packet must get through.
      while (!engine.offer(pkt, Direction::kInbound)) std::this_thread::yield();
    }
    engine.stop();
    // Workers are quiesced: flush the residual flow tables.
    for (std::size_t s = 0; s < shards; ++s) flows.meter(s).flush();

    store::DataStore store;
    const auto ingested = ingester.merge_into(store);
    EXPECT_EQ(ingester.pending(), 0u);
    EXPECT_EQ(ingester.merged_total(), ingested);

    // Conservation: every consumed IPv4 packet sits in exactly one
    // stored flow.
    const auto meter_stats = flows.merged_meter_stats();
    EXPECT_EQ(meter_stats.packets_seen, engine.stats().consumed);
    std::uint64_t stored_packets = 0;
    std::vector<std::pair<std::string, std::uint64_t>> signature;
    for (auto cur = store.open_cursor(store::FlowQuery{}); cur.next();) {
      const auto& f = cur.current().flow;
      stored_packets += f.packets;
      signature.emplace_back(f.tuple.to_string(), f.packets);
    }
    EXPECT_EQ(stored_packets,
              meter_stats.packets_seen - meter_stats.non_ip_packets);
    EXPECT_EQ(store.size(), ingested);
    return signature;
  };

  const auto first = run_once(4);
  const auto second = run_once(4);
  // Same trace, same shard count -> byte-identical store order, no
  // matter how the workers were scheduled.
  EXPECT_EQ(first, second);
  EXPECT_GT(first.size(), 40u);
}

}  // namespace
}  // namespace campuslab::capture
