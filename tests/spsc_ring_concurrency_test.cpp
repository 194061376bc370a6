// Real multi-thread stress tests for SpscRing and the sharded capture
// engine's live-sampled stats — the concurrency harness for the capture
// pipeline. Run these under -fsanitize=thread (CAMPUSLAB_SANITIZE) to
// verify the memory-ordering story, not just the happy path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/capture/spsc_ring.h"
#include "campuslab/packet/builder.h"

namespace campuslab::capture {
namespace {

constexpr std::uint64_t kOps = 1'000'000;

/// Move-only payload: the ring must never copy it, and a lost or
/// duplicated item shows up as a null/dangling pointer or a bad value.
using Payload = std::unique_ptr<std::uint64_t>;

// Producer retries until accepted: every op arrives exactly once, in
// FIFO order, across real threads.
TEST(SpscRingConcurrency, MoveOnlyFifoNoLossWithRetry) {
  SpscRing<Payload> ring(1024);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kOps;) {
      auto item = std::make_unique<std::uint64_t>(i);
      if (ring.try_push(std::move(item))) ++i;
      // On failure the ring leaves `value` untouched, but `item` dies
      // here anyway; rebuilding it per attempt keeps the loop simple.
    }
  });

  std::uint64_t expected = 0;
  Payload out;
  while (expected < kOps) {
    if (ring.try_pop(out)) {
      ASSERT_TRUE(out != nullptr);
      ASSERT_EQ(*out, expected) << "FIFO order violated";
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

// Producer drops on failure (the capture engine's policy): the
// consumer-observed gap must exactly equal the producer's try_push
// failure count — losses are accounted, never silent.
TEST(SpscRingConcurrency, PushFailuresExactlyMatchConsumerGap) {
  SpscRing<Payload> ring(256);
  std::atomic<bool> done{false};
  std::uint64_t push_failures = 0;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      auto item = std::make_unique<std::uint64_t>(i);
      if (!ring.try_push(std::move(item))) ++push_failures;
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t consumed = 0;
  std::uint64_t last_seen = 0;
  bool any = false;
  Payload out;
  for (;;) {
    if (ring.try_pop(out)) {
      ASSERT_TRUE(out != nullptr);
      if (any)
        ASSERT_GT(*out, last_seen)
            << "sequence went backwards: duplication or reordering";
      last_seen = *out;
      any = true;
      ++consumed;
    } else if (done.load(std::memory_order_acquire) && ring.empty()) {
      break;
    }
  }
  producer.join();

  // Every op either reached the consumer or failed to push — exactly.
  EXPECT_EQ(consumed + push_failures, kOps);
  EXPECT_GT(consumed, 0u);
}

/// The first live-sample invariant `s` breaks, given the previous
/// sample `prev` from the same thread; nullptr when all hold.
const char* live_violation(const CaptureStats& s, const CaptureStats& prev) {
  if (s.consumed > s.offered) return "consumed > offered";
  if (s.accepted + s.dropped > s.offered)
    return "accepted + dropped > offered";
  if (s.drained_on_stop > s.consumed) return "drained_on_stop > consumed";
  if (s.dropped_bytes > s.offered_bytes)
    return "dropped_bytes > offered_bytes";
  if (s.offered < prev.offered || s.accepted < prev.accepted ||
      s.dropped < prev.dropped || s.consumed < prev.consumed ||
      s.drained_on_stop < prev.drained_on_stop ||
      s.abandoned < prev.abandoned || s.offered_bytes < prev.offered_bytes ||
      s.dropped_bytes < prev.dropped_bytes)
    return "a counter went backwards";
  return nullptr;
}

// ShardedCaptureEngine::stats() merges per-shard snapshots, and the
// header promises the live-sample inequalities hold for the sum as
// well. Sample the merged stats from a third thread while a producer
// offers and two real shard workers consume: every live snapshot must
// satisfy consumed <= offered and accepted + dropped <= offered, with
// all counters monotone. Exact equalities hold after stop().
TEST(ShardedCaptureEngineConcurrency, LiveStatsSnapshotInvariants) {
  constexpr std::size_t kShards = 2;
  // A small ring so the producer outruns the workers and drops happen;
  // a zero deadline drains to empty so nothing is abandoned.
  ShardedCaptureEngine engine({.shards = kShards,
                               .ring_capacity = 512,
                               .stop_drain_deadline = Duration::millis(0)});
  std::vector<std::uint64_t> sink_counts(kShards, 0);
  engine.add_sink_factory([&](std::size_t shard) {
    // Each shard's sink runs only on that shard's worker.
    return [&sink_counts, shard](const DecodedPacket&) {
      ++sink_counts[shard];
    };
  });

  // Distinct source ports so the 5-tuple hash spreads over both shards.
  std::vector<packet::Packet> frames;
  for (std::uint16_t port = 1000; port < 1064; ++port)
    frames.push_back(
        packet::PacketBuilder(Timestamp::from_nanos(1))
            .udp(packet::Endpoint{packet::MacAddress::from_id(1),
                                  packet::Ipv4Address(10, 0, 0, 1), port},
                 packet::Endpoint{packet::MacAddress::from_id(2),
                                  packet::Ipv4Address(10, 0, 0, 2), 53})
            .payload_size(32)
            .build());

  constexpr std::uint64_t kPackets = 200'000;
  std::atomic<bool> stopped{false};
  std::uint64_t samples = 0;
  std::string violation;

  engine.start();
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPackets; ++i)
      engine.offer(frames[i % frames.size()], sim::Direction::kInbound);
  });
  std::thread sampler([&] {
    CaptureStats prev;
    while (!stopped.load(std::memory_order_acquire)) {
      const auto s = engine.stats();
      ++samples;
      if (const char* broken = live_violation(s, prev)) {
        violation = broken;
        return;
      }
      prev = s;
      std::this_thread::yield();
    }
  });
  producer.join();
  engine.stop();
  stopped.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(violation, "");
  EXPECT_GT(samples, 0u);
  const auto end = engine.stats();
  EXPECT_EQ(end.offered, kPackets);
  EXPECT_EQ(end.offered, end.accepted + end.dropped);
  EXPECT_EQ(end.abandoned, 0u);
  EXPECT_EQ(end.consumed, end.accepted);
  std::uint64_t delivered = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(engine.shard_stats(shard).offered, 0u) << "shard " << shard;
    delivered += sink_counts[shard];
  }
  EXPECT_EQ(delivered, end.consumed);
}

}  // namespace
}  // namespace campuslab::capture
