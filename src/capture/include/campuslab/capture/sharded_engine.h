// ShardedCaptureEngine — the lossless full-packet-capture pipeline.
//
// Mirrors the architecture of the commercial systems the paper cites
// (§5, NIKSUN-style): a tap pushes every frame into bounded lock-free
// rings; consumers drain the rings in batches and dispatch to sinks
// (pcap segments, the flow meter, the data store ingester).
// "Losslessness" is not asserted but *measured*: any frame that finds
// its ring full increments a drop counter, and the T-CAP experiment
// reports the offered-load knee where drops begin.
//
// One tap thread cannot meter and ingest 10-20 Gbps of campus traffic,
// let alone the paper's "up to 100 Gbps" (§5). The engine spreads the
// tap across N single-producer/single-consumer rings with an RSS-style
// 5-tuple hash: both directions of a conversation hash to the same
// shard (the spreader keys on the bidirectional tuple), so each worker
// can run its own FlowMeter and data-store ingester with no locks and
// no cross-shard flow state. With shards = 1 it is the plain
// single-ring engine: one ring, one consumer, every frame in order.
//
//        tap (1 producer thread)
//              |  shard_of(hash) = h(bidirectional 5-tuple) % N
//      +-------+-------+ ... +
//      v       v       v
//   ring[0] ring[1] ring[N-1]      bounded SpscRings
//      |       |       |
//   worker0 worker1 workerN-1      each: sinks -> FlowMeter -> ingester
//
// Losslessness stays *measured*: every shard keeps its own
// ConcurrentCaptureStats (drops attributable per shard), and stop()
// drains every ring before joining so "accepted == consumed" is an
// exit invariant, not an assumption. Merged stats are the sum of the
// shard snapshots.
//
// Thread contract:
//   - offer() is called by exactly one producer thread at a time.
//   - Between start() and stop(), each shard's ring is drained only by
//     its own worker; per-shard sinks run on that worker's thread.
//   - Without start(), poll_shard()/drain() consume on the caller's
//     thread (simulation mode: the Testbed runs one shard this way,
//     offer() then poll_shard(0, 64) inside the tap callback).
//   - stats()/shard_stats() are safe from any thread, any time.
//
// Supervision (resilience): each worker thread runs under an in-thread
// supervisor. An exception escaping a sink does not kill the process —
// the frame in flight still counts as consumed, the death is recorded
// (resilience.worker_restarts_total{shard=N}), and the worker restarts
// with its ring intact. Past `max_worker_restarts` the shard is
// quarantined: its remaining ring contents are abandoned (counted) and
// the producer reroutes its 5-tuple slice to surviving shards
// (resilience.rerouted_packets_total) — conversations that straddle the
// quarantine boundary may export as two flow records, which the
// deterministic merge tolerates. stop() drains each ring under
// `stop_drain_deadline` so a wedged sink cannot hang shutdown; frames
// past the deadline are abandoned, never silently lost:
//     offered == accepted + dropped,  accepted == consumed + abandoned.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "campuslab/capture/decoded.h"
#include "campuslab/capture/spsc_ring.h"
#include "campuslab/obs/registry.h"
#include "campuslab/packet/buffer.h"
#include "campuslab/util/time.h"

namespace campuslab::capture {

/// A point-in-time snapshot of capture accounting. Produced by
/// ConcurrentCaptureStats::snapshot(); plain integers, freely copyable.
struct CaptureStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;   // ring-full losses
  std::uint64_t consumed = 0;
  /// Of `consumed`, frames consumed during the shutdown drain (after
  /// stop was requested). drained_on_stop <= consumed.
  std::uint64_t drained_on_stop = 0;
  /// Accepted frames discarded unconsumed: the bounded shutdown drain
  /// hit its deadline (wedged sink) or the shard was quarantined.
  /// Quiesced identity: accepted == consumed + abandoned.
  std::uint64_t abandoned = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t dropped_bytes = 0;

  /// Gauge snapshot of the process-wide packet buffer pool at stats()
  /// time. Every engine draws from the same pool, so operator+= keeps
  /// the left-hand side's snapshot instead of summing (summing would
  /// double-count the shared pool).
  packet::BufferPoolStats buffer_pool;

  double loss_rate() const noexcept {
    return offered == 0 ? 0.0
                        : static_cast<double>(dropped) /
                              static_cast<double>(offered);
  }

  CaptureStats& operator+=(const CaptureStats& o) noexcept {
    offered += o.offered;
    accepted += o.accepted;
    dropped += o.dropped;
    consumed += o.consumed;
    drained_on_stop += o.drained_on_stop;
    abandoned += o.abandoned;
    offered_bytes += o.offered_bytes;
    dropped_bytes += o.dropped_bytes;
    return *this;
  }
};

/// Capture counters that are safe to sample from any thread while the
/// producer and consumer run. Producer-side counters (offered /
/// accepted / dropped / byte totals) and the consumer-side counter
/// (consumed) live on separate cache lines so neither side's increments
/// bounce the other's line.
///
/// snapshot() guarantees, even mid-flight:
///   consumed <= offered          and
///   accepted + dropped <= offered
/// It reads consumed first and offered last (acquire), and the writers
/// publish `offered` before the matching accepted/dropped increment
/// (release), so a sampled snapshot can never show an effect before its
/// cause. Exact equalities (offered == accepted + dropped,
/// accepted == consumed) hold once both sides have quiesced.
class ConcurrentCaptureStats {
 public:
  void record_offer(std::uint64_t bytes) noexcept {
    offered_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    offered_.fetch_add(1, std::memory_order_release);
  }
  void record_accept() noexcept {
    accepted_.fetch_add(1, std::memory_order_release);
  }
  void record_drop(std::uint64_t bytes) noexcept {
    dropped_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_release);
  }
  void record_consumed(std::uint64_t n) noexcept {
    consumed_.fetch_add(n, std::memory_order_release);
  }
  /// Shutdown-drain accounting (consumer side): `drained` frames were
  /// consumed after stop was requested (a sub-count of consumed);
  /// `abandoned` frames were discarded unconsumed (deadline expiry or
  /// shard quarantine).
  void record_drained(std::uint64_t n) noexcept {
    drained_.fetch_add(n, std::memory_order_release);
  }
  void record_abandoned(std::uint64_t n) noexcept {
    abandoned_.fetch_add(n, std::memory_order_release);
  }

  CaptureStats snapshot() const noexcept {
    CaptureStats s;
    // Order matters: consumed before accepted/dropped before offered,
    // so the documented inequalities hold for live samples.
    // drained is recorded after the consumed frames it sub-counts, so
    // read it before consumed (effect before cause keeps drained <=
    // consumed in live samples).
    s.drained_on_stop = drained_.load(std::memory_order_acquire);
    s.consumed = consumed_.load(std::memory_order_acquire);
    s.abandoned = abandoned_.load(std::memory_order_acquire);
    s.accepted = accepted_.load(std::memory_order_acquire);
    s.dropped = dropped_.load(std::memory_order_acquire);
    s.dropped_bytes = dropped_bytes_.load(std::memory_order_acquire);
    s.offered = offered_.load(std::memory_order_acquire);
    s.offered_bytes = offered_bytes_.load(std::memory_order_acquire);
    return s;
  }

 private:
  alignas(64) std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> offered_bytes_{0};
  std::atomic<std::uint64_t> dropped_bytes_{0};
  alignas(64) std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> abandoned_{0};
};

struct ShardedCaptureConfig {
  std::size_t shards = 4;
  std::size_t ring_capacity = 1 << 14;  // per shard
  std::size_t poll_batch = 256;         // worker drain granularity
  /// Worker deaths (escaped sink exceptions) tolerated per shard before
  /// the supervisor quarantines it and reroutes its traffic slice.
  std::size_t max_worker_restarts = 8;
  /// Wall-clock bound on the per-shard shutdown drain. A wedged or
  /// pathologically slow sink cannot hang stop() past this; frames
  /// still in the ring at the deadline are abandoned (counted).
  /// Zero means drain to empty, unbounded.
  Duration stop_drain_deadline = Duration::millis(500);
};

class ShardedCaptureEngine {
 public:
  using Sink = std::function<void(const DecodedPacket&)>;
  /// Builds the per-shard consumer: called once per shard so each
  /// worker gets its own (unshared) flow meter / ingester state.
  using SinkFactory = std::function<Sink(std::size_t shard)>;

  explicit ShardedCaptureEngine(ShardedCaptureConfig config = {});
  ~ShardedCaptureEngine();

  ShardedCaptureEngine(const ShardedCaptureEngine&) = delete;
  ShardedCaptureEngine& operator=(const ShardedCaptureEngine&) = delete;

  /// Instantiate `factory` for every shard and register the result as
  /// that shard's sink. Call before traffic starts; repeated calls add
  /// additional sinks (all sinks of a shard see every consumed frame).
  void add_sink_factory(const SinkFactory& factory);

  std::size_t shards() const noexcept { return shards_.size(); }

  /// The RSS-style spreader: shard `flow_hash % shards()`. Symmetric:
  /// a packet and its reverse map to the same shard. Frames without an
  /// IPv4 5-tuple (ARP, junk, truncated) spread by a byte hash of the
  /// frame prefix instead of all pinning shard 0, so non-IP load cannot
  /// hot-spot one worker (see capture::flow_hash).
  std::size_t shard_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash % shards_.size());
  }
  std::size_t shard_of(const packet::PacketView& view) const noexcept {
    return shard_of(flow_hash(view));
  }

  /// Producer side: hash-spread one frame. Returns false when the
  /// owning shard's ring was full and the frame was dropped (counted
  /// against that shard). Frames whose home shard is quarantined are
  /// rerouted to the next live shard (deterministic walk, counted in
  /// rerouted_packets()); if every shard is quarantined the frame is
  /// dropped against its home shard.
  bool offer(const packet::Packet& pkt, sim::Direction dir);
  bool offer(packet::Packet&& pkt, sim::Direction dir);

  /// Spawn one worker thread per shard. Workers poll their ring and
  /// dispatch to their shard's sinks until stop().
  void start();

  /// Signal workers, let each drain its ring (drain-on-shutdown,
  /// bounded by stop_drain_deadline), and join. Idempotent. After
  /// stop(), for every shard: accepted == consumed + abandoned.
  void stop();

  bool running() const noexcept { return running_; }

  /// Supervisor accounting: worker deaths recovered by restart (total /
  /// per shard), shards quarantined past the restart budget, and frames
  /// rerouted away from quarantined shards by the producer.
  std::uint64_t worker_restarts() const noexcept;
  std::uint64_t worker_restarts(std::size_t shard) const noexcept;
  bool shard_quarantined(std::size_t shard) const noexcept;
  std::size_t quarantined_shards() const noexcept;
  std::uint64_t rerouted_packets() const noexcept {
    return rerouted_.load(std::memory_order_relaxed);
  }

  /// Simulation mode (no workers): consume up to `max_batch` frames of
  /// one shard on the calling thread.
  std::size_t poll_shard(std::size_t shard, std::size_t max_batch = 256);

  /// Simulation mode: drain every shard until all rings are empty.
  std::size_t drain();

  /// Merged accounting across shards (safe to sample live; the
  /// per-snapshot inequalities of ConcurrentCaptureStats hold for the
  /// sum as well). `buffer_pool` is the shared-pool gauge, set once on
  /// the merged snapshot rather than summed per shard.
  CaptureStats stats() const;
  CaptureStats shard_stats(std::size_t shard) const;
  std::size_t ring_occupancy(std::size_t shard) const noexcept;

 private:
  struct Shard {
    explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<DecodedPacket> ring;
    std::vector<Sink> sinks;
    ConcurrentCaptureStats stats;
    std::thread worker;
    // Quarantined shards accept no new frames (producer reroutes) and
    // their workers have exited. Set with release by the worker, read
    // with acquire by the producer.
    std::atomic<bool> quarantined{false};
    std::atomic<std::uint64_t> restarts{0};
    // Per-shard obs mirrors (labels "shard=N"), resolved at engine
    // construction so the packet path never touches the registry lock.
    obs::Counter* obs_offered = nullptr;
    obs::Counter* obs_dropped = nullptr;
    obs::Counter* obs_consumed = nullptr;
    obs::Counter* obs_restarts = nullptr;
    obs::Counter* obs_abandoned = nullptr;
  };

  std::size_t consume_batch(Shard& shard, std::size_t max_batch);
  void worker_loop(Shard& shard);
  void run_worker(Shard& shard);
  void abandon_ring(Shard& shard);
  void quarantine(Shard& shard);

  ShardedCaptureConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Live ring-occupancy gauges (capture.ring_occupancy{shard=N});
  // handles unregister before shards_ dies.
  std::vector<obs::Registry::CallbackHandle> obs_handles_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> rerouted_{0};
  bool running_ = false;
};

}  // namespace campuslab::capture
