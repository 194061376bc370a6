// FlowMeter — 5-tuple flow construction from the packet stream.
//
// This is the "on-the-fly generated metadata" layer of the paper's
// monitoring solution: every packet updates a bidirectional flow entry;
// idle and active timeouts (NetFlow-style) evict entries as finished
// FlowRecords, which are what the data store indexes and the feature
// pipeline consumes. Ground-truth labels are aggregated per flow so the
// learning pipeline gets labelled flow data for free.
//
// The flow state is one flat table (FlowTable), the way a hardware
// NetFlow cache holds it: an arena of flow slots, an open-addressed
// index over them, and eviction of the idlest of a few sampled slots
// when the table is full. The table, not a library's bucket layout,
// defines the order in which sweeps and flushes export flows and which
// flow a full table evicts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "campuslab/capture/decoded.h"
#include "campuslab/packet/view.h"
#include "campuslab/sim/campus.h"

namespace campuslab::capture {

/// A completed (evicted) flow.
struct FlowRecord {
  packet::FiveTuple tuple;           // direction of the first packet seen
  sim::Direction initial_direction = sim::Direction::kInbound;
  Timestamp first_ts;
  Timestamp last_ts;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;           // frame bytes
  std::uint64_t payload_bytes = 0;   // L4 payload only
  std::uint64_t fwd_packets = 0;     // in the initial direction
  std::uint64_t rev_packets = 0;
  std::uint32_t syn_count = 0;
  std::uint32_t synack_count = 0;
  std::uint32_t fin_count = 0;
  std::uint32_t rst_count = 0;
  std::uint32_t psh_count = 0;
  bool saw_dns = false;
  std::array<std::uint64_t, packet::kTrafficLabelCount> label_packets{};
  /// Scenario instance that first touched this flow (0 = background
  /// traffic only). First-nonzero-wins: a flow is attributed to the
  /// scenario that opened it into attack territory, even if benign
  /// response frames arrive afterwards.
  std::uint32_t scenario_id = 0;

  Duration duration() const noexcept { return last_ts - first_ts; }

  /// Ground-truth label, attack-if-any: a flow containing any attack
  /// packets is labelled with its most common attack label; only pure
  /// benign flows are benign. (Standard IDS-dataset practice — the
  /// victim's own responses inside an attack conversation must not
  /// vote the flow back to benign.)
  packet::TrafficLabel majority_label() const noexcept;

  double mean_packet_bytes() const noexcept {
    return packets == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(packets);
  }
};

/// Deterministic cross-shard ordering for merged flow exports: by
/// first activity, then last activity, then tuple. Gives a stable
/// merged stream regardless of which shard evicted which flow first.
bool flow_export_before(const FlowRecord& a, const FlowRecord& b) noexcept;

struct FlowMeterConfig {
  Duration idle_timeout = Duration::seconds(15);
  Duration active_timeout = Duration::seconds(60);
  std::size_t max_flows = 1 << 20;  // hard cap: a full table evicts a flow
};

struct FlowMeterStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t non_ip_packets = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t flows_evicted_idle = 0;
  std::uint64_t flows_evicted_active = 0;
  std::uint64_t flows_evicted_capacity = 0;
};

/// FlowMeter's flow state: one flat table, keyed by the flow hash the
/// tap computes (capture::flow_hash of the frame).
///
/// Records live in a chunked slot arena: chunks of kChunkSlots slots,
/// never reallocated, so a flow costs no allocation of its own; a freed
/// slot is reused before a new one is claimed (last freed, first
/// reused). An open-addressed, power-of-two index of 8-byte words finds
/// them. Each word holds the top 32 bits of the flow hash and slot + 1
/// (0 marks an empty word). The index probes linearly, stays at most
/// half full, and grows and deletes (by backward shift, so no
/// tombstones) from the words alone, without reading a record.
class FlowTable {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// The index's home-position rule: the top `bits` bits of the hash
  /// (1 <= bits <= 32). The spreader sends a flow to shard
  /// `hash % shards`, which fixes the hash's low bits within one
  /// shard's table; homes taken from the low bits would crowd into a
  /// fraction of the index.
  static std::size_t home(std::uint64_t hash, unsigned bits) noexcept {
    return static_cast<std::size_t>(hash >> (64 - bits));
  }

  /// Slot of the flow that `tuple`, in either direction, belongs to, or
  /// kNone. `hash` is the tuple's flow hash.
  std::uint32_t find(std::uint64_t hash,
                     const packet::FiveTuple& tuple) const noexcept;

  /// Index a new flow of flow hash `hash` and return its slot, holding
  /// a default FlowRecord.
  std::uint32_t insert(std::uint64_t hash);

  /// Drop the flow in a live `slot` from the index and free the slot.
  void erase(std::uint32_t slot) noexcept;

  /// Free every slot and release the table's memory.
  void clear() noexcept { *this = FlowTable(); }

  /// Give memory back once at most a quarter of the claimed slots are
  /// live: each live record above slot size() - 1 moves down into the
  /// lowest freed slot, emptied chunks are released and the index is
  /// rebuilt at the smallest size that keeps it at most half full.
  void shrink();

  /// Live flows.
  std::size_t size() const noexcept { return size_; }
  /// Slots in use, live or freed (clear() and shrink() cut this back).
  /// Sweeps and flushes visit slots 0 .. slots() - 1 in order.
  std::uint32_t slots() const noexcept { return claimed_; }
  bool live(std::uint32_t slot) const noexcept { return at(slot).word != 0; }
  FlowRecord& record(std::uint32_t slot) noexcept { return at(slot).record; }
  const FlowRecord& record(std::uint32_t slot) const noexcept {
    return at(slot).record;
  }

 private:
  static constexpr unsigned kChunkBits = 9;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;
  static constexpr unsigned kMinIndexBits = 8;

  struct Slot {
    std::uint64_t word = 0;  // this slot's index word; 0 while free
    FlowRecord record;
  };

  Slot& at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  const Slot& at(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  /// Store `word` at the first empty position from its home on.
  void place(std::uint64_t word) noexcept;
  /// Double the index (or make the first), re-placing its words.
  void grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  // freed slots, reused last-in first
  std::vector<std::uint64_t> index_;
  unsigned bits_ = 0;  // index_.size() == 1 << bits_, once non-empty
  std::uint32_t claimed_ = 0;
  std::size_t size_ = 0;
};

class FlowMeter {
 public:
  using FlowSink = std::function<void(const FlowRecord&)>;

  /// Slots a full table samples for its capacity victim.
  static constexpr std::uint64_t kCapacitySamples = 4;

  /// Position of the `draw`-th capacity sample among `slots` slots.
  /// A full table's e-th capacity eviction (from 1) samples draws
  /// kCapacitySamples * (e - 1) up to kCapacitySamples * e - 1, and
  /// evicts the idlest (least last_ts; the earliest draw on a tie).
  static std::uint32_t capacity_sample(std::uint64_t draw,
                                       std::uint32_t slots) noexcept;

  explicit FlowMeter(FlowMeterConfig config = {});

  void set_sink(FlowSink sink) { sink_ = std::move(sink); }

  /// Update flow state with one packet. Non-IPv4 frames are counted and
  /// skipped. Eviction checks run opportunistically against the
  /// packet's timestamp (virtual time).
  ///
  /// Parse-once: `view` must be a decode of `pkt`'s bytes
  /// (DecodedPacket guarantees this); the meter never re-parses. The
  /// DecodedPacket overload also reuses the tap's flow hash; the other
  /// computes it.
  void offer(const packet::Packet& pkt, const packet::PacketView& view,
             sim::Direction dir);
  void offer(const DecodedPacket& decoded);

  /// Evict every flow idle/active-expired as of `now`, in slot order.
  void sweep(Timestamp now);

  /// Evict everything unconditionally (end of capture), in slot order.
  void flush();

  std::size_t active_flows() const noexcept { return table_.size(); }

  /// Table size safe to read from ANY thread while the owning worker is
  /// still metering (relaxed atomic mirror of table_.size()); this is
  /// what live obs gauges sample. May lag active_flows() by the update
  /// in flight.
  std::size_t approx_active_flows() const noexcept {
    return approx_size_.load(std::memory_order_relaxed);
  }

  const FlowMeterStats& stats() const noexcept { return stats_; }

  /// The live flow table. A sink may read it: a flow is still in its
  /// slot while the sink exports it.
  const FlowTable& table() const noexcept { return table_; }

 private:
  void update(const packet::Packet& pkt, const packet::PacketView& view,
              sim::Direction dir, std::uint64_t hash);
  /// Export and erase the idlest of kCapacitySamples sampled slots.
  void evict_for_capacity();
  void export_flow(std::uint32_t slot) {
    if (sink_) sink_(table_.record(slot));
  }
  void maybe_periodic_sweep(Timestamp now);

  /// Refresh approx_size_ after any table mutation.
  void publish_size() noexcept {
    approx_size_.store(table_.size(), std::memory_order_relaxed);
  }

  FlowMeterConfig config_;
  FlowSink sink_;
  FlowTable table_;
  std::atomic<std::size_t> approx_size_{0};
  FlowMeterStats stats_;
  Timestamp last_sweep_{};
  std::uint64_t capacity_draws_ = 0;
};

}  // namespace campuslab::capture
