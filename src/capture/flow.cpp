#include "campuslab/capture/flow.h"

#include <algorithm>

#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/util/hash.h"

namespace campuslab::capture {

using packet::PacketView;
using packet::TcpFlags;
using packet::TrafficLabel;

namespace {

// Shared across every FlowMeter in the process (per-shard meters
// aggregate; per-shard table sizes are exported separately by
// store::ShardedFlowIngester as labelled gauges).
struct FlowMetrics {
  obs::Counter& created =
      obs::Registry::global().counter("flow.flows_created");
  obs::Counter& evicted_idle =
      obs::Registry::global().counter("flow.evicted_idle");
  obs::Counter& evicted_active =
      obs::Registry::global().counter("flow.evicted_active");
  obs::Counter& evicted_capacity =
      obs::Registry::global().counter("flow.evicted_capacity");
  obs::Histogram& update_ns = obs::stage_histogram("flow_update");

  static FlowMetrics& get() {
    static FlowMetrics m;
    return m;
  }
};

/// The index word keeps the flow hash's top 32 bits.
constexpr std::uint64_t kHashTop = 0xFFFFFFFF00000000ULL;

/// Whether `b`, in either direction, is the conversation `a` keys.
bool same_flow(const packet::FiveTuple& a,
               const packet::FiveTuple& b) noexcept {
  return a == b || a == b.reversed();
}

}  // namespace

packet::TrafficLabel FlowRecord::majority_label() const noexcept {
  // Attack-if-any: argmax over the attack labels only; benign wins only
  // when no attack packet touched the flow.
  std::size_t best = 1;
  for (std::size_t i = 2; i < label_packets.size(); ++i)
    if (label_packets[i] > label_packets[best]) best = i;
  return label_packets[best] > 0 ? static_cast<TrafficLabel>(best)
                                 : TrafficLabel::kBenign;
}

bool flow_export_before(const FlowRecord& a, const FlowRecord& b) noexcept {
  if (a.first_ts != b.first_ts) return a.first_ts < b.first_ts;
  if (a.last_ts != b.last_ts) return a.last_ts < b.last_ts;
  return a.tuple < b.tuple;
}

std::uint32_t FlowTable::find(std::uint64_t hash,
                              const packet::FiveTuple& tuple) const noexcept {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = home(hash, bits_);; pos = (pos + 1) & mask) {
    const std::uint64_t word = index_[pos];
    if (word == 0) return kNone;
    if (((word ^ hash) & kHashTop) == 0) {
      const auto slot = static_cast<std::uint32_t>(word) - 1;
      if (same_flow(record(slot).tuple, tuple)) return slot;
    }
  }
}

std::uint32_t FlowTable::insert(std::uint64_t hash) {
  if ((size_ + 1) * 2 > index_.size()) grow();
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = claimed_++;
    if ((slot & (kChunkSlots - 1)) == 0)
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  Slot& s = at(slot);
  s.word = (hash & kHashTop) | (std::uint64_t{slot} + 1);
  s.record = FlowRecord{};
  place(s.word);
  ++size_;
  return slot;
}

void FlowTable::erase(std::uint32_t slot) noexcept {
  Slot& s = at(slot);
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(s.word, bits_);
  while (index_[hole] != s.word) hole = (hole + 1) & mask;
  // Backward shift: pull each later word of the probe run into the hole
  // unless the hole lies before that word's home.
  for (std::size_t pos = (hole + 1) & mask; index_[pos] != 0;
       pos = (pos + 1) & mask) {
    const std::size_t from_home = (pos - home(index_[pos], bits_)) & mask;
    if (from_home >= ((pos - hole) & mask)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = 0;
  s.word = 0;
  free_.push_back(slot);
  --size_;
}

void FlowTable::place(std::uint64_t word) noexcept {
  // The word's top 32 bits are the hash's, so its home is the hash's.
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = home(word, bits_);
  while (index_[pos] != 0) pos = (pos + 1) & mask;
  index_[pos] = word;
}

void FlowTable::grow() {
  bits_ = index_.empty() ? kMinIndexBits : bits_ + 1;
  std::vector<std::uint64_t> old(std::size_t{1} << bits_);
  old.swap(index_);
  for (const std::uint64_t word : old)
    if (word != 0) place(word);
}

void FlowTable::shrink() {
  if (claimed_ < kChunkSlots || size_ * 4 > claimed_) return;
  if (size_ == 0) {
    clear();
    return;
  }
  std::uint32_t to = 0;
  for (std::uint32_t from = static_cast<std::uint32_t>(size_);
       from < claimed_; ++from) {
    if (!live(from)) continue;
    while (live(to)) ++to;
    at(to).record = at(from).record;
    at(to).word = (at(from).word & kHashTop) | (std::uint64_t{to} + 1);
  }
  claimed_ = static_cast<std::uint32_t>(size_);
  std::vector<std::uint32_t>().swap(free_);
  chunks_.resize((claimed_ + kChunkSlots - 1) >> kChunkBits);
  bits_ = kMinIndexBits;
  while ((size_ + 1) * 2 > (std::size_t{1} << bits_)) ++bits_;
  std::vector<std::uint64_t>(std::size_t{1} << bits_).swap(index_);
  for (std::uint32_t slot = 0; slot < claimed_; ++slot) place(at(slot).word);
}

std::uint32_t FlowMeter::capacity_sample(std::uint64_t draw,
                                         std::uint32_t slots) noexcept {
  constexpr std::uint64_t kSeed = 0x5A3D1E5EEDULL;
  return static_cast<std::uint32_t>(util::mix64(kSeed + draw) % slots);
}

FlowMeter::FlowMeter(FlowMeterConfig config) : config_(config) {
  // The index addresses at most 2^32 words and stays half full.
  config_.max_flows = std::clamp<std::size_t>(config_.max_flows, 1,
                                              std::size_t{1} << 31);
}

void FlowMeter::offer(const packet::Packet& pkt, const PacketView& view,
                      sim::Direction dir) {
  update(pkt, view, dir, flow_hash(view));
}

void FlowMeter::offer(const DecodedPacket& decoded) {
  update(decoded.pkt, decoded.view, decoded.dir, decoded.hash);
}

void FlowMeter::update(const packet::Packet& pkt, const PacketView& view,
                       sim::Direction dir, std::uint64_t hash) {
  auto& metrics = FlowMetrics::get();
  obs::StageTimer stage_timer(metrics.update_ns);
  resilience::fault_point("flow.update");
  ++stats_.packets_seen;
  if (!view.valid() || !view.is_ipv4()) {
    ++stats_.non_ip_packets;
    return;
  }
  const auto tuple = *view.five_tuple();

  std::uint32_t slot = table_.find(hash, tuple);
  if (slot == FlowTable::kNone) {
    if (table_.size() >= config_.max_flows) {
      ++stats_.flows_evicted_capacity;
      metrics.evicted_capacity.increment();
      evict_for_capacity();
    }
    slot = table_.insert(hash);
    FlowRecord& fresh = table_.record(slot);
    fresh.tuple = tuple;
    fresh.initial_direction = dir;
    fresh.first_ts = pkt.ts;
    ++stats_.flows_created;
    metrics.created.increment();
    publish_size();
  }

  auto& rec = table_.record(slot);
  rec.last_ts = pkt.ts;
  ++rec.packets;
  rec.bytes += pkt.size();
  rec.payload_bytes += view.payload().size();
  const bool forward = (tuple == rec.tuple);
  (forward ? rec.fwd_packets : rec.rev_packets)++;
  if (view.is_tcp()) {
    const auto& t = view.tcp();
    if (t.syn() && !t.ack_flag()) ++rec.syn_count;
    if (t.syn() && t.ack_flag()) ++rec.synack_count;
    if (t.fin()) ++rec.fin_count;
    if (t.rst()) ++rec.rst_count;
    if (t.flags & TcpFlags::kPsh) ++rec.psh_count;
  }
  if (view.is_dns()) rec.saw_dns = true;
  ++rec.label_packets[static_cast<std::size_t>(pkt.label)];
  if (rec.scenario_id == 0) rec.scenario_id = pkt.scenario_id;

  // Active timeout applies even to busy flows (long transfers are cut
  // into multiple records, as NetFlow does).
  if (rec.last_ts - rec.first_ts >= config_.active_timeout) {
    ++stats_.flows_evicted_active;
    metrics.evicted_active.increment();
    export_flow(slot);
    table_.erase(slot);
    publish_size();
  }

  maybe_periodic_sweep(pkt.ts);
}

void FlowMeter::evict_for_capacity() {
  // Sampled eviction, as hardware NetFlow caches do: the idlest of a
  // few slots at seeded positions. O(1) even under flood-driven churn,
  // where a full scan would be quadratic. The table is full, and it
  // never claims more than max_flows slots, so every slot is live.
  const std::uint32_t slots = table_.slots();
  std::uint32_t victim = capacity_sample(capacity_draws_++, slots);
  for (std::uint64_t k = 1; k < kCapacitySamples; ++k) {
    const std::uint32_t cand = capacity_sample(capacity_draws_++, slots);
    if (table_.record(cand).last_ts < table_.record(victim).last_ts)
      victim = cand;
  }
  export_flow(victim);
  table_.erase(victim);
  publish_size();
}

void FlowMeter::sweep(Timestamp now) {
  auto& evicted_idle = FlowMetrics::get().evicted_idle;
  for (std::uint32_t slot = 0; slot < table_.slots(); ++slot) {
    if (!table_.live(slot) ||
        now - table_.record(slot).last_ts < config_.idle_timeout)
      continue;
    ++stats_.flows_evicted_idle;
    evicted_idle.increment();
    export_flow(slot);
    table_.erase(slot);
  }
  table_.shrink();
  publish_size();
  last_sweep_ = now;
}

void FlowMeter::flush() {
  for (std::uint32_t slot = 0; slot < table_.slots(); ++slot)
    if (table_.live(slot)) export_flow(slot);
  table_.clear();
  publish_size();
}

void FlowMeter::maybe_periodic_sweep(Timestamp now) {
  // Amortized sweep once per idle_timeout of virtual time.
  if (now - last_sweep_ >= config_.idle_timeout) sweep(now);
}

}  // namespace campuslab::capture
