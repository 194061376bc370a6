#include "campuslab/capture/flow.h"

#include <algorithm>

#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/resilience/fault.h"

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

FlowMeter::FlowMeter(FlowMeterConfig config) : config_(config) {}

void FlowMeter::offer(const packet::Packet& pkt, const PacketView& view,
                      sim::Direction dir) {
  auto& metrics = FlowMetrics::get();
  obs::StageTimer stage_timer(metrics.update_ns);
  resilience::fault_point("flow.update");
  ++stats_.packets_seen;
  if (!view.valid() || !view.is_ipv4()) {
    ++stats_.non_ip_packets;
    return;
  }
  const auto tuple = *view.five_tuple();
  const auto key = tuple.bidirectional();

  auto it = table_.find(key);
  if (it == table_.end()) {
    if (table_.size() >= config_.max_flows) {
      // Capacity pressure: sampled eviction (as hardware NetFlow caches
      // do) — probe a few random buckets and evict the idlest of the
      // sampled entries. O(1) amortized even under flood-driven table
      // churn, where a full scan would be quadratic.
      auto victim = table_.end();
      int sampled = 0;
      std::size_t guard = 0;
      const std::size_t buckets = table_.bucket_count();
      while (sampled < 4 && guard < buckets * 2) {
        const std::size_t b =
            static_cast<std::size_t>(evict_cursor_++ *
                                     0x9E3779B97F4A7C15ULL % buckets);
        ++guard;
        const auto local = table_.begin(b);
        if (local == table_.end(b)) continue;
        const auto cand = table_.find(local->first);
        ++sampled;
        if (victim == table_.end() ||
            cand->second.last_activity < victim->second.last_activity)
          victim = cand;
      }
      if (victim == table_.end()) victim = table_.begin();
      ++stats_.flows_evicted_capacity;
      metrics.evicted_capacity.increment();
      evict(victim->first, victim->second);
      table_.erase(victim);
      publish_size();
    }
    FlowState state;
    state.record.tuple = tuple;
    state.record.initial_direction = dir;
    state.record.first_ts = pkt.ts;
    ++stats_.flows_created;
    metrics.created.increment();
    it = table_.emplace(key, std::move(state)).first;
    publish_size();
  }

  auto& rec = it->second.record;
  rec.last_ts = pkt.ts;
  it->second.last_activity = pkt.ts;
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
    evict(key, it->second);
    table_.erase(it);
    publish_size();
  }

  maybe_periodic_sweep(pkt.ts);
}

void FlowMeter::sweep(Timestamp now) {
  for (auto it = table_.begin(); it != table_.end();) {
    if (now - it->second.last_activity >= config_.idle_timeout) {
      ++stats_.flows_evicted_idle;
      FlowMetrics::get().evicted_idle.increment();
      evict(it->first, it->second);
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  publish_size();
  last_sweep_ = now;
}

void FlowMeter::flush() {
  for (auto& [key, state] : table_) evict(key, state);
  table_.clear();
  publish_size();
}

void FlowMeter::evict(const packet::FiveTuple&, FlowState& state) {
  if (sink_) sink_(state.record);
}

void FlowMeter::maybe_periodic_sweep(Timestamp now) {
  // Amortized sweep once per idle_timeout of virtual time.
  if (now - last_sweep_ >= config_.idle_timeout) sweep(now);
}

}  // namespace campuslab::capture
