// FlowMeter's flat table against the table it replaced.
//
// The reference is a test-local copy of the meter as it was before the
// flat table: one std::unordered_map node per flow, keyed by the
// bidirectional tuple, with capacity victims sampled from hash buckets.
// Both meters get the same seeded traffic: a campus scenario, a SYN
// flood, flows that cross the active timeout and idle gaps that trigger
// sweeps. Below max_flows they must export the same flows at every call
// (as multisets: only the order within one sweep or flush may differ)
// and keep equal counters. At a small max_flows, where the two evict
// different victims, the flat table is held to its own rule: every
// victim is the idlest of the slots its seeded draws name, and two runs
// export byte-identical sequences.
//
// The index takes its home positions from the flow hash's high bits;
// a guard checks that one shard's keys, whose low bits the spreader
// fixed, still spread over the whole index.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "campuslab/capture/flow.h"
#include "campuslab/sim/simulator.h"
#include "campuslab/util/rng.h"

namespace campuslab::capture {
namespace {

using packet::FiveTuple;
using packet::Ipv4Address;

/// The meter before the flat table, minus its metrics and fault point.
class ReferenceMeter {
 public:
  explicit ReferenceMeter(FlowMeterConfig config) : config_(config) {}

  void set_sink(FlowMeter::FlowSink sink) { sink_ = std::move(sink); }
  const FlowMeterStats& stats() const noexcept { return stats_; }
  std::size_t active_flows() const noexcept { return table_.size(); }

  void offer(const DecodedPacket& decoded) {
    const auto& pkt = decoded.pkt;
    const auto& view = decoded.view;
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
        auto victim = table_.end();
        int sampled = 0;
        std::size_t guard = 0;
        const std::size_t buckets = table_.bucket_count();
        while (sampled < 4 && guard < buckets * 2) {
          const std::size_t b = static_cast<std::size_t>(
              evict_cursor_++ * 0x9E3779B97F4A7C15ULL % buckets);
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
        evict(victim->second);
        table_.erase(victim);
      }
      FlowState state;
      state.record.tuple = tuple;
      state.record.initial_direction = decoded.dir;
      state.record.first_ts = pkt.ts;
      ++stats_.flows_created;
      it = table_.emplace(key, std::move(state)).first;
    }
    auto& rec = it->second.record;
    rec.last_ts = pkt.ts;
    it->second.last_activity = pkt.ts;
    ++rec.packets;
    rec.bytes += pkt.size();
    rec.payload_bytes += view.payload().size();
    (tuple == rec.tuple ? rec.fwd_packets : rec.rev_packets)++;
    if (view.is_tcp()) {
      const auto& t = view.tcp();
      if (t.syn() && !t.ack_flag()) ++rec.syn_count;
      if (t.syn() && t.ack_flag()) ++rec.synack_count;
      if (t.fin()) ++rec.fin_count;
      if (t.rst()) ++rec.rst_count;
      if (t.flags & packet::TcpFlags::kPsh) ++rec.psh_count;
    }
    if (view.is_dns()) rec.saw_dns = true;
    ++rec.label_packets[static_cast<std::size_t>(pkt.label)];
    if (rec.scenario_id == 0) rec.scenario_id = pkt.scenario_id;
    if (rec.last_ts - rec.first_ts >= config_.active_timeout) {
      ++stats_.flows_evicted_active;
      evict(it->second);
      table_.erase(it);
    }
    if (pkt.ts - last_sweep_ >= config_.idle_timeout) sweep(pkt.ts);
  }

  void sweep(Timestamp now) {
    for (auto it = table_.begin(); it != table_.end();) {
      if (now - it->second.last_activity >= config_.idle_timeout) {
        ++stats_.flows_evicted_idle;
        evict(it->second);
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
    last_sweep_ = now;
  }

  void flush() {
    for (auto& entry : table_) evict(entry.second);
    table_.clear();
  }

 private:
  struct FlowState {
    FlowRecord record;
    Timestamp last_activity;
  };

  void evict(const FlowState& state) {
    if (sink_) sink_(state.record);
  }

  FlowMeterConfig config_;
  FlowMeter::FlowSink sink_;
  std::unordered_map<FiveTuple, FlowState> table_;
  FlowMeterStats stats_;
  Timestamp last_sweep_{};
  std::uint64_t evict_cursor_ = 1;
};

/// Every field, packed, so equal bytes mean equal records.
std::vector<std::uint8_t> serialize(const FlowRecord& r) {
  std::vector<std::uint8_t> out;
  auto put = [&out](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  put(r.tuple.src.value());
  put(r.tuple.dst.value());
  put(r.tuple.src_port);
  put(r.tuple.dst_port);
  put(r.tuple.proto);
  put(static_cast<std::uint8_t>(r.initial_direction));
  put(r.first_ts.nanos());
  put(r.last_ts.nanos());
  put(r.packets);
  put(r.bytes);
  put(r.payload_bytes);
  put(r.fwd_packets);
  put(r.rev_packets);
  put(r.syn_count);
  put(r.synack_count);
  put(r.fin_count);
  put(r.rst_count);
  put(r.psh_count);
  put(static_cast<std::uint8_t>(r.saw_dns));
  for (const auto count : r.label_packets) put(count);
  put(r.scenario_id);
  return out;
}

using Batch = std::vector<std::vector<std::uint8_t>>;

bool same_stats(const FlowMeterStats& a, const FlowMeterStats& b) {
  return a.packets_seen == b.packets_seen &&
         a.non_ip_packets == b.non_ip_packets &&
         a.flows_created == b.flows_created &&
         a.flows_evicted_idle == b.flows_evicted_idle &&
         a.flows_evicted_active == b.flows_evicted_active &&
         a.flows_evicted_capacity == b.flows_evicted_capacity;
}

/// Frames recorded (and decoded once) off the simulator's tap.
std::vector<DecodedPacket> record(const sim::ScenarioConfig& scenario,
                                  Duration span) {
  sim::CampusSimulator simulator(scenario);
  std::vector<DecodedPacket> trace;
  simulator.network().set_tap(
      [&](const packet::Packet& p, sim::Direction d) {
        trace.emplace_back(p, d);
      });
  simulator.run_for(span);
  return trace;
}

/// Campus traffic with a DNS amplification and a port scan, with two
/// silent gaps of `gap` spliced in: every frame after a gap is shifted
/// later, so the first frame past it sweeps every flow that went idle.
std::vector<DecodedPacket> campus_trace(std::uint64_t seed, Duration gap) {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = seed;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(600)
          .starting_at(Timestamp::from_seconds(3))
          .lasting(Duration::seconds(4)));
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kPortScan)
          .rate(300)
          .starting_at(Timestamp::from_seconds(8))
          .lasting(Duration::seconds(4)));
  auto trace = record(scenario, Duration::seconds(30));
  const std::size_t cuts[] = {trace.size() / 3, 2 * trace.size() / 3};
  Duration shift = Duration::nanos(0);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i == cuts[0] || i == cuts[1]) shift = shift + gap;
    trace[i].pkt.ts = trace[i].pkt.ts + shift;
  }
  return trace;
}

/// Spoofed SYNs at line rate: one new flow per frame.
std::vector<DecodedPacket> syn_flood_trace(std::uint64_t seed) {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = seed;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kSynFlood)
          .rate(20'000)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(2)));
  return record(scenario, Duration::seconds(4));
}

/// Feed both meters frame by frame. After every offer, the exports it
/// caused (an active-timeout cut, a sweep) must agree as multisets, and
/// so must every counter; so must the final flush. Returns how many
/// calls exported anything, the flush included.
std::size_t expect_equivalent(const std::vector<DecodedPacket>& trace,
                              const FlowMeterConfig& config) {
  FlowMeter meter(config);
  ReferenceMeter reference(config);
  Batch got, want;
  meter.set_sink([&](const FlowRecord& r) { got.push_back(serialize(r)); });
  reference.set_sink(
      [&](const FlowRecord& r) { want.push_back(serialize(r)); });
  std::size_t calls_with_exports = 0;
  // Reports the first call where the meters part, then stops.
  auto agree = [&](std::size_t frame) {
    if (!got.empty() || !want.empty()) ++calls_with_exports;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    const bool same = got == want &&
                      same_stats(meter.stats(), reference.stats()) &&
                      meter.active_flows() == reference.active_flows();
    EXPECT_TRUE(same) << "the meters part at frame " << frame << " of "
                      << trace.size() << ": " << got.size() << " vs "
                      << want.size() << " exports";
    got.clear();
    want.clear();
    return same;
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    meter.offer(trace[i]);
    reference.offer(trace[i]);
    if (!agree(i)) return calls_with_exports;
  }
  meter.flush();
  reference.flush();
  agree(trace.size());
  EXPECT_EQ(meter.active_flows(), 0u);
  EXPECT_GT(meter.stats().flows_created, 0u);
  return calls_with_exports;
}

TEST(FlowTableDifferential, CampusMatchesReferenceAtDefaultTimeouts) {
  const auto trace = campus_trace(1234, Duration::seconds(40));
  ASSERT_GT(trace.size(), 20'000u);
  // The two 40 s gaps each sweep the whole table.
  EXPECT_GE(expect_equivalent(trace, FlowMeterConfig{}), 3u);
}

TEST(FlowTableDifferential, CampusMatchesReferenceAcrossTimeouts) {
  // Short timeouts: the meter sweeps every second of packet time and
  // cuts every conversation longer than two seconds.
  FlowMeterConfig config;
  config.idle_timeout = Duration::seconds(1);
  config.active_timeout = Duration::seconds(2);
  for (const std::uint64_t seed : {7ull, 8ull}) {
    const auto trace = campus_trace(seed, Duration::seconds(5));
    FlowMeter probe(config);
    for (const auto& frame : trace) probe.offer(frame);
    ASSERT_GT(probe.stats().flows_evicted_active, 20u) << "seed " << seed;
    ASSERT_GT(probe.stats().flows_evicted_idle, 2'000u) << "seed " << seed;
    EXPECT_GT(expect_equivalent(trace, config), 50u) << "seed " << seed;
  }
}

TEST(FlowTableDifferential, SynFloodMatchesReference) {
  const auto trace = syn_flood_trace(99);
  ASSERT_GT(trace.size(), 30'000u);
  expect_equivalent(trace, FlowMeterConfig{});
  FlowMeterConfig sweeping;
  sweeping.idle_timeout = Duration::millis(250);
  EXPECT_GT(expect_equivalent(trace, sweeping), 5u);
}

/// A full table's capacity victims, checked against the sampling rule
/// from inside the sink, while the victim is still in its slot.
struct CapacityAudit {
  const FlowMeter* meter = nullptr;
  std::uint64_t seen = 0;
  std::uint64_t exported = 0;
  std::uint64_t victims = 0;
  std::vector<std::uint8_t> stream;

  void operator()(const FlowRecord& r) {
    ++exported;
    const auto bytes = serialize(r);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    const std::uint64_t evictions = meter->stats().flows_evicted_capacity;
    if (evictions == seen) return;  // an idle, active or flush export
    seen = evictions;
    ++victims;
    const FlowTable& table = meter->table();
    ASSERT_EQ(table.size(), table.slots()) << "a full table has no free slot";
    std::uint32_t idlest = FlowTable::kNone;
    for (std::uint64_t k = 0; k < FlowMeter::kCapacitySamples; ++k) {
      const auto slot = FlowMeter::capacity_sample(
          (evictions - 1) * FlowMeter::kCapacitySamples + k, table.slots());
      ASSERT_LT(slot, table.slots());
      ASSERT_TRUE(table.live(slot));
      if (idlest == FlowTable::kNone ||
          table.record(slot).last_ts < table.record(idlest).last_ts)
        idlest = slot;
    }
    EXPECT_EQ(&r, &table.record(idlest))
        << "capacity eviction " << evictions
        << " did not take the idlest sampled slot";
  }
};

CapacityAudit run_at_capacity(const std::vector<DecodedPacket>& trace,
                              const FlowMeterConfig& config) {
  FlowMeter meter(config);
  CapacityAudit audit;
  audit.meter = &meter;
  meter.set_sink([&audit](const FlowRecord& r) { audit(r); });
  for (const auto& frame : trace) {
    meter.offer(frame);
    EXPECT_LE(meter.active_flows(), config.max_flows);
  }
  const auto& s = meter.stats();
  EXPECT_EQ(s.flows_created, audit.exported + meter.active_flows());
  EXPECT_EQ(audit.exported, s.flows_evicted_idle + s.flows_evicted_active +
                                s.flows_evicted_capacity);
  EXPECT_EQ(audit.victims, s.flows_evicted_capacity);
  meter.flush();
  EXPECT_EQ(s.flows_created, audit.exported);
  return audit;
}

TEST(FlowTableDifferential, FullTableEvictsIdlestSampledSlotDeterministically) {
  FlowMeterConfig config;
  config.max_flows = 64;
  config.idle_timeout = Duration::seconds(2);
  config.active_timeout = Duration::seconds(5);
  for (const auto& trace :
       {campus_trace(1234, Duration::seconds(5)), syn_flood_trace(99)}) {
    const auto first = run_at_capacity(trace, config);
    EXPECT_GT(first.victims, 1'000u);
    const auto second = run_at_capacity(trace, config);
    EXPECT_EQ(first.stream, second.stream);
  }
}

TEST(FlowTable, IndexGrowsShrinksAndDeletesWithoutLosingFlows) {
  // Colliding fingerprints and long probe runs: the hashes' top 32
  // bits take 1,024 values and their homes 64, so lookups must check
  // the tuple behind a matching word, and deletes shift whole runs.
  // Two fill-then-drain waves make shrink() move records and release
  // chunks and index space.
  FlowTable table;
  Rng rng(42);
  std::vector<std::pair<std::uint64_t, FiveTuple>> live;
  auto expect_all_found = [&] {
    ASSERT_EQ(table.size(), live.size());
    std::vector<bool> taken(table.slots());
    for (const auto& [hash, t] : live) {
      const auto slot = table.find(hash, t);
      ASSERT_NE(slot, FlowTable::kNone);
      ASSERT_EQ(table.find(hash, t.reversed()), slot);
      ASSERT_TRUE(table.live(slot));
      ASSERT_EQ(table.record(slot).tuple, t);
      ASSERT_FALSE(taken[slot]) << "two flows in slot " << slot;
      taken[slot] = true;
    }
  };
  std::uint32_t most_slots = 0;
  for (int round = 0; round < 40'000; ++round) {
    const bool filling = (round / 10'000) % 2 == 0;
    if (live.empty() || rng.chance(filling ? 0.7 : 0.2)) {
      FiveTuple t{Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                  Ipv4Address(10, 0, 0, 1),
                  static_cast<std::uint16_t>(rng.below(65536)), 80, 6};
      const std::uint64_t hash = (rng.below(64) << 58) |
                                 (rng.below(16) << 32) |
                                 (rng.next() & 0xFFFF'FFFFull);
      if (table.find(hash, t) != FlowTable::kNone) continue;
      table.record(table.insert(hash)).tuple = t;
      live.emplace_back(hash, t);
    } else {
      const std::size_t i = rng.below(live.size());
      table.erase(table.find(live[i].first, live[i].second));
      live[i] = live.back();
      live.pop_back();
    }
    most_slots = std::max(most_slots, table.slots());
    if (round % 1'000 == 999) {
      table.shrink();
      expect_all_found();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(most_slots, 3'000u);
  EXPECT_LT(table.slots(), 1'000u) << "the drained table gave no memory back";
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.slots(), 0u);
}

/// Shares of 2^17 homes that land in each 1/64 of the index, both as 64
/// contiguous ranges and as 64 residue classes; true when every share
/// is within 0.5x-2x of even.
bool spreads_evenly(const std::vector<std::size_t>& homes, unsigned bits) {
  constexpr std::size_t kParts = 64;
  std::vector<std::size_t> by_range(kParts), by_residue(kParts);
  for (const auto home : homes) {
    ++by_range[home >> (bits - 6)];
    ++by_residue[home % kParts];
  }
  const double even = static_cast<double>(homes.size()) / kParts;
  for (std::size_t p = 0; p < kParts; ++p)
    for (const auto count : {by_range[p], by_residue[p]})
      if (count < 0.5 * even || count > 2.0 * even) return false;
  return true;
}

TEST(FlowTable, HomePositionsSpreadWithinOneShard) {
  // A shard of four sees only flow hashes = s (mod 4): the spreader
  // fixed their two low bits. Homes must still cover the whole index.
  constexpr std::size_t kShards = 4;
  constexpr unsigned kBits = 17;
  constexpr std::size_t kKeys = std::size_t{1} << (kBits - 1);
  Rng rng(0x5EEDull);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    std::vector<std::size_t> homes, low_bit_homes;
    while (homes.size() < kKeys) {
      const FiveTuple t{Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                        Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                        static_cast<std::uint16_t>(rng.below(65536)),
                        static_cast<std::uint16_t>(rng.below(65536)),
                        static_cast<std::uint8_t>(rng.chance(0.5) ? 6 : 17)};
      const std::uint64_t hash = t.bidirectional().hash();
      if (hash % kShards != shard) continue;
      homes.push_back(FlowTable::home(hash, kBits));
      low_bit_homes.push_back(hash & ((std::size_t{1} << kBits) - 1));
    }
    EXPECT_TRUE(spreads_evenly(homes, kBits)) << "shard " << shard;
    // The check can tell: homes from the low bits use a quarter of the
    // index and fail it.
    EXPECT_FALSE(spreads_evenly(low_bit_homes, kBits)) << "shard " << shard;
  }
}

}  // namespace
}  // namespace campuslab::capture
