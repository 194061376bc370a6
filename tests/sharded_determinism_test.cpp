// Determinism regression: the sharded engine must not change what the
// flow meter exports. The reference is the simplest pipeline there is:
// one FlowMeter fed the recorded trace directly, with no engine. A
// one-shard simulation run must reproduce its export stream byte for
// byte, and a threaded run's merged export must equal its canonical
// order. Every downstream EXPERIMENTS number is derived from these
// exports, so this is the contract that keeps results stable across
// capture-path changes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/features/flow_merge.h"
#include "campuslab/sim/simulator.h"

namespace campuslab::capture {
namespace {

/// Field-by-field serialization (no struct padding) so "byte-identical"
/// is well-defined.
void serialize(const FlowRecord& r, std::vector<std::uint8_t>& out) {
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
}

std::vector<std::uint8_t> serialize_all(
    const std::vector<FlowRecord>& records) {
  std::vector<std::uint8_t> out;
  for (const auto& r : records) serialize(r, out);
  return out;
}

/// A few seconds of campus traffic with one injected attack, recorded
/// (and decoded once) off the simulator tap so every pipeline replays
/// the exact same trace.
std::vector<DecodedPacket> record_trace() {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = 1234;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(800)
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(3)));

  sim::CampusSimulator simulator(scenario);
  std::vector<DecodedPacket> trace;
  simulator.network().set_tap(
      [&](const packet::Packet& p, sim::Direction d) {
        trace.emplace_back(p, d);
      });
  simulator.run_for(Duration::seconds(8));
  return trace;
}

/// The reference: one FlowMeter fed the trace directly, no engine.
std::vector<FlowRecord> serial_exports(
    const std::vector<DecodedPacket>& trace) {
  std::vector<FlowRecord> exports;
  FlowMeter meter;
  meter.set_sink([&](const FlowRecord& r) { exports.push_back(r); });
  for (const auto& frame : trace) meter.offer(frame);
  meter.flush();
  return exports;
}

TEST(ShardedDeterminism, SingleShardMatchesSerialMeterByteForByte) {
  const auto trace = record_trace();
  ASSERT_GT(trace.size(), 1000u);
  const auto reference = serial_exports(trace);

  // shards=1, simulation mode: offer, then consume inline on the same
  // thread, the way the Testbed runs it.
  std::vector<FlowRecord> sharded_exports;
  {
    ShardedCaptureEngine engine({.shards = 1, .ring_capacity = 1 << 16});
    FlowMeter meter;
    meter.set_sink(
        [&](const FlowRecord& r) { sharded_exports.push_back(r); });
    engine.add_sink_factory([&](std::size_t) {
      return [&](const DecodedPacket& t) { meter.offer(t); };
    });
    for (const auto& frame : trace) {
      engine.offer(frame.pkt, frame.dir);
      engine.poll_shard(0, 64);
    }
    engine.drain();
    meter.flush();
    EXPECT_EQ(engine.stats().dropped, 0u);
  }

  ASSERT_EQ(sharded_exports.size(), reference.size());
  EXPECT_EQ(serialize_all(sharded_exports), serialize_all(reference));
}

// The merged (canonically ordered) export is also invariant: sorting
// the serial reference gives exactly the sharded collector's merge of
// a run on a real worker thread.
TEST(ShardedDeterminism, MergedExportIsCanonical) {
  const auto trace = record_trace();
  const auto canonical =
      features::merge_flow_exports({serial_exports(trace)});

  auto sharded_merged = [&] {
    ShardedCaptureEngine engine({.shards = 1, .ring_capacity = 1 << 16});
    features::ShardedFlowCollector flows(engine.shards());
    engine.add_sink_factory([&](std::size_t s) {
      return [&flows, s](const DecodedPacket& t) { flows.meter(s).offer(t); };
    });
    engine.start();  // real worker this time
    for (const auto& frame : trace) {
      while (!engine.offer(frame.pkt, frame.dir)) {
      }
    }
    engine.stop();
    return flows.merged_export();
  }();

  EXPECT_EQ(serialize_all(sharded_merged), serialize_all(canonical));
}

}  // namespace
}  // namespace campuslab::capture
