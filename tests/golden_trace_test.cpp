// Golden-trace regression: a committed synthetic packet trace
// (tests/data/golden_trace_frames.txt) is replayed through the full
// capture pipeline — sharded engine, flow meters, dataset collector,
// FastLoop verdicts — and every observable output is compared
// line-by-line against a committed golden file. Any change to decode,
// flow accounting, feature extraction, merge order, or the dataplane
// compiler that shifts an output shows up as a diff here, not as a
// silent drift in EXPERIMENTS numbers.
//
// Regeneration (after an INTENDED behavior change):
//   CAMPUSLAB_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
// rewrites both files; commit the diff with the change that caused it.
//
// The fixture file — not the generator below — is the source of truth:
// frames are replayed from the committed bytes, so builder changes
// cannot silently change the input.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/control/development_loop.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/features/flow_merge.h"
#include "campuslab/features/packet_dataset.h"
#include "campuslab/features/packet_features.h"
#include "campuslab/packet/builder.h"
#include "campuslab/packet/dns.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/sharded_ingest.h"

namespace campuslab {
namespace {

using packet::DnsType;
using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using packet::TcpFlags;
using packet::TrafficLabel;

constexpr const char* kFramesPath =
    CAMPUSLAB_TEST_DATA_DIR "/golden_trace_frames.txt";
constexpr const char* kGoldenPath =
    CAMPUSLAB_TEST_DATA_DIR "/golden_trace_expected.txt";

/// One replayable frame: the committed representation.
struct TraceFrame {
  std::int64_t ts_ns = 0;
  sim::Direction dir = sim::Direction::kInbound;
  TrafficLabel label = TrafficLabel::kBenign;
  std::vector<std::uint8_t> bytes;
};

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> hex_decode(const std::string& hex) {
  auto nibble = [](char c) -> std::uint8_t {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) |
                                            nibble(hex[i + 1])));
  return out;
}

// ---------------------------------------------------------------------------
// Fixture generation (CAMPUSLAB_UPDATE_GOLDEN mode only).

Endpoint host(std::uint32_t id, std::uint8_t octet, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(id), Ipv4Address(10, 0, 0, octet),
                  port};
}
Endpoint external(std::uint32_t id, std::uint8_t octet, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(0x1000 + id),
                  Ipv4Address(198, 51, 100, octet), port};
}

/// Deterministic campus day-in-the-life: benign DNS lookups and TCP
/// sessions, an idle gap long enough to evict them, then a DNS
/// amplification burst against one victim, then recovery traffic.
std::vector<TraceFrame> generate_trace() {
  std::vector<TraceFrame> trace;
  auto add = [&trace](packet::Packet pkt, sim::Direction dir) {
    TraceFrame f;
    f.ts_ns = pkt.ts.nanos();
    f.dir = dir;
    f.label = pkt.label;
    f.bytes = pkt.copy_bytes();
    trace.push_back(std::move(f));
  };
  std::int64_t t = 1'000'000'000;  // 1s
  const auto resolver = external(1, 1, 53);

  // Phase 1: 30 benign DNS query/response pairs from 6 campus clients.
  for (int i = 0; i < 30; ++i) {
    const auto client =
        host(2 + (i % 6), static_cast<std::uint8_t>(2 + (i % 6)),
             static_cast<std::uint16_t>(40000 + i));
    const auto query = packet::make_dns_query(
        static_cast<std::uint16_t>(0x2000 + i),
        "svc" + std::to_string(i % 7) + ".example.edu", DnsType::kA);
    add(packet::build_dns_packet(Timestamp::from_nanos(t), client, resolver,
                                 query),
        sim::Direction::kOutbound);
    t += 3'000'000;  // 3ms RTT
    const auto resp = packet::make_dns_response(query, 1, 120 + (i % 5) * 30);
    add(packet::build_dns_packet(Timestamp::from_nanos(t), resolver, client,
                                 resp),
        sim::Direction::kInbound);
    t += 97'000'000;  // next lookup 100ms later
  }

  // Phase 2: 5 benign TCP sessions (handshake, data both ways, close).
  for (int s = 0; s < 5; ++s) {
    const auto client = host(20 + s, static_cast<std::uint8_t>(20 + s),
                             static_cast<std::uint16_t>(50000 + s));
    const auto server = external(40 + s, 40, 443);
    auto seg = [&](const Endpoint& src, const Endpoint& dst,
                   std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                   std::size_t payload, sim::Direction dir) {
      add(PacketBuilder(Timestamp::from_nanos(t))
              .tcp(src, dst, flags, seq, ack)
              .payload_size(payload)
              .build(),
          dir);
      t += 10'000'000;  // 10ms per segment
    };
    seg(client, server, TcpFlags::kSyn, 100, 0, 0,
        sim::Direction::kOutbound);
    seg(server, client, TcpFlags::kSyn | TcpFlags::kAck, 300, 101, 0,
        sim::Direction::kInbound);
    seg(client, server, TcpFlags::kAck, 101, 301, 0,
        sim::Direction::kOutbound);
    seg(client, server, TcpFlags::kPsh | TcpFlags::kAck, 101, 301,
        200 + static_cast<std::size_t>(s) * 40, sim::Direction::kOutbound);
    seg(server, client, TcpFlags::kPsh | TcpFlags::kAck, 301, 341,
        400 + static_cast<std::size_t>(s) * 100, sim::Direction::kInbound);
    seg(client, server, TcpFlags::kFin | TcpFlags::kAck, 341, 701, 0,
        sim::Direction::kOutbound);
    seg(server, client, TcpFlags::kAck, 701, 342, 0,
        sim::Direction::kInbound);
  }

  // Phase 3: idle gap past the 15s idle timeout, so phase 1-2 flows
  // evict mid-trace (exercises sweep + export ordering).
  t += 20'000'000'000;

  // Phase 4: DNS amplification burst — 60 large spoofed responses from
  // 4 "open resolvers" onto one victim, 5ms apart.
  const auto victim = host(5, 5, 33000);
  for (int i = 0; i < 60; ++i) {
    const auto amp = external(60 + (i % 4),
                              static_cast<std::uint8_t>(60 + (i % 4)), 53);
    const auto query = packet::make_dns_query(
        static_cast<std::uint16_t>(0x7000 + i), "big.example.org",
        DnsType::kAny);
    const auto resp = packet::make_dns_response(query, 8, 1100 + (i % 3) * 50);
    add(packet::build_dns_packet(Timestamp::from_nanos(t), amp, victim, resp,
                                 TrafficLabel::kDnsAmplification),
        sim::Direction::kInbound);
    t += 5'000'000;
  }

  // Phase 5: 10 benign lookups after the attack subsides.
  for (int i = 0; i < 10; ++i) {
    const auto client = host(2 + (i % 3), static_cast<std::uint8_t>(2 + (i % 3)),
                             static_cast<std::uint16_t>(41000 + i));
    const auto query = packet::make_dns_query(
        static_cast<std::uint16_t>(0x9000 + i), "recovery.example.edu",
        DnsType::kA);
    add(packet::build_dns_packet(Timestamp::from_nanos(t), client, resolver,
                                 query),
        sim::Direction::kOutbound);
    t += 2'000'000;
    const auto resp = packet::make_dns_response(query, 1, 150);
    add(packet::build_dns_packet(Timestamp::from_nanos(t), resolver, client,
                                 resp),
        sim::Direction::kInbound);
    t += 98'000'000;
  }
  return trace;
}

void write_fixture(const std::vector<TraceFrame>& trace) {
  std::ofstream out(kFramesPath);
  ASSERT_TRUE(out) << kFramesPath;
  out << "# ts_ns dir label hexbytes — replayed by golden_trace_test\n";
  for (const auto& f : trace)
    out << f.ts_ns << ' ' << static_cast<int>(f.dir) << ' '
        << static_cast<int>(f.label) << ' ' << hex_encode(f.bytes) << '\n';
}

std::vector<TraceFrame> read_fixture() {
  std::ifstream in(kFramesPath);
  std::vector<TraceFrame> trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::int64_t ts_ns = 0;
    int dir = 0, label = 0;
    std::string hex;
    fields >> ts_ns >> dir >> label >> hex;
    TraceFrame f;
    f.ts_ns = ts_ns;
    f.dir = static_cast<sim::Direction>(dir);
    f.label = static_cast<TrafficLabel>(label);
    f.bytes = hex_decode(hex);
    trace.push_back(std::move(f));
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Pipeline replay and output serialization.

std::string fmt_double(double v) {
  // %.9g survives sub-ulp libm drift while still pinning every feature
  // the tree could split on.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Same handcrafted deterministic package as obs_test: a stump over
/// identity-quantized kFrameBytes splitting at 700 — attack-sized DNS
/// responses land above it with confidence 1.0.
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
  std::vector<std::pair<double, double>> ranges(
      features::kPacketFeatureCount,
      {0.0, static_cast<double>(dataplane::Quantizer::kMaxQ) + 1.0});
  package.quantizer = dataplane::Quantizer::from_ranges(std::move(ranges));
  package.strategy = "tree_walk";
  return package;
}

/// Replay the trace through the pipeline; every observable output
/// becomes one line.
std::vector<std::string> run_pipeline(const std::vector<TraceFrame>& trace) {
  constexpr std::size_t kShards = 2;
  capture::ShardedCaptureEngine engine(
      {.shards = kShards, .ring_capacity = 1 << 9});
  features::ShardedFlowCollector collector(kShards);
  features::PacketDatasetCollector datasets;
  engine.add_sink_factory([&](std::size_t shard) {
    return [&collector, &datasets, shard](const capture::DecodedPacket& t) {
      collector.meter(shard).offer(t.pkt, t.view, t.dir);
      datasets.offer(t.pkt, t.view, t.dir);
    };
  });

  auto package = make_frame_size_package(700.0);
  auto loop = control::FastLoop::deploy(package);
  EXPECT_TRUE(loop.ok());

  std::string verdicts;
  for (const auto& f : trace) {
    packet::Packet pkt;
    pkt.ts = Timestamp::from_nanos(f.ts_ns);
    pkt.label = f.label;
    pkt.assign(f.bytes);
    // FastLoop scores inbound frames only — mirror the ingress scope,
    // which decodes the frame where it enters.
    if (f.dir == sim::Direction::kInbound)
      verdicts.push_back(
          loop.value()->inspect(pkt, packet::PacketView(pkt)) ? '1' : '0');
    engine.offer(std::move(pkt), f.dir);
    engine.drain();  // sim mode: consume in arrival order
  }
  engine.drain();

  std::vector<std::string> lines;
  lines.push_back("trace frames=" + std::to_string(trace.size()));

  // FastLoop verdicts: one char per inbound frame, 64 per line.
  const auto& stats = loop.value()->stats();
  lines.push_back("verdicts inspected=" + std::to_string(stats.inspected) +
                  " dropped=" + std::to_string(stats.dropped) +
                  " attack_dropped=" + std::to_string(stats.attack_dropped) +
                  " benign_dropped=" + std::to_string(stats.benign_dropped));
  for (std::size_t i = 0; i < verdicts.size(); i += 64)
    lines.push_back("verdict " + verdicts.substr(i, 64));

  // Flow exports in canonical merged order, field by field.
  const auto flows = features::merge_flow_exports({collector.merged_export()});
  lines.push_back("flows " + std::to_string(flows.size()));
  for (const auto& r : flows) {
    std::ostringstream s;
    s << "flow " << r.tuple.to_string()
      << " dir=" << static_cast<int>(r.initial_direction)
      << " first=" << r.first_ts.nanos() << " last=" << r.last_ts.nanos()
      << " pkts=" << r.packets << " bytes=" << r.bytes
      << " payload=" << r.payload_bytes << " fwd=" << r.fwd_packets
      << " rev=" << r.rev_packets << " syn=" << r.syn_count
      << " synack=" << r.synack_count << " fin=" << r.fin_count
      << " rst=" << r.rst_count << " psh=" << r.psh_count
      << " dns=" << (r.saw_dns ? 1 : 0) << " label="
      << packet::to_string(r.majority_label());
    lines.push_back(s.str());
  }

  // Dataset rows: every inbound IPv4 frame's stateful feature vector.
  const auto& data = datasets.dataset();
  lines.push_back("rows " + std::to_string(data.n_rows()));
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    std::string s = "row " + std::to_string(data.label(i));
    for (const double v : data.row(i)) {
      s.push_back(' ');
      s += fmt_double(v);
    }
    lines.push_back(std::move(s));
  }
  return lines;
}

TEST(GoldenTrace, PipelineOutputsMatchCommittedGolden) {
  if (std::getenv("CAMPUSLAB_UPDATE_GOLDEN") != nullptr) {
    write_fixture(generate_trace());
    const auto lines = run_pipeline(read_fixture());
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out) << kGoldenPath;
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "regenerated " << kFramesPath << " and " << kGoldenPath;
  }

  const auto trace = read_fixture();
  ASSERT_GT(trace.size(), 100u)
      << "fixture missing or unreadable: " << kFramesPath;
  const auto actual = run_pipeline(trace);

  std::ifstream golden(kGoldenPath);
  ASSERT_TRUE(golden) << "golden missing: " << kGoldenPath;
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(golden, line)) expected.push_back(line);

  ASSERT_EQ(actual.size(), expected.size())
      << "output line count drifted — if intended, regenerate with "
         "CAMPUSLAB_UPDATE_GOLDEN=1";
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "golden mismatch at line " << i + 1;
}

TEST(GoldenTrace, ReplayIsDeterministicAcrossRuns) {
  // The pipeline itself must be a pure function of the trace: two
  // fresh replays in one process (different registry/metric state,
  // different heap layout) produce identical output.
  const auto trace = read_fixture();
  ASSERT_GT(trace.size(), 100u);
  const auto first = run_pipeline(trace);
  const auto second = run_pipeline(trace);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << "nondeterminism at line " << i + 1;
}

TEST(GoldenTrace, FixtureFramesDecode) {
  // Every committed frame must still decode to an IPv4 packet with a
  // 5-tuple — guards against fixture corruption (bad hex, truncation).
  const auto trace = read_fixture();
  ASSERT_GT(trace.size(), 100u);
  std::int64_t prev_ts = -1;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const packet::PacketView view{
        std::span<const std::uint8_t>(trace[i].bytes)};
    EXPECT_TRUE(view.valid()) << "frame " << i;
    EXPECT_TRUE(view.five_tuple().has_value()) << "frame " << i;
    EXPECT_GE(trace[i].ts_ns, prev_ts) << "timestamps regress at " << i;
    prev_ts = trace[i].ts_ns;
  }
}

}  // namespace
}  // namespace campuslab
