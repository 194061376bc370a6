// SegmentFile round-trip property suite + the golden format fixture.
//
// The tiering claim the rest of the store builds on: encode → decode is
// the identity on segments. Randomized segments (empty, single-flow,
// max-varint timestamps, duplicate hosts, wide time spans) must come
// back with bit-identical StoredFlow sequences and identical index and
// zone-map answers; a store whose segments all spilled must answer
// queries and aggregations bit-identically to the same store fully in
// RAM, at several thread counts; and a failing disk must degrade
// gracefully (segments stay hot, retries counted in obs).
//
// The plan projections (decode_projection, ColdSegmentHandle::load)
// must hold exactly the whole decode's rows at the offsets the
// plan's index names, and the handle shares a live decode only with the
// plans it serves.
//
// The golden fixture (tests/data/golden_segment_v3.clseg) pins the
// on-disk bytes — magic, version, directory, column layout. An
// intentional format change regenerates it with CAMPUSLAB_UPDATE_GOLDEN=1
// and bumps kSegmentFileVersion; an accidental one fails here loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "campuslab/obs/registry.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/store/datastore.h"
#include "campuslab/store/query_engine.h"
#include "campuslab/store/segment_file.h"

namespace campuslab::store {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using packet::TrafficLabel;

// ------------------------------------------------------------ builders

FlowRecord flow_at(double start_s, Ipv4Address src, Ipv4Address dst,
                   std::uint16_t sport, std::uint16_t dport,
                   std::uint8_t proto = 6,
                   TrafficLabel label = TrafficLabel::kBenign,
                   std::uint64_t bytes = 1500) {
  FlowRecord f;
  f.tuple = packet::FiveTuple{src, dst, sport, dport, proto};
  f.first_ts = Timestamp::from_seconds(start_s);
  f.last_ts = Timestamp::from_seconds(start_s + 0.05);
  f.packets = 3;
  f.bytes = bytes;
  f.label_packets[static_cast<std::size_t>(label)] = 3;
  return f;
}

FlowRecord random_flow(std::mt19937_64& rng) {
  FlowRecord f;
  // Duplicate hosts on purpose: a handful of addresses shared by many
  // flows exercises the dictionary path.
  const auto host = [&] {
    return Ipv4Address(10, 2, static_cast<std::uint8_t>(rng() % 3),
                       static_cast<std::uint8_t>(rng() % 16));
  };
  f.tuple = packet::FiveTuple{
      host(), host(), static_cast<std::uint16_t>(rng() % 65536),
      static_cast<std::uint16_t>(rng() % 65536),
      static_cast<std::uint8_t>(rng() % 4 == 0 ? 17 : 6)};
  f.initial_direction =
      rng() & 1 ? sim::Direction::kOutbound : sim::Direction::kInbound;
  // Wide span: seconds to days apart within one segment.
  const auto base = static_cast<std::int64_t>(rng() % (86'400ull * 7));
  f.first_ts = Timestamp::from_seconds(static_cast<double>(base));
  f.last_ts = f.first_ts + Duration::nanos(static_cast<std::int64_t>(
                  rng() % 3'600'000'000'000ull));
  f.packets = rng() % 100'000;
  f.bytes = rng() % 10'000'000;
  f.payload_bytes = rng() % 1'000'000;
  f.fwd_packets = rng() % 50'000;
  f.rev_packets = rng() % 50'000;
  f.syn_count = static_cast<std::uint32_t>(rng() % 5);
  f.synack_count = static_cast<std::uint32_t>(rng() % 5);
  f.fin_count = static_cast<std::uint32_t>(rng() % 3);
  f.rst_count = static_cast<std::uint32_t>(rng() % 3);
  f.psh_count = static_cast<std::uint32_t>(rng() % 40);
  f.saw_dns = rng() % 5 == 0;
  if (rng() % 3 != 0)
    f.label_packets[rng() % packet::kTrafficLabelCount] = 1 + rng() % 1000;
  if (rng() % 4 == 0) f.scenario_id = 1 + rng() % 1000;
  return f;
}

// A sealed segment of `flows`, indexed by Segment::seal() exactly as
// the store indexes one.
std::shared_ptr<Segment> make_segment(const std::vector<FlowRecord>& flows,
                                      std::uint64_t first_id = 1) {
  auto seg = std::make_shared<Segment>(flows.size());
  std::uint64_t id = first_id;
  for (const auto& f : flows) {
    StoredFlow stored{id++, f};
    if (stored.flow.last_ts < stored.flow.first_ts)
      stored.flow.last_ts = stored.flow.first_ts;
    seg->min_ts = std::min(seg->min_ts, stored.flow.first_ts);
    seg->max_ts = std::max(seg->max_ts, stored.flow.last_ts);
    seg->flows.push_back(stored);
  }
  seg->seal();
  return seg;
}

// ---------------------------------------------------------- assertions

void expect_flow_equal(const StoredFlow& got, const StoredFlow& want) {
  EXPECT_EQ(got.id, want.id);
  const auto& g = got.flow;
  const auto& w = want.flow;
  EXPECT_EQ(g.tuple.src, w.tuple.src);
  EXPECT_EQ(g.tuple.dst, w.tuple.dst);
  EXPECT_EQ(g.tuple.src_port, w.tuple.src_port);
  EXPECT_EQ(g.tuple.dst_port, w.tuple.dst_port);
  EXPECT_EQ(g.tuple.proto, w.tuple.proto);
  EXPECT_EQ(g.initial_direction, w.initial_direction);
  EXPECT_EQ(g.first_ts, w.first_ts);
  EXPECT_EQ(g.last_ts, w.last_ts);
  EXPECT_EQ(g.packets, w.packets);
  EXPECT_EQ(g.bytes, w.bytes);
  EXPECT_EQ(g.payload_bytes, w.payload_bytes);
  EXPECT_EQ(g.fwd_packets, w.fwd_packets);
  EXPECT_EQ(g.rev_packets, w.rev_packets);
  EXPECT_EQ(g.syn_count, w.syn_count);
  EXPECT_EQ(g.synack_count, w.synack_count);
  EXPECT_EQ(g.fin_count, w.fin_count);
  EXPECT_EQ(g.rst_count, w.rst_count);
  EXPECT_EQ(g.psh_count, w.psh_count);
  EXPECT_EQ(g.saw_dns, w.saw_dns);
  EXPECT_EQ(g.label_packets, w.label_packets);
  EXPECT_EQ(g.scenario_id, w.scenario_id);
}

void expect_segment_equal(const Segment& got, const Segment& want) {
  ASSERT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t i = 0; i < want.flows.size(); ++i)
    expect_flow_equal(got.flows[i], want.flows[i]);
  if (!want.flows.empty()) {
    EXPECT_EQ(got.min_ts, want.min_ts);
    EXPECT_EQ(got.max_ts, want.max_ts);
  }
  EXPECT_TRUE(got.sealed);
  // Index answers must be identical, entry for entry.
  EXPECT_EQ(got.by_host.keys, want.by_host.keys);
  EXPECT_EQ(got.by_host.starts, want.by_host.starts);
  EXPECT_EQ(got.by_host.rows, want.by_host.rows);
  EXPECT_EQ(got.by_port.keys, want.by_port.keys);
  EXPECT_EQ(got.by_port.starts, want.by_port.starts);
  EXPECT_EQ(got.by_port.rows, want.by_port.rows);
  EXPECT_EQ(got.by_label, want.by_label);
}

void expect_round_trip(const Segment& seg) {
  SegmentFileInfo info;
  const auto bytes = encode_segment(seg, &info);
  auto decoded = decode_segment(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().code << ": "
                            << decoded.error().message;
  expect_segment_equal(*decoded.value(), seg);

  // The zone map must answer without the payload, identically.
  auto zone = decode_zone_map(bytes);
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone.value().flow_count, seg.flows.size());
  EXPECT_EQ(zone.value().flow_count, info.zone.flow_count);
  std::uint64_t packets = 0, total = 0;
  for (const auto& s : seg.flows) {
    packets += s.flow.packets;
    total += s.flow.bytes;
  }
  EXPECT_EQ(zone.value().packets, packets);
  EXPECT_EQ(zone.value().bytes, total);
  if (!seg.flows.empty()) {
    EXPECT_EQ(zone.value().min_ts, seg.min_ts);
    EXPECT_EQ(zone.value().max_ts, seg.max_ts);
    EXPECT_EQ(zone.value().id_lo, seg.flows.front().id);
    EXPECT_EQ(zone.value().id_hi, seg.flows.back().id);
  }
}

std::string fresh_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("campuslab_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ----------------------------------------------------------- the suite

TEST(SegmentFile, RoundTripEmpty) {
  Segment seg(0);
  seg.seal();
  expect_round_trip(seg);
}

TEST(SegmentFile, RoundTripSingleFlow) {
  const auto seg = make_segment(
      {flow_at(10, Ipv4Address(10, 2, 0, 1), Ipv4Address(192, 0, 2, 9),
               49152, 443, 6, TrafficLabel::kPortScan, 9001)},
      42);
  expect_round_trip(*seg);
}

TEST(SegmentFile, RoundTripRandomizedSegments) {
  std::mt19937_64 rng(0xF00D);
  for (int round = 0; round < 8; ++round) {
    std::vector<FlowRecord> flows;
    const std::size_t n = 1 + rng() % 400;
    flows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) flows.push_back(random_flow(rng));
    expect_round_trip(*make_segment(flows, 1 + rng() % 1'000'000));
  }
}

// Timestamps at the varint/zigzag extremes: the encoder must be total
// and exact even when deltas wrap the full 64-bit range.
TEST(SegmentFile, RoundTripExtremeTimestamps) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  auto f1 = flow_at(0, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                    1, 2);
  f1.first_ts = Timestamp::from_nanos(kMin);
  f1.last_ts = Timestamp::from_nanos(kMax);  // widest possible duration
  auto f2 = f1;
  f2.first_ts = Timestamp::from_nanos(kMax);
  f2.last_ts = Timestamp::from_nanos(kMax);
  auto f3 = f1;
  f3.first_ts = Timestamp::from_nanos(0);
  f3.last_ts = Timestamp::from_nanos(kMax);
  f3.packets = std::numeric_limits<std::uint64_t>::max();
  f3.bytes = std::numeric_limits<std::uint64_t>::max();
  f3.syn_count = std::numeric_limits<std::uint32_t>::max();
  expect_round_trip(*make_segment({f1, f2, f3},
                                  std::numeric_limits<std::uint64_t>::max() -
                                      8));
}

// ------------------------------------------- index vs the per-flow rule

// The reference the flat index must equal: one posting list per key,
// filled flow by flow. A row is listed under its src host, and under
// its dst host when that differs; under its src port, and under its
// dst port when that differs; and under its majority label.
struct ReferenceIndex {
  std::map<std::uint32_t, std::vector<std::uint32_t>> hosts;
  std::map<std::uint16_t, std::vector<std::uint32_t>> ports;
  std::array<std::vector<std::uint32_t>, packet::kTrafficLabelCount> labels;

  explicit ReferenceIndex(const Segment& seg) {
    for (std::uint32_t row = 0; row < seg.flows.size(); ++row) {
      const auto& f = seg.flows[row].flow;
      hosts[f.tuple.src.value()].push_back(row);
      if (f.tuple.dst != f.tuple.src) hosts[f.tuple.dst.value()].push_back(row);
      ports[f.tuple.src_port].push_back(row);
      if (f.tuple.dst_port != f.tuple.src_port)
        ports[f.tuple.dst_port].push_back(row);
      labels[static_cast<std::size_t>(f.majority_label())].push_back(row);
    }
  }

  // What segment_memory_bytes must charge: the flow array at capacity,
  // 4 B per posting, and 48 B per host or port key.
  std::uint64_t memory_bytes(const Segment& seg) const {
    std::uint64_t postings = 0;
    for (const auto& [key, rows] : hosts) postings += rows.size();
    for (const auto& [key, rows] : ports) postings += rows.size();
    for (const auto& rows : labels) postings += rows.size();
    return seg.flows.capacity() * sizeof(StoredFlow) + postings * 4 +
           (hosts.size() + ports.size()) * 48;
  }
};

template <typename Key>
void expect_index_equals(const PostingIndex<Key>& index,
                         const std::map<Key, std::vector<std::uint32_t>>& want,
                         const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(index.keys.size(), want.size());
  ASSERT_EQ(index.starts.size(), want.size() + 1);
  EXPECT_EQ(index.starts.front(), 0u);
  EXPECT_EQ(index.starts.back(), index.rows.size());
  std::size_t i = 0;
  for (const auto& [key, rows] : want) {
    ASSERT_EQ(index.keys[i], key) << "key #" << i;
    const auto got = index.postings(i);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), rows)
        << "key " << key;
    const auto found = index.find(key);
    EXPECT_EQ(found.data(), got.data());
    EXPECT_EQ(found.size(), got.size());
    ++i;
  }
  // Every absent neighbour of a present key, plus both extremes: each
  // lies below the first key, between two keys, or above the last.
  std::vector<Key> probes = {0, std::numeric_limits<Key>::max()};
  for (const auto& [key, rows] : want) {
    if (key > 0) probes.push_back(static_cast<Key>(key - 1));
    if (key < std::numeric_limits<Key>::max())
      probes.push_back(static_cast<Key>(key + 1));
  }
  for (const Key probe : probes) {
    if (!want.contains(probe)) {
      EXPECT_TRUE(index.find(probe).empty()) << "absent key " << probe;
    }
  }
}

// Flows shaped to hit every branch of the per-flow rule. kMixed draws
// hosts and ports from small pools, makes a quarter of the flows
// host-local (src == dst) and a quarter port-symmetric (src_port ==
// dst_port), and sends every flow to port 443, one key shared by every
// row. kFlood is syn_flood's shape: every flow from a fresh source
// host and port to one victim, so almost all keys are distinct.
enum class Shape { kMixed, kFlood };

std::vector<FlowRecord> shaped_flows(std::mt19937_64& rng, std::size_t n,
                                     Shape shape) {
  const Ipv4Address victim(192, 0, 2, 80);
  std::vector<FlowRecord> flows;
  flows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FlowRecord f = random_flow(rng);
    if (shape == Shape::kFlood) {
      f.tuple.src = Ipv4Address(static_cast<std::uint32_t>(0x0B000000 + i));
      f.tuple.dst = victim;
      f.tuple.src_port = static_cast<std::uint16_t>(1024 + i);
      f.tuple.dst_port = 80;
    } else {
      f.tuple.dst_port = 443;
      if (i % 4 == 1) f.tuple.dst = f.tuple.src;
      if (i % 4 == 2) f.tuple.src_port = 443;
    }
    flows.push_back(f);
  }
  return flows;
}

TEST(SegmentFile, SealMatchesPerFlowIndexRule) {
  std::mt19937_64 rng(0x5EA1);
  for (const Shape shape : {Shape::kMixed, Shape::kFlood}) {
    for (const std::size_t n : {0, 1, 2, 64, 5000}) {
      SCOPED_TRACE(::testing::Message()
                   << (shape == Shape::kFlood ? "flood" : "mixed") << ", "
                   << n << " flows");
      const auto seg = make_segment(shaped_flows(rng, n, shape));
      const ReferenceIndex want(*seg);
      expect_index_equals(seg->by_host, want.hosts, "by_host");
      expect_index_equals(seg->by_port, want.ports, "by_port");
      EXPECT_EQ(seg->by_label, want.labels);
      EXPECT_EQ(segment_memory_bytes(*seg), want.memory_bytes(*seg));
      if (n > 0 && shape == Shape::kMixed) {
        EXPECT_EQ(seg->by_port.find(443).size(), n);  // shared by every row
      }
      // The file carries the same index, read back without re-sealing.
      expect_round_trip(*seg);
    }
  }
}

TEST(SegmentFile, IndexFindMissesAroundKeys) {
  const auto seg = make_segment({
      flow_at(1, Ipv4Address(10, 0, 0, 10), Ipv4Address(10, 0, 0, 10), 20, 20),
      flow_at(2, Ipv4Address(10, 0, 0, 30), Ipv4Address(10, 0, 0, 50), 40, 60),
  });
  const auto host = [](std::uint8_t last) {
    return Ipv4Address(10, 0, 0, last).value();
  };
  EXPECT_EQ(seg->by_host.keys,
            (std::vector<std::uint32_t>{host(10), host(30), host(50)}));
  EXPECT_EQ(seg->by_port.keys, (std::vector<std::uint16_t>{20, 40, 60}));
  for (const std::uint8_t absent : {9, 20, 40, 51})  // below, between, above
    EXPECT_TRUE(seg->by_host.find(host(absent)).empty()) << int{absent};
  for (const std::uint16_t absent : {19, 30, 50, 61})
    EXPECT_TRUE(seg->by_port.find(absent).empty()) << absent;
  EXPECT_EQ(seg->by_host.find(host(10)).size(), 1u);  // src == dst: once
  EXPECT_EQ(seg->by_port.find(20).size(), 1u);
  ASSERT_EQ(seg->by_host.find(host(50)).size(), 1u);
  EXPECT_EQ(seg->by_host.find(host(50))[0], 1u);
}

// Lookup is a binary search, so the decoder must reject index keys that
// are not strictly ascending, including a key delta that wraps the sum
// past 2^64 back below its predecessor (what a descending pair encodes
// to).
TEST(SegmentFile, DecodeRejectsDescendingIndexKeys) {
  const auto seg = make_segment({
      flow_at(1, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 20, 40),
      flow_at(2, Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 4), 60, 80),
  });
  ASSERT_TRUE(decode_segment(encode_segment(*seg)).ok());
  {
    Segment bad = *seg;
    std::reverse(bad.by_port.keys.begin(), bad.by_port.keys.end());
    const auto decoded = decode_segment(encode_segment(bad));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, "segment_corrupt");
  }
  {
    Segment bad = *seg;
    std::swap(bad.by_host.keys[1], bad.by_host.keys[2]);
    const auto decoded = decode_segment(encode_segment(bad));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, "segment_corrupt");
  }
}

// The open tail carries no index, so it is charged for its flow array
// only; sealing adds the index charge.
TEST(SegmentFile, UnsealedSegmentHasNoIndex) {
  Segment seg(4);
  seg.flows.push_back(StoredFlow{
      1, flow_at(1, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 5, 6)});
  EXPECT_EQ(seg.by_host.size(), 0u);
  EXPECT_TRUE(seg.by_host.find(Ipv4Address(10, 0, 0, 1).value()).empty());
  EXPECT_EQ(segment_memory_bytes(seg), 4 * sizeof(StoredFlow));
  seg.seal();
  EXPECT_TRUE(seg.sealed);
  EXPECT_EQ(segment_memory_bytes(seg),
            4 * sizeof(StoredFlow) + 5 * 4 + 4 * 48);
}

TEST(SegmentFile, RoundTripThroughFile) {
  const auto dir = fresh_dir("segfile_io");
  std::mt19937_64 rng(7);
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 150; ++i) flows.push_back(random_flow(rng));
  const auto seg = make_segment(flows, 100);

  const std::string path = dir + "/seg.clseg";
  auto written = write_segment_file(*seg, path);
  ASSERT_TRUE(written.ok()) << written.error().message;
  EXPECT_EQ(written.value().file_bytes,
            std::filesystem::file_size(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  auto loaded = read_segment_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  expect_segment_equal(*loaded.value(), *seg);

  auto zone = read_zone_map(path);
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone.value().flow_count, seg->flows.size());
  std::filesystem::remove_all(dir);
}

TEST(SegmentFile, ColdHandleSharesOneDecode) {
  const auto dir = fresh_dir("segfile_handle");
  const auto seg = make_segment(
      {flow_at(1, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 5, 6)});
  const std::string path = dir + "/seg.clseg";
  auto written = write_segment_file(*seg, path);
  ASSERT_TRUE(written.ok());
  const obs::Counter& loads =
      obs::Registry::global().counter("store.cold_loads");
  const std::uint64_t before = loads.value();

  ColdSegmentHandle handle(path, written.value().zone,
                           written.value().file_bytes);
  auto a = handle.load(IndexKind::kTimeScan, 0);
  auto b = handle.load(IndexKind::kTimeScan, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());  // cached, one decode
  EXPECT_EQ(loads.value(), before + 1);
  a = Error::make("x", "drop");  // release both references
  b = Error::make("x", "drop");
  auto c = handle.load(IndexKind::kTimeScan, 0);  // expired: a fresh decode
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(loads.value(), before + 2);
  // It holds every row of the file; the whole, indexed decode is
  // read_segment_file's.
  auto whole = read_segment_file(handle.path());
  ASSERT_TRUE(whole.ok());
  expect_segment_equal(*whole.value(), *seg);
  ASSERT_EQ(c.value()->flows.size(), seg->flows.size());
  for (std::size_t i = 0; i < seg->flows.size(); ++i)
    expect_flow_equal(c.value()->flows[i], seg->flows[i]);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ plan projections

// The rows `plan` names for `key` in a whole decode, and the part's own
// index answer for the same key.
struct NamedRows {
  std::vector<std::uint32_t> named;
  std::vector<std::uint32_t> held;
};

NamedRows named_rows(const Segment& whole, const Segment& part,
                     IndexKind plan, std::uint64_t key) {
  const auto copy = [](std::span<const std::uint32_t> rows) {
    return std::vector<std::uint32_t>(rows.begin(), rows.end());
  };
  switch (plan) {
    case IndexKind::kHost: {
      const auto k = static_cast<std::uint32_t>(key);
      return {copy(whole.by_host.find(k)), copy(part.by_host.find(k))};
    }
    case IndexKind::kPort: {
      const auto k = static_cast<std::uint16_t>(key);
      return {copy(whole.by_port.find(k)), copy(part.by_port.find(k))};
    }
    case IndexKind::kLabel:
      return {whole.by_label[key], part.by_label[key]};
    case IndexKind::kTimeScan:
      break;
  }
  return {};
}

void expect_projection(const std::vector<std::uint8_t>& bytes,
                       const Segment& whole, IndexKind plan,
                       std::uint64_t key) {
  SCOPED_TRACE(::testing::Message()
               << "plan " << to_string(plan) << ", key " << key);
  auto decoded = decode_projection(bytes, plan, key);
  ASSERT_TRUE(decoded.ok()) << decoded.error().code;
  const Segment& part = *decoded.value();
  EXPECT_TRUE(part.sealed);
  if (!whole.flows.empty()) {
    EXPECT_EQ(part.min_ts, whole.min_ts);
    EXPECT_EQ(part.max_ts, whole.max_ts);
  }
  if (plan == IndexKind::kTimeScan) {
    EXPECT_EQ(part.projection.kind, SegmentProjection::Kind::kRows);
    EXPECT_EQ(part.by_host.size(), 0u);
    EXPECT_EQ(part.by_port.size(), 0u);
    for (const auto& posting : part.by_label) EXPECT_TRUE(posting.empty());
    ASSERT_EQ(part.flows.size(), whole.flows.size());
    for (std::size_t i = 0; i < whole.flows.size(); ++i)
      expect_flow_equal(part.flows[i], whole.flows[i]);
    return;
  }
  EXPECT_EQ(part.projection.kind, SegmentProjection::Kind::kKey);
  EXPECT_EQ(part.projection.plan, plan);
  EXPECT_EQ(part.projection.key, key);
  const auto [named, held] = named_rows(whole, part, plan, key);
  std::vector<std::uint32_t> in_order(named.size());
  std::iota(in_order.begin(), in_order.end(), 0u);
  EXPECT_EQ(held, in_order);
  ASSERT_EQ(part.flows.size(), named.size());
  for (std::size_t k = 0; k < named.size(); ++k)
    expect_flow_equal(part.flows[k], whole.flows[named[k]]);
}

// Up to `most` of an index's keys, spread over it, plus each one's
// absent neighbours and both extremes of the key type.
template <typename Key>
std::vector<std::uint64_t> probe_keys(const PostingIndex<Key>& index,
                                      std::size_t most) {
  std::vector<std::uint64_t> keys = {0, std::numeric_limits<Key>::max()};
  const std::size_t step = std::max<std::size_t>(1, index.size() / most);
  for (std::size_t i = 0; i < index.size(); i += step) {
    keys.push_back(index.keys[i]);
    if (index.keys[i] > 0) keys.push_back(index.keys[i] - 1u);
    if (index.keys[i] < std::numeric_limits<Key>::max())
      keys.push_back(index.keys[i] + 1u);
  }
  return keys;
}

// Every plan's projection of a valid file holds exactly the whole
// decode's rows at the offsets the plan's index names for its key, in
// posting order, indexed under that key alone; an absent key holds
// none; a time scan holds every row and no index.
TEST(SegmentFile, ProjectionsHoldTheRowsTheirIndexNames) {
  std::mt19937_64 rng(0x9A27);
  for (const Shape shape : {Shape::kMixed, Shape::kFlood}) {
    for (const std::size_t n : {0, 1, 2, 64, 3000}) {
      SCOPED_TRACE(::testing::Message()
                   << (shape == Shape::kFlood ? "flood" : "mixed") << ", "
                   << n << " flows");
      const auto seg = make_segment(shaped_flows(rng, n, shape), 1 + n);
      const auto bytes = encode_segment(*seg);
      auto whole = decode_segment(bytes);
      ASSERT_TRUE(whole.ok());
      expect_projection(bytes, *whole.value(), IndexKind::kTimeScan, 0);
      for (const std::uint64_t key : probe_keys(seg->by_host, 24))
        expect_projection(bytes, *whole.value(), IndexKind::kHost, key);
      for (const std::uint64_t key : probe_keys(seg->by_port, 24))
        expect_projection(bytes, *whole.value(), IndexKind::kPort, key);
      for (std::uint64_t label = 0; label < packet::kTrafficLabelCount;
           ++label)
        expect_projection(bytes, *whole.value(), IndexKind::kLabel, label);
    }
  }
}

// The handle shares a live decode only with the plans it serves: a
// time-scan decode serves time scans only, and a key projection is
// never shared. Each decode counts one store.cold_loads tick; joining a
// live one counts none.
TEST(SegmentFile, ColdHandleSharesADecodeOnlyWithPlansItServes) {
  const auto dir = fresh_dir("segfile_handle_plans");
  const auto seg = make_segment(
      {flow_at(1, Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 5, 6),
       flow_at(2, Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 1), 7, 6)});
  const std::string path = dir + "/seg.clseg";
  auto written = write_segment_file(*seg, path);
  ASSERT_TRUE(written.ok());
  ColdSegmentHandle handle(path, written.value().zone,
                           written.value().file_bytes);
  const std::uint64_t host = Ipv4Address(10, 0, 0, 1).value();
  const obs::Counter& loads =
      obs::Registry::global().counter("store.cold_loads");
  const auto decodes = [&loads, start = loads.value()] {
    return loads.value() - start;
  };

  {
    auto scan = handle.load(IndexKind::kTimeScan, 0);
    auto scan_again = handle.load(IndexKind::kTimeScan, 0);
    ASSERT_TRUE(scan.ok() && scan_again.ok());
    EXPECT_EQ(scan.value().get(), scan_again.value().get());
    EXPECT_EQ(decodes(), 1u);
    // A time-scan decode has no index: no key plan may join it.
    auto private_host = handle.load(IndexKind::kHost, host);
    auto private_label = handle.load(IndexKind::kLabel, 0);
    ASSERT_TRUE(private_host.ok() && private_label.ok());
    EXPECT_NE(private_host.value().get(), scan.value().get());
    EXPECT_NE(private_label.value().get(), scan.value().get());
    EXPECT_EQ(decodes(), 3u);
  }
  {
    auto first = handle.load(IndexKind::kHost, host);
    auto second = handle.load(IndexKind::kHost, host);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_NE(first.value().get(), second.value().get());
    EXPECT_EQ(first.value()->projection.kind,
              SegmentProjection::Kind::kKey);
    EXPECT_EQ(first.value()->flows.size(), 2u);  // src of one, dst of one
    EXPECT_EQ(decodes(), 5u);
    auto scan = handle.load(IndexKind::kTimeScan, 0);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan.value()->projection.kind, SegmentProjection::Kind::kRows);
    EXPECT_EQ(decodes(), 6u);
  }
  std::filesystem::remove_all(dir);
}

// Acceptance criterion: an all-spilled store answers queries and
// aggregations bit-identically to the same store fully in RAM, at
// multiple thread counts.
TEST(SegmentFile, SpilledStoreMatchesHotStoreBitIdentical) {
  const auto dir = fresh_dir("segfile_lossless");
  DataStoreConfig hot_cfg;
  hot_cfg.segment_flows = 64;
  DataStoreConfig cold_cfg = hot_cfg;
  cold_cfg.spill_directory = dir;

  DataStore hot(hot_cfg);
  DataStore cold(cold_cfg);
  std::mt19937_64 rng(0xBEEF);
  for (int i = 0; i < 1500; ++i) {
    const auto f = random_flow(rng);
    hot.ingest(f);
    cold.ingest(f);
  }
  // Everything sealed goes to disk (budget 0 = spill at seal already
  // did most of it; this catches any sealed tail).
  cold.spill();
  const auto catalog = cold.catalog();
  EXPECT_GT(catalog.cold_segments, 20u);
  EXPECT_EQ(hot.catalog().total_bytes, catalog.total_bytes);
  EXPECT_EQ(hot.catalog().total_packets, catalog.total_packets);

  const Ipv4Address host(10, 2, 1, 3);
  const std::vector<FlowQuery> queries = {
      FlowQuery{},
      FlowQuery{}.about_host(host),
      FlowQuery{}.on_port(443),
      FlowQuery{}.with_proto(17),
      FlowQuery{}.between(Timestamp::from_seconds(3600),
                          Timestamp::from_seconds(7200)),
      FlowQuery{}.about_host(host).top(13),
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    ScanPool pool(threads);
    for (const auto& q : queries) {
      const auto want = hot.query(q, pool);
      const auto got = cold.query(q, pool);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        expect_flow_equal(got[i], want[i]);
      EXPECT_EQ(got.stats().cold_load_failures, 0u);

      const auto agg_want = hot.aggregate(q, GroupBy::kHost, 10, pool);
      const auto agg_got = cold.aggregate(q, GroupBy::kHost, 10, pool);
      ASSERT_EQ(agg_got.rows.size(), agg_want.rows.size());
      EXPECT_EQ(agg_got.matched_flows, agg_want.matched_flows);
      for (std::size_t i = 0; i < agg_want.rows.size(); ++i) {
        EXPECT_EQ(agg_got.rows[i].key, agg_want.rows[i].key);
        EXPECT_EQ(agg_got.rows[i].bytes, agg_want.rows[i].bytes);
        EXPECT_EQ(agg_got.rows[i].flows, agg_want.rows[i].flows);
      }
    }
  }

  // Cursors stream the same rows from cold storage.
  auto hot_cur = hot.open_cursor(FlowQuery{}.on_port(443));
  auto cold_cur = cold.open_cursor(FlowQuery{}.on_port(443));
  while (hot_cur.next()) {
    ASSERT_TRUE(cold_cur.next());
    expect_flow_equal(cold_cur.current(), hot_cur.current());
  }
  EXPECT_FALSE(cold_cur.next());
  std::filesystem::remove_all(dir);
}

// Zone maps keep retention and narrow-window queries I/O-free: cold
// files outside the window are pruned without being read.
TEST(SegmentFile, ZoneMapPrunesColdFilesWithoutIo) {
  const auto dir = fresh_dir("segfile_prune");
  DataStoreConfig cfg;
  cfg.segment_flows = 50;
  cfg.spill_directory = dir;
  DataStore store(cfg);
  // Time-ordered ingest: each segment covers a disjoint ~50 s span.
  for (int i = 0; i < 1000; ++i)
    store.ingest(flow_at(i, Ipv4Address(10, 2, 0, 1),
                         Ipv4Address(10, 2, 0, 2),
                         static_cast<std::uint16_t>(1024 + i), 443));
  store.spill();

  {
    // Scoped: the result pins every cold handle in its snapshot, which
    // keeps the spill files alive; release it before checking cleanup.
    const auto narrow = store.query(FlowQuery{}.between(
        Timestamp::from_seconds(500), Timestamp::from_seconds(520)));
    EXPECT_EQ(narrow.size(), 21u);
    EXPECT_GE(narrow.stats().cold_pruned, 17u);  // ~19 of 20 files skipped
    EXPECT_LE(narrow.stats().cold_loaded, 3u);
  }

  // Retention over cold segments: no I/O, correct counts, files gone.
  const auto evicted =
      store.enforce_retention(Timestamp::from_seconds(1000 + 7 * 86'400));
  EXPECT_EQ(evicted, 1000u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// Acceptance criterion: a failing disk degrades gracefully — the
// segment stays hot and queryable, the retries are counted in obs, and
// recovery resumes spilling.
TEST(SegmentFile, FailedSpillKeepsSegmentHot) {
  const auto dir = fresh_dir("segfile_faults");
  DataStoreConfig cfg;
  cfg.segment_flows = 10;
  cfg.spill_directory = dir;
  cfg.spill_retry.max_attempts = 3;
  cfg.spill_retry.initial_backoff = Duration::micros(1);
  cfg.spill_retry.max_backoff = Duration::micros(4);
  DataStore store(cfg);

  const auto failures_before =
      obs::Registry::global().counter("store.spill_failures").value();
  {
    resilience::FaultScope scope(resilience::FaultPlan{
        1, {{"store.spill", resilience::FaultKind::kFail, 1}}});
    for (int i = 0; i < 30; ++i)
      store.ingest(flow_at(i, Ipv4Address(10, 2, 0, 1),
                           Ipv4Address(10, 2, 0, 2), 4000, 443));
    // Three sealed segments, every spill attempt failed: all stay hot.
    EXPECT_EQ(scope.injector().fires("store.spill"),
              3u * cfg.spill_retry.max_attempts);
    EXPECT_EQ(store.catalog().cold_segments, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    EXPECT_EQ(store.query(FlowQuery{}).size(), 30u);
  }
  EXPECT_GE(
      obs::Registry::global().counter("store.spill_failures").value(),
      failures_before + 3);

  // Disk back: the stayed-hot segments spill on the next opportunity.
  EXPECT_EQ(store.spill(), 3u);
  EXPECT_EQ(store.catalog().cold_segments, 3u);
  EXPECT_EQ(store.query(FlowQuery{}).size(), 30u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ golden fixture

std::filesystem::path golden_path() {
  return std::filesystem::path(CAMPUSLAB_TEST_DATA_DIR) /
         "golden_segment_v3.clseg";
}

// A small, fully deterministic segment: fixed flows, fixed ids.
std::shared_ptr<Segment> golden_segment() {
  std::vector<FlowRecord> flows;
  for (int i = 0; i < 12; ++i) {
    auto f = flow_at(100 + 10 * i, Ipv4Address(10, 2, 0, 1 + i % 3),
                     Ipv4Address(192, 0, 2, 1 + i % 2),
                     static_cast<std::uint16_t>(40'000 + i),
                     i % 4 == 0 ? 53 : 443, i % 3 == 0 ? 17 : 6,
                     i % 5 == 0 ? TrafficLabel::kPortScan
                                : TrafficLabel::kBenign,
                     1000 + 17 * i);
    f.saw_dns = i % 4 == 0;
    f.payload_bytes = 900 + i;
    f.fwd_packets = 2;
    f.rev_packets = 1;
    f.psh_count = static_cast<std::uint32_t>(i);
    // Pin the v2 scenario_id column with a mix of background (0) and
    // attack-scenario flows.
    f.scenario_id = i % 5 == 0 ? 3u : 0u;
    flows.push_back(f);
  }
  return make_segment(flows, 1000);
}

TEST(SegmentFile, GoldenFixturePinsFormat) {
  const auto bytes = encode_segment(*golden_segment());

  // Layout invariants, independent of the fixture file.
  ASSERT_GE(bytes.size(), kSegmentFileHeaderBytes);
  const std::uint8_t magic[8] = {'C', 'L', 'S', 'E', 'G', '0', '2', '\n'};
  EXPECT_TRUE(std::equal(magic, magic + 8, bytes.begin()));
  EXPECT_EQ(bytes[8], 0u);  // version u32 big-endian == kSegmentFileVersion
  EXPECT_EQ(bytes[9], 0u);
  EXPECT_EQ(bytes[10], 0u);
  EXPECT_EQ(bytes[11], kSegmentFileVersion);

  const auto path = golden_path();
  if (std::getenv("CAMPUSLAB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden fixture regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path
                  << " — regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  ASSERT_EQ(bytes.size(), golden.size())
      << "on-disk segment format changed size; if intentional, bump "
         "kSegmentFileVersion and regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";
  EXPECT_EQ(bytes, golden)
      << "on-disk segment format changed; if intentional, bump "
         "kSegmentFileVersion and regenerate with CAMPUSLAB_UPDATE_GOLDEN=1";

  // And the committed fixture still decodes to the exact segment.
  auto decoded = decode_segment(golden);
  ASSERT_TRUE(decoded.ok());
  expect_segment_equal(*decoded.value(), *golden_segment());
}

}  // namespace
}  // namespace campuslab::store
