// The one-pass segment encoder against the encoder it replaced.
//
// The reference is a test-local copy of encode_segment as it was
// before the one-pass encoder: one pass over the rows per column, plus
// the zone map and the two dictionaries, a host dictionary built by
// std::sort with a binary search per host, and one ByteWriter push per
// byte. Both encode the same seeded, generated segments, and must give
// the same bytes and the same SegmentFileInfo (sizes, zone map and
// every column row). The segments cover the shapes the store spills
// (a SYN flood with a new source per row, a campus mix), row counts
// around the bitset's byte boundary, rows built by hand to reach each
// varint column's widest value, segments with every row at its widest,
// every protocol and label mask, an unsealed segment, and decoded files
// whose index sections disagree with their rows (payload bytes flipped
// behind resealed checksums). The one-pass encoder writes into buffers
// sized from each column's worst case without a bounds check; the ASAN
// job runs this binary, and the all-widest segments fill those buffers.
//
// sort_by_key, the radix sort the encoder shares with Segment::seal(),
// is checked against std::stable_sort.
//
// Seeds: fixed ones, plus CAMPUSLAB_FUZZ_SEED when it is set; every
// failure names its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "campuslab/store/datastore.h"
#include "campuslab/store/key_sort.h"
#include "campuslab/store/segment_file.h"
#include "campuslab/util/bytes.h"
#include "campuslab/util/codec.h"
#include "campuslab/util/hash.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {
namespace {

using capture::FlowRecord;
using packet::Ipv4Address;
using util::put_varint;
using util::zigzag;

// Fixed seeds, plus CAMPUSLAB_FUZZ_SEED when it is set.
std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds{9001, 9002};
  if (const char* env = std::getenv("CAMPUSLAB_FUZZ_SEED"))
    seeds.push_back(std::strtoull(env, nullptr, 10));
  return seeds;
}

// ------------------------------------------------------ the reference

constexpr std::uint64_t kMagic = 0x434C53454730320AULL;  // "CLSEG02\n"
constexpr std::uint64_t kHotBytesPerIndexKey = 48;

void encode_offsets(ByteWriter& w, std::span<const std::uint32_t> v) {
  put_varint(w, v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    put_varint(w, i == 0 ? v[i] : v[i] - v[i - 1]);
}

/// encode_segment as it was before the one-pass encoder.
std::vector<std::uint8_t> reference_encode(const Segment& segment,
                                           SegmentFileInfo* info) {
  const auto& flows = segment.flows;
  const auto n = static_cast<std::uint32_t>(flows.size());

  SegmentZoneMap zone;
  zone.flow_count = n;
  if (n > 0) {
    zone.min_ts = flows.front().flow.first_ts;
    zone.max_ts = flows.front().flow.last_ts;
    zone.id_lo = flows.front().id;
    zone.id_hi = flows.back().id;
  }
  for (const auto& stored : flows) {
    const auto& f = stored.flow;
    zone.min_ts = std::min(zone.min_ts, f.first_ts);
    zone.max_ts = std::max(zone.max_ts, f.last_ts);
    zone.packets += f.packets;
    zone.bytes += f.bytes;
    ++zone.label_flows[static_cast<std::size_t>(f.majority_label())];
  }

  ByteWriter payload(static_cast<std::size_t>(n) * 24 + 256);
  std::array<std::uint64_t, kSegmentSections + 1> bounds{};
  std::size_t sections = 0;
  const auto end_section = [&] { bounds[++sections] = payload.size(); };
  std::size_t col_start = 0;
  const auto column = [&](const char* name, std::uint64_t memory_bytes) {
    if (info != nullptr)
      info->columns.push_back(
          ColumnBytes{name, payload.size() - col_start, memory_bytes});
    col_start = payload.size();
  };

  for (std::size_t i = 0; i < flows.size(); ++i)
    put_varint(payload, i == 0 ? flows[i].id
                               : zigzag(static_cast<std::int64_t>(
                                     flows[i].id - flows[i - 1].id)));
  end_section();
  column("flow_id", static_cast<std::uint64_t>(n) * 8);

  for (const auto& s : flows)
    put_varint(payload,
               static_cast<std::uint64_t>(s.flow.first_ts.nanos()) -
                   static_cast<std::uint64_t>(zone.min_ts.nanos()));
  end_section();
  column("first_ts", static_cast<std::uint64_t>(n) * 8);
  for (const auto& s : flows)
    put_varint(payload,
               zigzag(static_cast<std::int64_t>(
                   static_cast<std::uint64_t>(s.flow.last_ts.nanos()) -
                   static_cast<std::uint64_t>(s.flow.first_ts.nanos()))));
  end_section();
  column("duration", static_cast<std::uint64_t>(n) * 8);

  std::vector<std::uint32_t> hosts;
  hosts.reserve(flows.size() * 2);
  for (const auto& s : flows) {
    hosts.push_back(s.flow.tuple.src.value());
    hosts.push_back(s.flow.tuple.dst.value());
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  put_varint(payload, hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i)
    put_varint(payload, i == 0 ? hosts[i] : hosts[i] - hosts[i - 1]);
  end_section();
  column("host_dict", 0);
  const auto host_index = [&hosts](std::uint32_t value) {
    return static_cast<std::uint64_t>(
        std::lower_bound(hosts.begin(), hosts.end(), value) -
        hosts.begin());
  };
  for (const auto& s : flows)
    put_varint(payload, host_index(s.flow.tuple.src.value()));
  end_section();
  column("src_host", static_cast<std::uint64_t>(n) * 4);
  for (const auto& s : flows)
    put_varint(payload, host_index(s.flow.tuple.dst.value()));
  end_section();
  column("dst_host", static_cast<std::uint64_t>(n) * 4);

  for (const auto& s : flows) put_varint(payload, s.flow.tuple.src_port);
  end_section();
  for (const auto& s : flows) put_varint(payload, s.flow.tuple.dst_port);
  end_section();
  column("ports", static_cast<std::uint64_t>(n) * 4);

  std::vector<std::uint8_t> protos;
  protos.reserve(flows.size());
  for (const auto& s : flows) protos.push_back(s.flow.tuple.proto);
  std::sort(protos.begin(), protos.end());
  protos.erase(std::unique(protos.begin(), protos.end()), protos.end());
  put_varint(payload, protos.size());
  for (const auto p : protos) payload.u8(p);
  for (const auto& s : flows)
    put_varint(payload,
               static_cast<std::uint64_t>(
                   std::lower_bound(protos.begin(), protos.end(),
                                    s.flow.tuple.proto) -
                   protos.begin()));
  end_section();
  column("proto", static_cast<std::uint64_t>(n));

  const auto put_bitset = [&](auto&& bit_of) {
    std::uint8_t acc = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (bit_of(flows[i])) acc |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        payload.u8(acc);
        acc = 0;
      }
    }
    if (n % 8 != 0) payload.u8(acc);
    end_section();
  };
  put_bitset([](const StoredFlow& s) {
    return s.flow.initial_direction == sim::Direction::kOutbound;
  });
  put_bitset([](const StoredFlow& s) { return s.flow.saw_dns; });
  column("flags", static_cast<std::uint64_t>(n) * 2);

  const auto u64_column = [&](auto&& field_of) {
    for (const auto& s : flows) put_varint(payload, field_of(s.flow));
    end_section();
  };
  u64_column([](const FlowRecord& f) { return f.packets; });
  u64_column([](const FlowRecord& f) { return f.bytes; });
  u64_column([](const FlowRecord& f) { return f.payload_bytes; });
  u64_column([](const FlowRecord& f) { return f.fwd_packets; });
  u64_column([](const FlowRecord& f) { return f.rev_packets; });
  column("counters", static_cast<std::uint64_t>(n) * 40);
  u64_column([](const FlowRecord& f) { return f.syn_count; });
  u64_column([](const FlowRecord& f) { return f.synack_count; });
  u64_column([](const FlowRecord& f) { return f.fin_count; });
  u64_column([](const FlowRecord& f) { return f.rst_count; });
  u64_column([](const FlowRecord& f) { return f.psh_count; });
  column("tcp_flags", static_cast<std::uint64_t>(n) * 20);

  for (const auto& s : flows) {
    std::uint8_t mask = 0;
    for (std::size_t l = 0; l < packet::kTrafficLabelCount; ++l)
      if (s.flow.label_packets[l] != 0)
        mask |= static_cast<std::uint8_t>(1u << l);
    payload.u8(mask);
    for (std::size_t l = 0; l < packet::kTrafficLabelCount; ++l)
      if (s.flow.label_packets[l] != 0)
        put_varint(payload, s.flow.label_packets[l]);
  }
  end_section();
  column("labels", static_cast<std::uint64_t>(n) * 40);

  u64_column([](const FlowRecord& f) { return f.scenario_id; });
  column("scenario_id", static_cast<std::uint64_t>(n) * 4);

  const auto put_keyed_index = [&](const auto& index) {
    put_varint(payload, index.size());
    for (std::size_t i = 0; i < index.size(); ++i) {
      const std::uint64_t key = index.keys[i];
      put_varint(payload, i == 0 ? key : key - index.keys[i - 1]);
      encode_offsets(payload, index.postings(i));
    }
    end_section();
    return index.rows.size() * sizeof(std::uint32_t) +
           index.size() * kHotBytesPerIndexKey;
  };
  column("index_host", put_keyed_index(segment.by_host));
  column("index_port", put_keyed_index(segment.by_port));
  std::uint64_t label_entries = 0;
  for (const auto& offsets : segment.by_label) {
    encode_offsets(payload, offsets);
    label_entries += offsets.size();
  }
  end_section();
  column("index_label", label_entries * sizeof(std::uint32_t));

  ByteWriter header(kSegmentFileHeaderBytes);
  header.u64(kMagic);
  header.u32(kSegmentFileVersion);
  header.u32(0);
  header.u64(payload.size());
  header.u64(util::checksum64(payload.view()));
  header.u32(zone.flow_count);
  header.u64(static_cast<std::uint64_t>(zone.min_ts.nanos()));
  header.u64(static_cast<std::uint64_t>(zone.max_ts.nanos()));
  header.u64(zone.id_lo);
  header.u64(zone.id_hi);
  header.u64(zone.packets);
  header.u64(zone.bytes);
  for (const auto lf : zone.label_flows) header.u64(lf);
  for (std::size_t s = 0; s < kSegmentSections; ++s) {
    header.u64(bounds[s]);
    header.u64(bounds[s + 1] - bounds[s]);
  }
  header.u64(util::fnv1a(header.view()));

  std::vector<std::uint8_t> out;
  out.reserve(header.size() + payload.size());
  out.insert(out.end(), header.view().begin(), header.view().end());
  out.insert(out.end(), payload.view().begin(), payload.view().end());

  if (info != nullptr) {
    info->file_bytes = out.size();
    info->payload_bytes = payload.size();
    info->memory_bytes = segment_memory_bytes(segment);
    info->zone = zone;
  }
  return out;
}

// ------------------------------------------------------ the comparison

bool same_zone(const SegmentZoneMap& a, const SegmentZoneMap& b) {
  return a.flow_count == b.flow_count && a.min_ts == b.min_ts &&
         a.max_ts == b.max_ts && a.id_lo == b.id_lo && a.id_hi == b.id_hi &&
         a.packets == b.packets && a.bytes == b.bytes &&
         a.label_flows == b.label_flows;
}

// Both encoders on `segment`: equal bytes (with and without an info to
// fill) and an equal SegmentFileInfo.
::testing::AssertionResult encodes_alike(const Segment& segment) {
  SegmentFileInfo got_info;
  SegmentFileInfo want_info;
  const auto got = encode_segment(segment, &got_info);
  const auto want = reference_encode(segment, &want_info);
  if (got != want) {
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
    return ::testing::AssertionFailure()
           << segment.flows.size() << " rows: " << got.size() << " bytes, "
           << want.size() << " expected; first difference at byte "
           << (diff.first - got.begin());
  }
  if (encode_segment(segment) != want)
    return ::testing::AssertionFailure() << "bytes differ without an info";
  if (got_info.file_bytes != want_info.file_bytes ||
      got_info.payload_bytes != want_info.payload_bytes ||
      got_info.memory_bytes != want_info.memory_bytes)
    return ::testing::AssertionFailure()
           << "sizes " << got_info.file_bytes << "/"
           << got_info.payload_bytes << "/" << got_info.memory_bytes
           << ", expected " << want_info.file_bytes << "/"
           << want_info.payload_bytes << "/" << want_info.memory_bytes;
  if (!same_zone(got_info.zone, want_info.zone))
    return ::testing::AssertionFailure() << "zone maps differ";
  if (got_info.columns.size() != want_info.columns.size())
    return ::testing::AssertionFailure()
           << got_info.columns.size() << " column rows, expected "
           << want_info.columns.size();
  for (std::size_t c = 0; c < want_info.columns.size(); ++c) {
    const ColumnBytes& g = got_info.columns[c];
    const ColumnBytes& w = want_info.columns[c];
    if (g.name != w.name || g.file_bytes != w.file_bytes ||
        g.memory_bytes != w.memory_bytes)
      return ::testing::AssertionFailure()
             << "column row " << c << ": " << g.name << " " << g.file_bytes
             << "/" << g.memory_bytes << ", expected " << w.name << " "
             << w.file_bytes << "/" << w.memory_bytes;
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------ the segments

enum class Shape { kFlood, kCampus };

// A SYN flood stores one spoofed source per row against one victim; a
// campus segment draws hosts, ports and protocols from small pools, and
// some of its rows are host-local or port-symmetric.
FlowRecord shaped_flow(Rng& rng, Shape shape, std::size_t i) {
  FlowRecord f;
  f.first_ts = Timestamp::from_nanos(
      1'000'000'000'000 + static_cast<std::int64_t>(i) * 40'000 +
      static_cast<std::int64_t>(rng.below(100'000)));
  if (shape == Shape::kFlood) {
    f.tuple = packet::FiveTuple{
        Ipv4Address(static_cast<std::uint32_t>(rng.next())),
        Ipv4Address(192, 0, 2, 80),
        static_cast<std::uint16_t>(rng.below(65536)), 80, 6};
    f.last_ts = f.first_ts;
    f.packets = 1;
    f.bytes = 64;
    f.fwd_packets = 1;
    f.syn_count = 1;
    f.label_packets[static_cast<std::size_t>(
        packet::TrafficLabel::kSynFlood)] = 1;
    f.scenario_id = 7;
    return f;
  }
  const auto campus = [&] {
    return Ipv4Address(10, 3, static_cast<std::uint8_t>(rng.below(4)),
                       static_cast<std::uint8_t>(rng.below(64)));
  };
  const auto remote = [&] {
    return Ipv4Address(static_cast<std::uint32_t>(0xC6336400u +
                                                  rng.below(200)));
  };
  constexpr std::uint16_t kPorts[] = {53, 80, 443, 22, 123};
  const auto port = [&] {
    return rng.chance(0.5) ? kPorts[rng.below(5)]
                           : static_cast<std::uint16_t>(rng.below(65536));
  };
  constexpr std::uint8_t kProtos[] = {6, 6, 6, 17, 17, 1};
  f.tuple = packet::FiveTuple{campus(), rng.chance(0.7) ? remote() : campus(),
                              port(), port(), kProtos[rng.below(6)]};
  if (i % 5 == 1) f.tuple.dst = f.tuple.src;
  if (i % 5 == 2) f.tuple.dst_port = f.tuple.src_port;
  f.initial_direction =
      rng.chance(0.5) ? sim::Direction::kOutbound : sim::Direction::kInbound;
  f.last_ts = f.first_ts + Duration::nanos(static_cast<std::int64_t>(
                               rng.below(60'000'000'000)));
  f.packets = 1 + rng.below(rng.chance(0.1) ? 1'000'000 : 40);
  f.bytes = f.packets * (40 + rng.below(1460));
  f.payload_bytes = f.bytes / 2;
  f.fwd_packets = f.packets / 2 + 1;
  f.rev_packets = f.packets / 2;
  f.syn_count = static_cast<std::uint32_t>(rng.below(3));
  f.synack_count = static_cast<std::uint32_t>(rng.below(2));
  f.fin_count = static_cast<std::uint32_t>(rng.below(3));
  f.rst_count = static_cast<std::uint32_t>(rng.below(2));
  f.psh_count = static_cast<std::uint32_t>(rng.below(300));
  f.saw_dns = rng.chance(0.2);
  f.label_packets[rng.chance(0.9) ? 0 : 1 + rng.below(6)] = f.packets;
  if (rng.chance(0.1))
    f.scenario_id = static_cast<std::uint32_t>(1 + rng.below(9));
  return f;
}

// A segment of `flows` with ids from `first_id` up, sealed by the
// store's own Segment::seal() when `seal` is set.
Segment make_segment(const std::vector<FlowRecord>& flows,
                     std::uint64_t first_id, bool seal = true) {
  Segment seg(flows.size());
  std::uint64_t id = first_id;
  for (const FlowRecord& f : flows) {
    seg.flows.push_back(StoredFlow{id++, f});
    seg.min_ts = std::min(seg.min_ts, f.first_ts);
    seg.max_ts = std::max(seg.max_ts, f.last_ts);
  }
  if (seal) seg.seal();
  return seg;
}

std::vector<FlowRecord> shaped_flows(Rng& rng, Shape shape, std::size_t n) {
  std::vector<FlowRecord> flows;
  for (std::size_t i = 0; i < n; ++i)
    flows.push_back(shaped_flow(rng, shape, i));
  return flows;
}

// ------------------------------------------------------ the tests

TEST(SegmentEncodeDifferential, ShapedSegmentsAtEverySize) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    for (const Shape shape : {Shape::kFlood, Shape::kCampus}) {
      const std::size_t many = 2000 + rng.below(3000);
      for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{8},
                                  std::size_t{9}, std::size_t{64}, many}) {
        SCOPED_TRACE(::testing::Message()
                     << (shape == Shape::kFlood ? "flood" : "campus") << ", "
                     << n << " rows");
        const Segment seg =
            make_segment(shaped_flows(rng, shape, n), 1 + rng.below(1000));
        ASSERT_TRUE(encodes_alike(seg));
      }
    }
  }
}

// Hand-built rows the store never writes but the codec must take:
// src == dst, ids that descend, repeat and wrap, last_ts before
// first_ts, and every varint column at its widest (UINT64_MAX counters
// and label counts, UINT32_MAX flags and scenario ids, and first_ts
// offsets near and at 2^64 - 1).
TEST(SegmentEncodeDifferential, HandBuiltRowsAtTheirWidest) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const std::int64_t stamps[] = {kI64Min, kI64Max, 0, -1, kI64Max - 1,
                                   kI64Min + 1, 1};
    const std::uint64_t ids[] = {kU64Max, 0, kU64Max, 5, 5, 4, 1ull << 63};
    for (std::size_t n : {1, 2, 7, 8, 9, 33}) {
      SCOPED_TRACE(::testing::Message() << n << " rows");
      Segment seg(n);
      for (std::size_t i = 0; i < n; ++i) {
        FlowRecord f = shaped_flow(rng, Shape::kCampus, i);
        f.tuple.dst = i % 2 == 0 ? f.tuple.src : Ipv4Address(kU32Max);
        f.tuple.src_port = i % 3 == 0 ? 65535 : f.tuple.src_port;
        f.first_ts = Timestamp::from_nanos(stamps[rng.below(7)]);
        f.last_ts = Timestamp::from_nanos(stamps[rng.below(7)]);
        const bool wide = rng.chance(0.5);
        f.packets = wide ? kU64Max : f.packets;
        f.bytes = wide ? kU64Max : rng.next();
        f.payload_bytes = kU64Max - rng.below(3);
        f.fwd_packets = rng.next();
        f.rev_packets = wide ? kU64Max : 0;
        f.syn_count = f.synack_count = f.fin_count = kU32Max;
        f.rst_count = wide ? kU32Max : 0;
        f.psh_count = static_cast<std::uint32_t>(rng.next());
        f.scenario_id = wide ? kU32Max : static_cast<std::uint32_t>(i);
        for (auto& count : f.label_packets)
          count = rng.chance(0.5) ? kU64Max : rng.below(2);
        seg.flows.push_back(StoredFlow{ids[rng.below(7)], f});
      }
      ASSERT_TRUE(encodes_alike(seg));
      seg.seal();
      ASSERT_TRUE(encodes_alike(seg));
    }
  }
}

// Every row at its widest in every column a value can widen: each
// section then fills (almost) its whole worst-case buffer, so an
// undersized bound overflows it, which the ASAN job reports. Ids
// alternate 0 and 2^63 and every first_ts but one sits 2^64 - 1 above
// the minimum; each duration is 2^63.
TEST(SegmentEncodeDifferential, EveryRowAtItsWidest) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    for (const std::size_t n : {1, 8, 9, 33, 1000}) {
      SCOPED_TRACE(::testing::Message() << n << " rows");
      Segment seg(n);
      for (std::size_t i = 0; i < n; ++i) {
        FlowRecord f = shaped_flow(rng, Shape::kCampus, i);
        const std::int64_t first =
            i == n / 2 ? std::numeric_limits<std::int64_t>::min()
                       : std::numeric_limits<std::int64_t>::max();
        f.first_ts = Timestamp::from_nanos(first);
        f.last_ts = Timestamp::from_nanos(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(first) + (1ull << 63)));
        f.tuple.src_port = f.tuple.dst_port = 65535;
        f.packets = f.bytes = f.payload_bytes = kU64Max;
        f.fwd_packets = f.rev_packets = kU64Max;
        f.syn_count = f.synack_count = f.fin_count = kU32Max;
        f.rst_count = f.psh_count = f.scenario_id = kU32Max;
        f.label_packets.fill(kU64Max);
        seg.flows.push_back(StoredFlow{i % 2 == 0 ? 1ull << 63 : 0, f});
      }
      SegmentFileInfo info;
      encode_segment(seg, &info);
      const auto bytes_of = [&info](const std::string& name) {
        for (const ColumnBytes& column : info.columns)
          if (column.name == name) return column.file_bytes;
        return std::uint64_t{0};
      };
      EXPECT_EQ(bytes_of("flow_id"), 10 * n);
      EXPECT_EQ(bytes_of("duration"), 10 * n);
      EXPECT_EQ(bytes_of("ports"), 2 * 3 * n);
      EXPECT_EQ(bytes_of("counters"), 5 * 10 * n);
      EXPECT_EQ(bytes_of("tcp_flags"), 5 * 5 * n);
      EXPECT_EQ(bytes_of("labels"), (1 + 7 * 10) * n);
      EXPECT_EQ(bytes_of("scenario_id"), 5 * n);
      ASSERT_TRUE(encodes_alike(seg));
      seg.seal();
      ASSERT_TRUE(encodes_alike(seg));
    }
  }
}

// Every protocol number (ranks past 127 take two bytes) and every label
// mask, in a shuffled order, sealed and unsealed.
TEST(SegmentEncodeDifferential, EveryProtocolAndLabelMask) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<FlowRecord> flows;
    for (std::size_t i = 0; i < 512; ++i) {
      FlowRecord f = shaped_flow(rng, Shape::kCampus, i);
      f.tuple.proto = static_cast<std::uint8_t>(i % 256);
      const std::size_t mask = i % 128;
      for (std::size_t l = 0; l < packet::kTrafficLabelCount; ++l)
        f.label_packets[l] =
            (mask >> l) & 1 ? 1 + rng.below(1ull << rng.below(64)) : 0;
      flows.push_back(f);
    }
    std::shuffle(flows.begin(), flows.end(), rng);
    ASSERT_TRUE(encodes_alike(make_segment(flows, 1)));
    ASSERT_TRUE(encodes_alike(make_segment(flows, 1, /*seal=*/false)));
    // Only some protocols: the ranks are not the protocol numbers.
    flows.resize(40);
    ASSERT_TRUE(encodes_alike(make_segment(flows, 9)));
  }
}

TEST(SegmentEncodeDifferential, UnsealedSegmentHasNoIndexSections) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    for (const std::size_t n : {0, 1, 9, 1500}) {
      SCOPED_TRACE(::testing::Message() << n << " rows");
      const Segment seg = make_segment(shaped_flows(rng, Shape::kCampus, n),
                                       1, /*seal=*/false);
      ASSERT_TRUE(encodes_alike(seg));
    }
  }
}

// Bytes flipped in a valid file's payload, behind a resealed payload
// checksum and header FNV-1a (no length changes, so the directory
// stands). What still decodes is a segment whose rows and index
// sections need not agree: the encoders must agree on it all the same,
// taking the dictionary from the rows and the index sections from the
// decoded indexes.
TEST(SegmentEncodeDifferential, DecodedMutantsWhoseIndexesDisagree) {
  constexpr int kIterations = 600;
  for (const std::uint64_t seed : fuzz_seeds()) {
    SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> corpus;
    for (const std::size_t n : {1, 9, 60, 300})
      for (const Shape shape : {Shape::kFlood, Shape::kCampus})
        corpus.push_back(
            encode_segment(make_segment(shaped_flows(rng, shape, n), 1)));
    std::size_t decoded = 0;
    std::size_t disagreeing = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
      SCOPED_TRACE(::testing::Message() << "iteration " << iter);
      std::vector<std::uint8_t> bytes = corpus[rng.below(corpus.size())];
      const std::size_t payload = bytes.size() - kSegmentFileHeaderBytes;
      for (std::size_t flips = 1 + rng.below(4); flips > 0; --flips)
        bytes[kSegmentFileHeaderBytes + rng.below(payload)] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      const auto put_be64 = [&bytes](std::size_t at, std::uint64_t v) {
        for (std::size_t i = 0; i < 8; ++i)
          bytes[at + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
      };
      const std::span<const std::uint8_t> all(bytes);
      put_be64(24, util::checksum64(all.subspan(kSegmentFileHeaderBytes)));
      put_be64(kSegmentFileHeaderBytes - 8,
               util::fnv1a(all.first(kSegmentFileHeaderBytes - 8)));
      auto segment = decode_segment(bytes);
      if (!segment.ok()) continue;
      ++decoded;
      const Segment& seg = *segment.value();
      Segment resealed(seg.flows.size());
      resealed.flows = seg.flows;
      resealed.seal();
      if (resealed.by_host.keys != seg.by_host.keys ||
          resealed.by_host.rows != seg.by_host.rows ||
          resealed.by_port.keys != seg.by_port.keys ||
          resealed.by_port.rows != seg.by_port.rows ||
          resealed.by_label != seg.by_label)
        ++disagreeing;
      ASSERT_TRUE(encodes_alike(seg));
    }
    EXPECT_GT(decoded, static_cast<std::size_t>(kIterations) / 10);
    EXPECT_GT(disagreeing, 0u) << "no decoded mutant's index disagreed";
  }
}

// ------------------------------------------------------ sort_by_key

// sort_by_key<Key> must order (key << 32 | slot) pairs exactly as
// std::stable_sort on the key does.
template <typename Key>
void expect_sorts_like_stable_sort(std::vector<std::uint64_t> pairs) {
  std::vector<std::uint64_t> want = pairs;
  std::stable_sort(want.begin(), want.end(),
                   [](std::uint64_t a, std::uint64_t b) {
                     return (a >> 32) < (b >> 32);
                   });
  sort_by_key<Key>(pairs);
  EXPECT_EQ(pairs, want);
}

// Pairs with keys drawn by `key_of` and slots in a random order, so
// that stability shows.
template <typename KeyOf>
std::vector<std::uint64_t> pairs_of(Rng& rng, std::size_t n, KeyOf key_of) {
  std::vector<std::uint64_t> pairs;
  for (std::size_t i = 0; i < n; ++i)
    pairs.push_back(std::uint64_t{key_of()} << 32 |
                    static_cast<std::uint32_t>(rng.next()));
  return pairs;
}

template <typename Key>
void check_sort_by_key(std::uint64_t seed) {
  SCOPED_TRACE("CAMPUSLAB_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  constexpr std::uint64_t kMax = std::numeric_limits<Key>::max();
  const auto any_key = [&] { return static_cast<Key>(rng.below(kMax + 1)); };
  const auto few_keys = [&] {
    return static_cast<Key>(rng.below(5) * (kMax / 4));
  };
  const auto low_byte = [&] { return static_cast<Key>(rng.below(256)); };
  const Key constant = any_key();
  const auto same_key = [&] { return constant; };
  // Most pairs share every byte; a few differ in one: no pass may be
  // skipped for a byte that most, but not all, pairs share.
  const auto skewed = [&] {
    if (!rng.chance(0.2)) return constant;
    const unsigned shift = 8 * static_cast<unsigned>(rng.below(sizeof(Key)));
    return static_cast<Key>(constant ^ (Key{0xFF} << shift & rng.next()));
  };
  for (const std::size_t n : {0, 1, 2, 255, 256, 5000}) {
    SCOPED_TRACE(::testing::Message() << n << " pairs");
    expect_sorts_like_stable_sort<Key>(pairs_of(rng, n, any_key));
    expect_sorts_like_stable_sort<Key>(pairs_of(rng, n, few_keys));
    expect_sorts_like_stable_sort<Key>(pairs_of(rng, n, low_byte));
    expect_sorts_like_stable_sort<Key>(pairs_of(rng, n, same_key));
    expect_sorts_like_stable_sort<Key>(pairs_of(rng, n, skewed));
  }
}

TEST(SortByKey, MatchesStableSortOnU16Keys) {
  for (const std::uint64_t seed : fuzz_seeds())
    check_sort_by_key<std::uint16_t>(seed);
}

TEST(SortByKey, MatchesStableSortOnU32Keys) {
  for (const std::uint64_t seed : fuzz_seeds())
    check_sort_by_key<std::uint32_t>(seed);
}

// Every key equal: every pass is skipped and the pairs stay as given.
TEST(SortByKey, AllEqualKeysKeepTheirOrder) {
  Rng rng(17);
  const auto pairs =
      pairs_of(rng, 1000, [] { return std::uint32_t{0xC0A80001}; });
  std::vector<std::uint64_t> sorted = pairs;
  sort_by_key<std::uint32_t>(sorted);
  EXPECT_EQ(sorted, pairs);
}

}  // namespace
}  // namespace campuslab::store
