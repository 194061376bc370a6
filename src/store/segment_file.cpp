#include "campuslab/store/segment_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/util/bytes.h"
#include "campuslab/util/codec.h"
#include "campuslab/util/file.h"
#include "campuslab/util/hash.h"

#if defined(__unix__) || defined(__APPLE__)
#define CAMPUSLAB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace campuslab::store {

namespace {

// "CLSEG01\n" big-endian: readable in a hex dump, and the trailing
// newline catches text-mode mangling the way pcap's magic does.
constexpr std::uint64_t kMagic = 0x434C53454730310AULL;

// Standard-basis FNV-1a from util/hash.h; the golden segment fixture
// pins that checksums are unchanged across the dedup. The varint /
// zigzag codecs and the sticky-failure decoder moved to util/codec.h
// (shared with the shard wire protocol); the fixture equally pins that
// the shared implementation emits identical bytes.
using util::fnv1a;
using util::put_varint;
using util::unzigzag;
using util::zigzag;
using Decoder = util::VarintDecoder;

/// Strictly ascending offset list (the shape every inverted-index
/// posting list has): absolute first value, then deltas >= 1, all
/// < flow_count. Returns false on any structural violation.
bool decode_offsets(Decoder& d, std::uint32_t flow_count,
                    std::vector<std::uint32_t>& out) {
  const std::uint64_t m = d.varint_at_most(flow_count);
  if (d.failed) return false;
  out.clear();
  out.reserve(m);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t delta = d.varint();
    if (d.failed) return false;
    const std::uint64_t v = i == 0 ? delta : prev + delta;
    if (v >= flow_count || (i != 0 && delta == 0)) return false;
    out.push_back(static_cast<std::uint32_t>(v));
    prev = v;
  }
  return true;
}

void encode_offsets(ByteWriter& w, const std::vector<std::uint32_t>& v) {
  put_varint(w, v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    put_varint(w, i == 0 ? v[i] : v[i] - v[i - 1]);
}

struct ParsedHeader {
  SegmentZoneMap zone;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_fnv = 0;
};

Result<ParsedHeader> parse_header(std::span<const std::uint8_t> file) {
  if (file.size() < kSegmentFileHeaderBytes)
    return Error::make("segment_truncated",
                       "file shorter than the fixed header");
  ByteReader r(file.first(kSegmentFileHeaderBytes));
  if (r.u64() != kMagic)
    return Error::make("segment_magic", "not a CampusLab segment file");
  const std::uint32_t version = r.u32();
  if (version != kSegmentFileVersion)
    return Error::make("segment_version",
                       "unsupported segment format version " +
                           std::to_string(version));
  r.u32();  // flags, reserved (covered by the header checksum)
  ParsedHeader h;
  h.payload_size = r.u64();
  h.payload_fnv = r.u64();
  h.zone.flow_count = r.u32();
  h.zone.min_ts =
      Timestamp::from_nanos(static_cast<std::int64_t>(r.u64()));
  h.zone.max_ts =
      Timestamp::from_nanos(static_cast<std::int64_t>(r.u64()));
  h.zone.id_lo = r.u64();
  h.zone.id_hi = r.u64();
  h.zone.packets = r.u64();
  h.zone.bytes = r.u64();
  for (auto& lf : h.zone.label_flows) lf = r.u64();
  const std::uint64_t stored = r.u64();
  if (stored != fnv1a(file.first(kSegmentFileHeaderBytes - 8)))
    return Error::make("segment_checksum", "header checksum mismatch");
  if (h.payload_size != file.size() - kSegmentFileHeaderBytes)
    return Error::make("segment_truncated",
                       "payload size disagrees with file size");
  return h;
}

struct TierMetrics {
  obs::Counter& cold_loads =
      obs::Registry::global().counter("store.cold_loads");
  obs::Counter& cold_load_failures =
      obs::Registry::global().counter("store.cold_load_failures");
  obs::Histogram& load_ns =
      obs::Registry::global().histogram("store_load_ns");

  static TierMetrics& get() {
    static TierMetrics m;
    return m;
  }
};

#if !CAMPUSLAB_HAVE_MMAP
Result<std::vector<std::uint8_t>> read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::make("io", "cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return Error::make("io", "cannot stat " + path);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!in) return Error::make("io", "short read from " + path);
  return buf;
}
#endif

}  // namespace

// ------------------------------------------------------------- encode

std::vector<std::uint8_t> encode_segment(const Segment& segment,
                                         SegmentFileInfo* info) {
  const auto& flows = segment.flows;
  const auto n = static_cast<std::uint32_t>(flows.size());

  // Zone map recomputed from the rows themselves so the header always
  // agrees with the payload, even for hand-built segments.
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
  put_varint(payload, n);

  std::size_t col_start = payload.size();
  const auto column = [&](const char* name, std::uint64_t memory_bytes) {
    if (info != nullptr)
      info->columns.push_back(
          ColumnBytes{name, payload.size() - col_start, memory_bytes});
    col_start = payload.size();
  };

  // Flow ids: absolute first, zigzag deltas after (ingest assigns them
  // ascending, so deltas are tiny — but the codec never assumes it).
  for (std::size_t i = 0; i < flows.size(); ++i)
    put_varint(payload, i == 0 ? flows[i].id
                               : zigzag(static_cast<std::int64_t>(
                                     flows[i].id - flows[i - 1].id)));
  column("flow_id", static_cast<std::uint64_t>(n) * 8);

  // Timestamps: first_ts as offset from the zone minimum (always
  // non-negative), last_ts as zigzag duration from first_ts.
  for (const auto& s : flows)
    put_varint(payload,
               static_cast<std::uint64_t>(s.flow.first_ts.nanos()) -
                   static_cast<std::uint64_t>(zone.min_ts.nanos()));
  column("first_ts", static_cast<std::uint64_t>(n) * 8);
  for (const auto& s : flows)
    put_varint(payload,
               zigzag(static_cast<std::int64_t>(
                   static_cast<std::uint64_t>(s.flow.last_ts.nanos()) -
                   static_cast<std::uint64_t>(s.flow.first_ts.nanos()))));
  column("duration", static_cast<std::uint64_t>(n) * 8);

  // Host dictionary: sorted unique src+dst addresses, delta-encoded;
  // the address columns are dictionary indexes.
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
  column("host_dict", 0);
  const auto host_index = [&hosts](std::uint32_t value) {
    return static_cast<std::uint64_t>(
        std::lower_bound(hosts.begin(), hosts.end(), value) -
        hosts.begin());
  };
  for (const auto& s : flows)
    put_varint(payload, host_index(s.flow.tuple.src.value()));
  column("src_host", static_cast<std::uint64_t>(n) * 4);
  for (const auto& s : flows)
    put_varint(payload, host_index(s.flow.tuple.dst.value()));
  column("dst_host", static_cast<std::uint64_t>(n) * 4);

  for (const auto& s : flows) put_varint(payload, s.flow.tuple.src_port);
  for (const auto& s : flows) put_varint(payload, s.flow.tuple.dst_port);
  column("ports", static_cast<std::uint64_t>(n) * 4);

  // Protocol dictionary (a campus sees a handful of IP protocols).
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
  column("proto", static_cast<std::uint64_t>(n));

  // Direction and saw_dns, one bit per flow each.
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
  };
  put_bitset([](const StoredFlow& s) {
    return s.flow.initial_direction == sim::Direction::kOutbound;
  });
  put_bitset([](const StoredFlow& s) { return s.flow.saw_dns; });
  column("flags", static_cast<std::uint64_t>(n) * 2);

  const auto u64_column = [&](auto&& field_of) {
    for (const auto& s : flows) put_varint(payload, field_of(s.flow));
  };
  u64_column([](const capture::FlowRecord& f) { return f.packets; });
  u64_column([](const capture::FlowRecord& f) { return f.bytes; });
  u64_column([](const capture::FlowRecord& f) { return f.payload_bytes; });
  u64_column([](const capture::FlowRecord& f) { return f.fwd_packets; });
  u64_column([](const capture::FlowRecord& f) { return f.rev_packets; });
  column("counters", static_cast<std::uint64_t>(n) * 40);
  u64_column([](const capture::FlowRecord& f) { return f.syn_count; });
  u64_column([](const capture::FlowRecord& f) { return f.synack_count; });
  u64_column([](const capture::FlowRecord& f) { return f.fin_count; });
  u64_column([](const capture::FlowRecord& f) { return f.rst_count; });
  u64_column([](const capture::FlowRecord& f) { return f.psh_count; });
  column("tcp_flags", static_cast<std::uint64_t>(n) * 20);

  // label_packets is almost always a single nonzero entry: a presence
  // mask plus the nonzero values only.
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
  column("labels", static_cast<std::uint64_t>(n) * 40);

  // Scenario instance ids: background flows carry 0, so the column is
  // one byte per flow outside attack windows.
  for (const auto& s : flows) put_varint(payload, s.flow.scenario_id);
  column("scenario_id", static_cast<std::uint64_t>(n) * 4);

  // Inverted indexes, keys sorted for deterministic bytes (the golden
  // fixture pins the encoding bit-for-bit).
  std::uint64_t index_entries = 0;
  const auto put_keyed_index = [&](const auto& map) {
    std::vector<std::uint64_t> keys;
    keys.reserve(map.size());
    for (const auto& [key, offsets] : map)
      keys.push_back(static_cast<std::uint64_t>(key));
    std::sort(keys.begin(), keys.end());
    put_varint(payload, keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      put_varint(payload, i == 0 ? keys[i] : keys[i] - keys[i - 1]);
      const auto& offsets =
          map.at(static_cast<typename std::decay_t<
                     decltype(map)>::key_type>(keys[i]));
      encode_offsets(payload, offsets);
      index_entries += offsets.size();
    }
  };
  put_keyed_index(segment.by_host);
  column("index_host", index_entries * 4 + segment.by_host.size() * 48);
  index_entries = 0;
  put_keyed_index(segment.by_port);
  column("index_port", index_entries * 4 + segment.by_port.size() * 48);
  index_entries = 0;
  for (const auto& offsets : segment.by_label) {
    encode_offsets(payload, offsets);
    index_entries += offsets.size();
  }
  column("index_label", index_entries * 4);

  ByteWriter header(kSegmentFileHeaderBytes);
  header.u64(kMagic);
  header.u32(kSegmentFileVersion);
  header.u32(0);  // flags, reserved
  header.u64(payload.size());
  header.u64(fnv1a(payload.view()));
  header.u32(zone.flow_count);
  header.u64(static_cast<std::uint64_t>(zone.min_ts.nanos()));
  header.u64(static_cast<std::uint64_t>(zone.max_ts.nanos()));
  header.u64(zone.id_lo);
  header.u64(zone.id_hi);
  header.u64(zone.packets);
  header.u64(zone.bytes);
  for (const auto lf : zone.label_flows) header.u64(lf);
  header.u64(fnv1a(header.view()));

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

std::uint64_t segment_memory_bytes(const Segment& segment) noexcept {
  std::uint64_t mem = segment.flows.capacity() * sizeof(StoredFlow);
  std::uint64_t entries = 0;
  for (const auto& [key, offsets] : segment.by_host)
    entries += offsets.size();
  for (const auto& [key, offsets] : segment.by_port)
    entries += offsets.size();
  for (const auto& offsets : segment.by_label) entries += offsets.size();
  // Posting vectors plus ~48 bytes of hash-node overhead per key.
  return mem + entries * sizeof(std::uint32_t) +
         (segment.by_host.size() + segment.by_port.size()) * 48;
}

// ------------------------------------------------------------- decode

Result<SegmentZoneMap> decode_zone_map(std::span<const std::uint8_t> file) {
  auto header = parse_header(file);
  if (!header.ok()) return header.error();
  return header.value().zone;
}

Result<std::shared_ptr<Segment>> decode_segment(
    std::span<const std::uint8_t> file) {
  auto parsed = parse_header(file);
  if (!parsed.ok()) return parsed.error();
  const ParsedHeader& header = parsed.value();
  const auto payload = file.subspan(kSegmentFileHeaderBytes);
  if (fnv1a(payload) != header.payload_fnv)
    return Error::make("segment_checksum", "payload checksum mismatch");

  // The checksum gate means everything below "cannot" fail on a file
  // we wrote; every check still runs so decode stays total on inputs
  // that collide, come from a newer writer, or were crafted.
  const auto corrupt = [] {
    return Error::make("segment_corrupt", "malformed segment payload");
  };
  Decoder d(payload);
  const std::uint64_t n64 = d.varint();
  if (d.failed || n64 != header.zone.flow_count || n64 > payload.size())
    return corrupt();
  const auto n = static_cast<std::uint32_t>(n64);

  auto segment = std::make_shared<Segment>(n);
  segment->flows.resize(n);  // within the reserved capacity: no realloc
  auto& flows = segment->flows;

  std::uint64_t prev_id = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t raw = d.varint();
    prev_id = i == 0 ? raw
                     : prev_id + static_cast<std::uint64_t>(unzigzag(raw));
    flows[i].id = prev_id;
  }
  const std::uint64_t min_ts_u =
      static_cast<std::uint64_t>(header.zone.min_ts.nanos());
  for (std::uint32_t i = 0; i < n; ++i)
    flows[i].flow.first_ts = Timestamp::from_nanos(
        static_cast<std::int64_t>(min_ts_u + d.varint()));
  for (std::uint32_t i = 0; i < n; ++i)
    flows[i].flow.last_ts = Timestamp::from_nanos(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(flows[i].flow.first_ts.nanos()) +
        static_cast<std::uint64_t>(unzigzag(d.varint()))));
  if (d.failed) return corrupt();

  const std::uint64_t dict_size =
      d.varint_at_most(static_cast<std::uint64_t>(n) * 2);
  std::vector<std::uint32_t> hosts;
  hosts.reserve(dict_size);
  std::uint64_t prev_host = 0;
  for (std::uint64_t i = 0; i < dict_size; ++i) {
    const std::uint64_t delta = d.varint();
    const std::uint64_t v = i == 0 ? delta : prev_host + delta;
    if (d.failed || v > std::numeric_limits<std::uint32_t>::max() ||
        (i != 0 && delta == 0))
      return corrupt();
    hosts.push_back(static_cast<std::uint32_t>(v));
    prev_host = v;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t idx = d.varint();
    if (d.failed || idx >= hosts.size()) return corrupt();
    flows[i].flow.tuple.src = packet::Ipv4Address(hosts[idx]);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t idx = d.varint();
    if (d.failed || idx >= hosts.size()) return corrupt();
    flows[i].flow.tuple.dst = packet::Ipv4Address(hosts[idx]);
  }
  for (std::uint32_t i = 0; i < n; ++i)
    flows[i].flow.tuple.src_port =
        static_cast<std::uint16_t>(d.varint_at_most(0xFFFF));
  for (std::uint32_t i = 0; i < n; ++i)
    flows[i].flow.tuple.dst_port =
        static_cast<std::uint16_t>(d.varint_at_most(0xFFFF));
  if (d.failed) return corrupt();

  const std::uint64_t proto_count = d.varint_at_most(256);
  if (d.failed) return corrupt();
  const auto proto_dict = d.r.bytes(proto_count);
  if (proto_dict.size() != proto_count) return corrupt();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t idx = d.varint();
    if (d.failed || idx >= proto_dict.size()) return corrupt();
    flows[i].flow.tuple.proto = proto_dict[idx];
  }

  const std::size_t bitset_bytes = (n + 7) / 8;
  const auto dir_bits = d.r.bytes(bitset_bytes);
  const auto dns_bits = d.r.bytes(bitset_bytes);
  if (dir_bits.size() != bitset_bytes || dns_bits.size() != bitset_bytes)
    return corrupt();
  for (std::uint32_t i = 0; i < n; ++i) {
    flows[i].flow.initial_direction =
        (dir_bits[i / 8] >> (i % 8)) & 1 ? sim::Direction::kOutbound
                                         : sim::Direction::kInbound;
    flows[i].flow.saw_dns = ((dns_bits[i / 8] >> (i % 8)) & 1) != 0;
  }

  const auto u64_column = [&](auto&& assign) {
    for (std::uint32_t i = 0; i < n; ++i) assign(flows[i].flow, d.varint());
  };
  u64_column([](capture::FlowRecord& f, std::uint64_t v) { f.packets = v; });
  u64_column([](capture::FlowRecord& f, std::uint64_t v) { f.bytes = v; });
  u64_column(
      [](capture::FlowRecord& f, std::uint64_t v) { f.payload_bytes = v; });
  u64_column(
      [](capture::FlowRecord& f, std::uint64_t v) { f.fwd_packets = v; });
  u64_column(
      [](capture::FlowRecord& f, std::uint64_t v) { f.rev_packets = v; });
  if (d.failed) return corrupt();
  const auto u32_column = [&](auto&& assign) {
    for (std::uint32_t i = 0; i < n; ++i)
      assign(flows[i].flow, static_cast<std::uint32_t>(
                                d.varint_at_most(0xFFFFFFFFULL)));
  };
  u32_column([](capture::FlowRecord& f, std::uint32_t v) { f.syn_count = v; });
  u32_column(
      [](capture::FlowRecord& f, std::uint32_t v) { f.synack_count = v; });
  u32_column([](capture::FlowRecord& f, std::uint32_t v) { f.fin_count = v; });
  u32_column([](capture::FlowRecord& f, std::uint32_t v) { f.rst_count = v; });
  u32_column([](capture::FlowRecord& f, std::uint32_t v) { f.psh_count = v; });
  if (d.failed) return corrupt();

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t mask = d.r.u8();
    if (!d.r.ok() || (mask >> packet::kTrafficLabelCount) != 0)
      return corrupt();
    for (std::size_t l = 0; l < packet::kTrafficLabelCount; ++l)
      if ((mask >> l) & 1) flows[i].flow.label_packets[l] = d.varint();
  }
  if (d.failed) return corrupt();

  for (std::uint32_t i = 0; i < n; ++i)
    flows[i].flow.scenario_id =
        static_cast<std::uint32_t>(d.varint_at_most(0xFFFFFFFFULL));
  if (d.failed) return corrupt();

  const auto read_keyed_index = [&](auto& map, std::uint64_t key_bound,
                                    std::uint64_t max_keys) {
    const std::uint64_t keys = d.varint_at_most(max_keys);
    if (d.failed) return false;
    std::uint64_t prev_key = 0;
    std::vector<std::uint32_t> offsets;
    for (std::uint64_t i = 0; i < keys; ++i) {
      const std::uint64_t delta = d.varint();
      const std::uint64_t key = i == 0 ? delta : prev_key + delta;
      if (d.failed || key > key_bound || (i != 0 && delta == 0))
        return false;
      prev_key = key;
      if (!decode_offsets(d, n, offsets)) return false;
      map[static_cast<typename std::decay_t<decltype(map)>::key_type>(
          key)] = offsets;
    }
    return true;
  };
  if (!read_keyed_index(segment->by_host,
                        std::numeric_limits<std::uint32_t>::max(),
                        static_cast<std::uint64_t>(n) * 2))
    return corrupt();
  if (!read_keyed_index(segment->by_port, 0xFFFF,
                        static_cast<std::uint64_t>(n) * 2))
    return corrupt();
  std::vector<std::uint32_t> offsets;
  for (auto& posting : segment->by_label) {
    if (!decode_offsets(d, n, offsets)) return corrupt();
    posting = offsets;
  }

  if (d.failed || d.r.offset() != payload.size())
    return corrupt();  // trailing garbage or short payload

  segment->sealed = true;
  if (n > 0) {
    segment->min_ts = header.zone.min_ts;
    segment->max_ts = header.zone.max_ts;
  }
  return segment;
}

// --------------------------------------------------------------- file

Result<SegmentFileInfo> write_segment_file(const Segment& segment,
                                           const std::string& path) {
  SegmentFileInfo info;
  const auto bytes = encode_segment(segment, &info);
  if (auto s = util::write_file_atomically(path, bytes, "io"); !s.ok())
    return s.error();
  return info;
}

Result<std::shared_ptr<Segment>> read_segment_file(const std::string& path) {
  auto mapped = MappedFile::open(path);
  if (!mapped.ok()) return mapped.error();
  return decode_segment(mapped.value().bytes());
}

Result<SegmentZoneMap> read_zone_map(const std::string& path) {
  auto mapped = MappedFile::open(path);
  if (!mapped.ok()) return mapped.error();
  return decode_zone_map(mapped.value().bytes());
}

// --------------------------------------------------------- MappedFile

void MappedFile::reset() noexcept {
#if CAMPUSLAB_HAVE_MMAP
  if (mapped_ && data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile::~MappedFile() { reset(); }

Result<MappedFile> MappedFile::open(const std::string& path) {
  MappedFile file;
#if CAMPUSLAB_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Error::make("io", "cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Error::make("io", "cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) return Error::make("io", "cannot mmap " + path);
    file.data_ = static_cast<const std::uint8_t*>(p);
    file.size_ = size;
    file.mapped_ = true;
  } else {
    ::close(fd);
  }
  return file;
#else
  auto buf = read_whole_file(path);
  if (!buf.ok()) return buf.error();
  file.fallback_ = std::move(buf).value();
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;
#endif
}

// -------------------------------------------------- ColdSegmentHandle

ColdSegmentHandle::~ColdSegmentHandle() {
  if (owns_file_) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best-effort cleanup
  }
}

Result<std::shared_ptr<const Segment>> ColdSegmentHandle::load() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto live = cache_.lock()) return live;
  auto& metrics = TierMetrics::get();
  const auto t0 = obs::monotonic_ns();
  auto loaded = read_segment_file(path_);
  if (!loaded.ok()) {
    metrics.cold_load_failures.increment();
    return loaded.error();
  }
  metrics.cold_loads.increment();
  metrics.load_ns.observe(obs::monotonic_ns() - t0);
  std::shared_ptr<const Segment> segment = std::move(loaded).value();
  cache_ = segment;
  return segment;
}

}  // namespace campuslab::store
