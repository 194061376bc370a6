#include "campuslab/store/segment_file.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>

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

// "CLSEG02\n" big-endian: readable in a hex dump, and the trailing
// newline catches text-mode mangling the way pcap's magic does.
constexpr std::uint64_t kMagic = 0x434C53454730320AULL;

// The header keeps standard-basis FNV-1a from util/hash.h; the payload
// is covered by util::checksum64. The varint / zigzag encoders are the
// shared util/codec.h ones, so every column keeps its CLSEG01 bytes.
using util::checksum64;
using util::fnv1a;
using util::put_varint;
using util::unzigzag;
using util::zigzag;

// The hot budget's charge per host or port key, on top of 4 B per
// posting. The flat index costs far less per key; the charge stays so
// that which segments the budget keeps hot does not change.
constexpr std::uint64_t kHotBytesPerIndexKey = 48;

// The payload's sections, in file order: one per column (the counters
// and TCP flag counts one per field), then the three index sections.
enum Section : std::size_t {
  kIds, kFirstTs, kDuration, kHostDict, kSrcHost, kDstHost, kSrcPort,
  kDstPort, kProto, kDirection, kSawDns, kPackets, kBytes, kPayloadBytes,
  kFwdPackets, kRevPackets, kSynCount, kSynackCount, kFinCount, kRstCount,
  kPshCount, kLabels, kScenarioId, kHostIndex, kPortIndex, kLabelIndex,
  kSectionCount
};
static_assert(kSectionCount == kSegmentSections);

using Sections = std::array<std::span<const std::uint8_t>, kSegmentSections>;

// A bounds-checked reader over one payload section with sticky
// failure. Its varint accepts exactly what util::VarintDecoder accepts;
// unlike that shared decoder (which the wire uses for hot answers) it
// skips the per-byte bounds check while ten or more bytes remain.
class SectionReader {
 public:
  explicit SectionReader(std::span<const std::uint8_t> section) noexcept
      : p_(section.data()), end_(section.data() + section.size()) {}

  bool failed() const noexcept { return failed_; }
  bool at_end() const noexcept { return p_ == end_; }
  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  std::uint64_t varint() noexcept {
    if (end_ - p_ >= 10) [[likely]] {
      std::uint64_t b = *p_++;
      if (b < 0x80) return b;
      std::uint64_t v = b & 0x7F;
      for (int shift = 7; shift <= 56; shift += 7) {
        b = *p_++;
        v |= (b & 0x7F) << shift;
        if (b < 0x80) return v;
      }
      b = *p_++;  // the 10th byte holds only bit 63
      if (b <= 1) return v | b << 63;
      return fail();
    }
    return varint_near_end();
  }

  std::uint64_t varint_at_most(std::uint64_t bound) noexcept {
    const std::uint64_t v = varint();
    return v > bound ? fail() : v;
  }

  std::uint8_t byte() noexcept {
    if (p_ == end_) return static_cast<std::uint8_t>(fail());
    return *p_++;
  }

  std::span<const std::uint8_t> bytes(std::uint64_t n) noexcept {
    if (n > remaining()) {
      fail();
      return {};
    }
    const std::uint8_t* at = p_;
    p_ += n;
    return {at, static_cast<std::size_t>(n)};
  }

  // Step over `rows` rows of the label column: a presence mask (checked
  // as the whole decode checks it), then one varint per set bit.
  void skip_label_rows(std::uint64_t rows) noexcept {
    for (; rows > 0; --rows) {
      if (p_ == end_ || (*p_ >> packet::kTrafficLabelCount) != 0) {
        fail();
        return;
      }
      for (int left = std::popcount(*p_++); left > 0;) {
        if (p_ == end_) {
          fail();
          return;
        }
        if (*p_++ < 0x80) --left;
      }
    }
  }

  // Step over `count` varints by counting the bytes that end one, eight
  // at a time. It checks bounds, not varint lengths: a walk only has to
  // land where a whole decode would on a file that decodes whole.
  void skip_varints(std::uint64_t count) noexcept {
    while (count > 0 && end_ - p_ >= 8) {
      std::uint64_t ends =
          ~util::detail::load_le64(p_) & 0x8080808080808080ULL;
      const auto here = static_cast<std::uint64_t>(std::popcount(ends));
      if (here < count) {
        count -= here;
        p_ += 8;
        continue;
      }
      for (; count > 1; --count) ends &= ends - 1;  // drop earlier ends
      p_ += std::countr_zero(ends) / 8 + 1;
      return;
    }
    for (; count > 0; --count) {
      while (p_ != end_ && *p_ >= 0x80) ++p_;
      if (p_ == end_) {
        fail();
        return;
      }
      ++p_;
    }
  }

 private:
  std::uint64_t fail() noexcept {
    failed_ = true;
    p_ = end_;
    return 0;
  }

  std::uint64_t varint_near_end() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64 && p_ != end_; shift += 7) {
      const std::uint64_t b = *p_++;
      v |= (b & 0x7F) << shift;
      if (b < 0x80) return shift == 63 && b > 1 ? fail() : v;
    }
    return fail();
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

// The rows a decode materializes: every row of the file in order, or
// the strictly ascending offsets one posting list names. Output row k
// is file row at(k).
struct AllRows {
  static constexpr bool kAll = true;
  std::uint32_t n;
  std::uint32_t size() const noexcept { return n; }
  std::uint32_t at(std::uint32_t k) const noexcept { return k; }
};
struct PostingRows {
  static constexpr bool kAll = false;
  std::span<const std::uint32_t> rows;
  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(rows.size());
  }
  std::uint32_t at(std::uint32_t k) const noexcept { return rows[k]; }
};

// Hand row at(k)'s value of a varint column to put(k, v), k ascending;
// false when put rejects a value or the column is malformed. AllRows
// reads every value and requires the column to end with the last; a
// posting list skips to each row it names and stops after the last.
template <typename Rows, typename Put>
bool read_varints(SectionReader& r, const Rows& rows, Put&& put) {
  if constexpr (Rows::kAll) {
    for (std::uint32_t i = 0; i < rows.n; ++i)
      if (!put(i, r.varint())) return false;
    return !r.failed() && r.at_end();
  } else {
    std::uint32_t next = 0;  // the row the reader stands at
    for (std::uint32_t k = 0; k < rows.size(); ++k) {
      r.skip_varints(rows.at(k) - next);
      if (!put(k, r.varint())) return false;
      next = rows.at(k) + 1;
    }
    return !r.failed();
  }
}

/// Append one strictly ascending offset list (the shape every
/// inverted-index posting list has): absolute first value, then deltas
/// >= 1, all < flow_count. Returns false on any structural violation.
/// Never reserves: callers append many lists to one array.
bool append_offsets(SectionReader& r, std::uint32_t flow_count,
                    std::vector<std::uint32_t>& out) {
  const std::uint64_t m = r.varint_at_most(flow_count);
  if (r.failed()) return false;
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t delta = r.varint();
    if (r.failed()) return false;
    const std::uint64_t v = i == 0 ? delta : prev + delta;
    // v <= prev also catches a delta that wraps the sum past 2^64.
    if (v >= flow_count || (i != 0 && v <= prev)) return false;
    out.push_back(static_cast<std::uint32_t>(v));
    prev = v;
  }
  return true;
}

void encode_offsets(ByteWriter& w, std::span<const std::uint32_t> v) {
  put_varint(w, v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    put_varint(w, i == 0 ? v[i] : v[i] - v[i - 1]);
}

struct ParsedHeader {
  SegmentZoneMap zone;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_sum = 0;
  std::array<std::uint64_t, 2 * kSegmentSections> directory{};  // off, len
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
  h.payload_sum = r.u64();
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
  for (auto& field : h.directory) field = r.u64();
  const std::uint64_t stored = r.u64();
  if (stored != fnv1a(file.first(kSegmentFileHeaderBytes - 8)))
    return Error::make("segment_checksum", "header checksum mismatch");
  if (h.payload_size != file.size() - kSegmentFileHeaderBytes)
    return Error::make("segment_truncated",
                       "payload size disagrees with file size");
  return h;
}

Error corrupt() {
  return Error::make("segment_corrupt", "malformed segment payload");
}

// A payload both checksums vouch for, cut into its sections.
struct Payload {
  SegmentZoneMap zone;
  Sections sections;
};

// Parse the header, check the payload's checksum64 (every read checks
// the whole payload, whatever it then decodes), and cut the payload
// where the directory says. The sections must tile it in order.
Result<Payload> open_payload(std::span<const std::uint8_t> file) {
  auto parsed = parse_header(file);
  if (!parsed.ok()) return parsed.error();
  const ParsedHeader& header = parsed.value();
  const auto payload = file.subspan(kSegmentFileHeaderBytes);
  if (checksum64(payload) != header.payload_sum)
    return Error::make("segment_checksum", "payload checksum mismatch");
  Payload out{header.zone, {}};
  std::uint64_t at = 0;
  for (std::size_t s = 0; s < kSegmentSections; ++s) {
    const std::uint64_t offset = header.directory[2 * s];
    const std::uint64_t length = header.directory[2 * s + 1];
    if (offset != at || length > payload.size() - at) return corrupt();
    out.sections[s] = payload.subspan(at, length);
    at += length;
  }
  if (at != payload.size()) return corrupt();
  return out;
}

// The sorted host dictionary: a count of at most 2n, then strictly
// ascending u32 addresses as deltas; the section ends with the last.
bool read_host_dict(std::span<const std::uint8_t> section, std::uint32_t n,
                    std::vector<std::uint32_t>& hosts) {
  SectionReader r(section);
  const std::uint64_t size = r.varint_at_most(std::uint64_t{n} * 2);
  if (r.failed()) return false;
  hosts.reserve(std::min<std::uint64_t>(size, r.remaining()));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::uint64_t delta = r.varint();
    const std::uint64_t v = i == 0 ? delta : prev + delta;
    if (r.failed() || v > std::numeric_limits<std::uint32_t>::max() ||
        (i != 0 && delta == 0))
      return false;
    hosts.push_back(static_cast<std::uint32_t>(v));
    prev = v;
  }
  return r.at_end();
}

// Decode the rows `rows` names into out[0, rows.size()), column by
// column. AllRows checks every column to its end; a posting list's
// rows read the id column up to the last named row (ids are delta
// coded) and skip to each named row in every other column. The checks
// on each value read are the same either way.
template <typename Rows>
bool decode_rows(const Payload& p, const Rows& rows, StoredFlow* out) {
  const Sections& sec = p.sections;
  const std::uint32_t n = p.zone.flow_count;
  const std::uint32_t k_rows = rows.size();
  const auto done = [](const SectionReader& r) {
    return !r.failed() && (!Rows::kAll || r.at_end());
  };

  // Flow ids: absolute first, zigzag deltas after.
  {
    SectionReader r(sec[kIds]);
    const std::uint32_t end = k_rows == 0 ? 0 : rows.at(k_rows - 1) + 1;
    std::uint64_t id = 0;
    std::uint32_t k = 0;
    for (std::uint32_t i = 0; i < end; ++i) {
      const std::uint64_t raw = r.varint();
      id = i == 0 ? raw : id + static_cast<std::uint64_t>(unzigzag(raw));
      if (Rows::kAll || i == rows.at(k)) out[k++].id = id;
    }
    if (!done(r)) return false;
  }

  const auto column = [&](Section s, auto&& put) {
    SectionReader r(sec[s]);
    return read_varints(r, rows, put);
  };
  const auto u64_field = [&](Section s,
                             std::uint64_t capture::FlowRecord::*field) {
    return column(s, [&](std::uint32_t k, std::uint64_t v) {
      out[k].flow.*field = v;
      return true;
    });
  };
  const auto u32_field = [&](Section s,
                             std::uint32_t capture::FlowRecord::*field) {
    return column(s, [&](std::uint32_t k, std::uint64_t v) {
      out[k].flow.*field = static_cast<std::uint32_t>(v);
      return v <= 0xFFFFFFFFULL;
    });
  };

  // Timestamps: first_ts from the zone minimum, last_ts as a zigzag
  // duration after first_ts.
  const auto min_ts = static_cast<std::uint64_t>(p.zone.min_ts.nanos());
  if (!column(kFirstTs, [&](std::uint32_t k, std::uint64_t v) {
        out[k].flow.first_ts =
            Timestamp::from_nanos(static_cast<std::int64_t>(min_ts + v));
        return true;
      }) ||
      !column(kDuration, [&](std::uint32_t k, std::uint64_t v) {
        out[k].flow.last_ts = Timestamp::from_nanos(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(out[k].flow.first_ts.nanos()) +
            static_cast<std::uint64_t>(unzigzag(v))));
        return true;
      }))
    return false;

  // Hosts: dictionary indexes into the sorted address dictionary.
  std::vector<std::uint32_t> hosts;
  if (!read_host_dict(sec[kHostDict], n, hosts)) return false;
  const auto host_field = [&](Section s,
                              packet::Ipv4Address packet::FiveTuple::*field) {
    return column(s, [&](std::uint32_t k, std::uint64_t idx) {
      if (idx >= hosts.size()) return false;
      out[k].flow.tuple.*field = packet::Ipv4Address(hosts[idx]);
      return true;
    });
  };
  const auto port_field = [&](Section s,
                              std::uint16_t packet::FiveTuple::*field) {
    return column(s, [&](std::uint32_t k, std::uint64_t v) {
      out[k].flow.tuple.*field = static_cast<std::uint16_t>(v);
      return v <= 0xFFFF;
    });
  };
  if (!host_field(kSrcHost, &packet::FiveTuple::src) ||
      !host_field(kDstHost, &packet::FiveTuple::dst) ||
      !port_field(kSrcPort, &packet::FiveTuple::src_port) ||
      !port_field(kDstPort, &packet::FiveTuple::dst_port))
    return false;

  // Protocols: a dictionary of at most 256 bytes, then one index per row.
  {
    SectionReader r(sec[kProto]);
    const std::uint64_t count = r.varint_at_most(256);
    const auto dict = r.bytes(count);
    if (r.failed() ||
        !read_varints(r, rows, [&](std::uint32_t k, std::uint64_t idx) {
          if (idx >= dict.size()) return false;
          out[k].flow.tuple.proto = dict[idx];
          return true;
        }))
      return false;
  }

  // Direction and saw_dns bitsets, one bit per row.
  const std::size_t bitset_bytes = (std::size_t{n} + 7) / 8;
  const auto dir_bits = sec[kDirection];
  const auto dns_bits = sec[kSawDns];
  if (dir_bits.size() != bitset_bytes || dns_bits.size() != bitset_bytes)
    return false;
  for (std::uint32_t k = 0; k < k_rows; ++k) {
    const std::uint32_t i = rows.at(k);
    out[k].flow.initial_direction = (dir_bits[i / 8] >> (i % 8)) & 1
                                        ? sim::Direction::kOutbound
                                        : sim::Direction::kInbound;
    out[k].flow.saw_dns = ((dns_bits[i / 8] >> (i % 8)) & 1) != 0;
  }

  using capture::FlowRecord;
  if (!u64_field(kPackets, &FlowRecord::packets) ||
      !u64_field(kBytes, &FlowRecord::bytes) ||
      !u64_field(kPayloadBytes, &FlowRecord::payload_bytes) ||
      !u64_field(kFwdPackets, &FlowRecord::fwd_packets) ||
      !u64_field(kRevPackets, &FlowRecord::rev_packets) ||
      !u32_field(kSynCount, &FlowRecord::syn_count) ||
      !u32_field(kSynackCount, &FlowRecord::synack_count) ||
      !u32_field(kFinCount, &FlowRecord::fin_count) ||
      !u32_field(kRstCount, &FlowRecord::rst_count) ||
      !u32_field(kPshCount, &FlowRecord::psh_count))
    return false;

  // Label packets: a presence mask, then one varint per set bit. A row
  // a posting list skips is stepped over by its mask.
  {
    SectionReader r(sec[kLabels]);
    std::uint32_t next = 0;
    for (std::uint32_t k = 0; k < k_rows; ++k) {
      if constexpr (!Rows::kAll) r.skip_label_rows(rows.at(k) - next);
      const std::uint8_t mask = r.byte();
      if (r.failed() || (mask >> packet::kTrafficLabelCount) != 0)
        return false;
      for (std::size_t l = 0; l < packet::kTrafficLabelCount; ++l)
        if ((mask >> l) & 1) out[k].flow.label_packets[l] = r.varint();
      next = rows.at(k) + 1;
    }
    if (!done(r)) return false;
  }

  return u32_field(kScenarioId, &FlowRecord::scenario_id);
}

// A keyed index section straight into the flat arrays: keys strictly
// ascending and within their bound, offsets strictly ascending and
// below n — exactly what PostingIndex::find() relies on. `rows` is
// reserved once: a valid file lists at most 2n postings, and each
// takes at least one payload byte.
template <typename Key>
bool read_keyed_index(std::span<const std::uint8_t> section,
                      std::uint32_t n, PostingIndex<Key>& index) {
  SectionReader r(section);
  const std::uint64_t max_keys = std::uint64_t{n} * 2;
  const std::uint64_t keys = r.varint_at_most(max_keys);
  if (r.failed()) return false;
  const auto key_cap = std::min<std::uint64_t>(keys, r.remaining());
  index.keys.reserve(key_cap);
  index.starts.reserve(key_cap + 1);
  index.rows.reserve(std::min<std::uint64_t>(max_keys, r.remaining()));
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t delta = r.varint();
    const std::uint64_t key = i == 0 ? delta : prev_key + delta;
    if (r.failed() || key > std::numeric_limits<Key>::max() ||
        (i != 0 && key <= prev_key))
      return false;
    prev_key = key;
    index.keys.push_back(static_cast<Key>(key));
    index.starts.push_back(static_cast<std::uint32_t>(index.rows.size()));
    if (!append_offsets(r, n, index.rows) ||
        index.rows.size() > std::numeric_limits<std::uint32_t>::max())
      return false;
  }
  index.starts.push_back(static_cast<std::uint32_t>(index.rows.size()));
  return r.at_end();
}

// `key`'s posting list in a keyed index section, appended to `out`:
// walk the keys, stepping over each earlier key's list by its length,
// and stop at the first key not below `key` (an absent key appends
// nothing). What the walk reads is checked as read_keyed_index checks
// it; the lists it steps over are bounds-checked only.
template <typename Key>
bool find_posting(std::span<const std::uint8_t> section, std::uint32_t n,
                  std::uint64_t key, std::vector<std::uint32_t>& out) {
  SectionReader r(section);
  const std::uint64_t keys = r.varint_at_most(std::uint64_t{n} * 2);
  std::uint64_t prev_key = 0;
  for (std::uint64_t i = 0; i < keys && !r.failed(); ++i) {
    const std::uint64_t delta = r.varint();
    const std::uint64_t at = i == 0 ? delta : prev_key + delta;
    if (r.failed() || at > std::numeric_limits<Key>::max() ||
        (i != 0 && at <= prev_key))
      return false;
    if (at == key) return append_offsets(r, n, out);
    if (at > key) return true;
    r.skip_varints(r.varint_at_most(n));
    prev_key = at;
  }
  return !r.failed();
}

// The label index: one posting list per label, in label order.
bool read_label_index(
    std::span<const std::uint8_t> section, std::uint32_t n,
    std::array<std::vector<std::uint32_t>, packet::kTrafficLabelCount>&
        by_label) {
  SectionReader r(section);
  for (auto& posting : by_label)
    if (!append_offsets(r, n, posting)) return false;
  return r.at_end();
}

bool find_label_posting(std::span<const std::uint8_t> section,
                        std::uint32_t n, std::uint64_t label,
                        std::vector<std::uint32_t>& out) {
  if (label >= packet::kTrafficLabelCount) return true;  // no such label
  SectionReader r(section);
  for (std::uint64_t l = 0; l < label && !r.failed(); ++l)
    r.skip_varints(r.varint_at_most(n));
  return !r.failed() && append_offsets(r, n, out);
}

// The flows of a decoded segment: rows [0, count) of a new Segment.
std::shared_ptr<Segment> new_segment(std::uint32_t count) {
  auto segment = std::make_shared<Segment>(count);
  segment->flows.resize(count);  // within the reserved capacity
  return segment;
}

std::shared_ptr<Segment> sealed(std::shared_ptr<Segment> segment,
                                const SegmentZoneMap& zone) {
  segment->sealed = true;
  if (zone.flow_count > 0) {
    segment->min_ts = zone.min_ts;
    segment->max_ts = zone.max_ts;
  }
  return segment;
}

// Every row; the index sections too when `indexed`.
Result<std::shared_ptr<Segment>> decode_all_rows(const Payload& p,
                                                 bool indexed) {
  const std::uint32_t n = p.zone.flow_count;
  // Every row takes at least one byte of the id column, so a count the
  // payload cannot hold fails before it allocates.
  if (n > p.sections[kIds].size()) return corrupt();
  auto segment = new_segment(n);
  if (!decode_rows(p, AllRows{n}, segment->flows.data())) return corrupt();
  if (indexed) {
    if (!read_keyed_index(p.sections[kHostIndex], n, segment->by_host) ||
        !read_keyed_index(p.sections[kPortIndex], n, segment->by_port) ||
        !read_label_index(p.sections[kLabelIndex], n, segment->by_label))
      return corrupt();
  } else {
    segment->projection.kind = SegmentProjection::Kind::kRows;
  }
  return sealed(std::move(segment), p.zone);
}

// Index `count` held rows, in order, under `key` alone.
template <typename Key>
void index_one_key(PostingIndex<Key>& index, std::uint64_t key,
                   std::uint32_t count) {
  if (count == 0) return;
  index.keys = {static_cast<Key>(key)};
  index.starts = {0, count};
  index.rows.resize(count);
  std::iota(index.rows.begin(), index.rows.end(), 0u);
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

// Map `path`, decode it with `decode`, and count the load: a
// store.cold_loads tick and a store_load_ns sample, or a
// store.cold_load_failures tick.
template <typename Decode>
Result<std::shared_ptr<const Segment>> timed_load(const std::string& path,
                                                  Decode&& decode) {
  auto& metrics = TierMetrics::get();
  const auto t0 = obs::monotonic_ns();
  auto mapped = MappedFile::open(path);
  auto loaded = mapped.ok() ? decode(mapped.value().bytes())
                            : Result<std::shared_ptr<Segment>>(
                                  mapped.error());
  if (!loaded.ok()) {
    metrics.cold_load_failures.increment();
    return loaded.error();
  }
  metrics.cold_loads.increment();
  metrics.load_ns.observe(obs::monotonic_ns() - t0);
  return std::shared_ptr<const Segment>(std::move(loaded).value());
}

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

  // Each section's end offset, in file order; the directory is built
  // from them.
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

  // Flow ids: absolute first, zigzag deltas after (ingest assigns them
  // ascending, so deltas are tiny — but the codec never assumes it).
  for (std::size_t i = 0; i < flows.size(); ++i)
    put_varint(payload, i == 0 ? flows[i].id
                               : zigzag(static_cast<std::int64_t>(
                                     flows[i].id - flows[i - 1].id)));
  end_section();
  column("flow_id", static_cast<std::uint64_t>(n) * 8);

  // Timestamps: first_ts as offset from the zone minimum (always
  // non-negative), last_ts as zigzag duration from first_ts.
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
  end_section();
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
  end_section();
  column("labels", static_cast<std::uint64_t>(n) * 40);

  // Scenario instance ids: background flows carry 0, so the column is
  // one byte per flow outside attack windows.
  u64_column([](const capture::FlowRecord& f) { return f.scenario_id; });
  column("scenario_id", static_cast<std::uint64_t>(n) * 4);

  // Inverted indexes, as seal() built them: keys ascending, each
  // followed by its ascending offsets (the golden fixture pins the
  // encoding bit-for-bit).
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
  header.u32(0);  // flags, reserved
  header.u64(payload.size());
  header.u64(checksum64(payload.view()));
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
  std::uint64_t entries =
      segment.by_host.rows.size() + segment.by_port.rows.size();
  for (const auto& offsets : segment.by_label) entries += offsets.size();
  return segment.flows.capacity() * sizeof(StoredFlow) +
         entries * sizeof(std::uint32_t) +
         (segment.by_host.size() + segment.by_port.size()) *
             kHotBytesPerIndexKey;
}

// ------------------------------------------------------------- decode

Result<SegmentZoneMap> decode_zone_map(std::span<const std::uint8_t> file) {
  auto header = parse_header(file);
  if (!header.ok()) return header.error();
  return header.value().zone;
}

// The checksum gate means the checks below "cannot" fail on a file we
// wrote; every check still runs so decode stays total on inputs that
// collide, come from a newer writer, or were crafted.
Result<std::shared_ptr<Segment>> decode_segment(
    std::span<const std::uint8_t> file) {
  auto payload = open_payload(file);
  if (!payload.ok()) return payload.error();
  return decode_all_rows(payload.value(), /*indexed=*/true);
}

Result<std::shared_ptr<Segment>> decode_projection(
    std::span<const std::uint8_t> file, IndexKind plan, std::uint64_t key) {
  auto opened = open_payload(file);
  if (!opened.ok()) return opened.error();
  const Payload& p = opened.value();
  if (plan == IndexKind::kTimeScan)
    return decode_all_rows(p, /*indexed=*/false);

  const std::uint32_t n = p.zone.flow_count;
  std::vector<std::uint32_t> rows;
  bool ok = false;
  switch (plan) {
    case IndexKind::kHost:
      ok = find_posting<std::uint32_t>(p.sections[kHostIndex], n, key, rows);
      break;
    case IndexKind::kPort:
      ok = find_posting<std::uint16_t>(p.sections[kPortIndex], n, key, rows);
      break;
    case IndexKind::kLabel:
      ok = find_label_posting(p.sections[kLabelIndex], n, key, rows);
      break;
    case IndexKind::kTimeScan:
      break;
  }
  if (!ok) return corrupt();
  const auto count = static_cast<std::uint32_t>(rows.size());
  auto segment = new_segment(count);
  if (!decode_rows(p, PostingRows{rows}, segment->flows.data()))
    return corrupt();
  switch (plan) {
    case IndexKind::kHost: index_one_key(segment->by_host, key, count); break;
    case IndexKind::kPort: index_one_key(segment->by_port, key, count); break;
    case IndexKind::kLabel:
      if (count > 0) {
        auto& posting = segment->by_label[key];
        posting.resize(count);
        std::iota(posting.begin(), posting.end(), 0u);
      }
      break;
    case IndexKind::kTimeScan: break;
  }
  segment->projection = {SegmentProjection::Kind::kKey, plan, key};
  return sealed(std::move(segment), p.zone);
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
  if (auto live = whole_.lock()) return live;
  auto loaded = timed_load(path_, [](std::span<const std::uint8_t> file) {
    return decode_segment(file);
  });
  if (loaded.ok()) whole_ = loaded.value();
  return loaded;
}

Result<std::shared_ptr<const Segment>> ColdSegmentHandle::load(
    IndexKind plan, std::uint64_t key) const {
  const auto project = [plan, key](std::span<const std::uint8_t> file) {
    return decode_projection(file, plan, key);
  };
  std::unique_lock<std::mutex> lock(mu_);
  if (auto live = whole_.lock()) return live;
  if (plan != IndexKind::kTimeScan) {
    lock.unlock();  // private to this caller: nothing to share or wait on
    return timed_load(path_, project);
  }
  if (auto live = rows_.lock()) return live;
  auto loaded = timed_load(path_, project);
  if (loaded.ok()) rows_ = loaded.value();
  return loaded;
}

}  // namespace campuslab::store
