// SegmentFile — the columnar on-disk form of a sealed store segment.
//
// Sealed segments are immutable and address-stable, which makes them
// the store's spill unit: serialize once, drop the RAM copy, map the
// file back on demand. The format is column-oriented so each field
// compresses with the encoding that fits it — delta/varint timestamps
// and ids, a shared dictionary for host addresses, a dictionary for
// protocols, bit-packed flags — and the per-segment inverted indexes
// (host / port / label) are serialized alongside the columns so a
// reloaded segment answers index queries identically to the hot
// original, without re-indexing.
//
// File layout, CLSEG02 (all integers big-endian; varints are LEB128):
//
//   +----------------------------------------------------------+
//   | magic "CLSEG02\n" (8)  version u32  flags u32            |
//   | payload_size u64       payload_sum u64 (checksum64)      |
//   | zone map: flow_count u32, min_ts i64, max_ts i64,        |
//   |   id_lo u64, id_hi u64, packets u64, bytes u64,          |
//   |   label_flows[kTrafficLabelCount] u64                    |
//   | directory: kSegmentSections x (offset u64, length u64)   |
//   | header_fnv1a u64                                         |
//   +----------------------------------------------------------+
//   | payload: 23 columns, then the host, port and label index |
//   |   sections, in directory order (see segment_file.cpp)    |
//   +----------------------------------------------------------+
//
// The zone map lives in the header, under its own checksum, so query
// planning can prune a whole file on [min_ts, max_ts] — and retention
// and the catalog can account for it — without touching the payload.
// The directory, under the same checksum, gives the byte range of
// every column and index section; the sections tile the payload in
// order. Each column keeps its CLSEG01 encoding, so the directory is
// all that CLSEG02 adds to a file. It lets a read take only what its
// query plan needs (decode_projection): a time scan decodes every row
// and no index section; a host, port or label lookup decodes its own
// index section, then walks each column only as far as the last row
// its key's posting list names. One word-at-a-time checksum64 covers
// the whole payload and is checked on every read, whatever the read
// decodes, so a damaged byte fails every load of its file; the header
// keeps FNV-1a.
//
// Robustness contract: decoding is total. A truncated, bit-flipped, or
// otherwise corrupt file yields a clean util::Result error with a
// stable code ("segment_magic", "segment_version", "segment_truncated",
// "segment_checksum", "segment_corrupt", "io") — never a crash, an
// out-of-bounds read, or silently wrong rows. A projection validates
// what it reads: behind valid checksums (a crafted file), one that
// never reaches a malformed column or index section may succeed where
// the whole decode fails. The framed-format corruption harness
// (framed_corruption_test) pins all of this under ASAN.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "campuslab/store/snapshot.h"
#include "campuslab/util/result.h"

namespace campuslab::store {

/// Per-file summary statistics, readable without decoding the payload.
/// min_ts/max_ts bound [first_ts, last_ts] over every stored flow, so
/// a time predicate that misses [min_ts, max_ts] skips the whole file.
struct SegmentZoneMap {
  std::uint32_t flow_count = 0;
  Timestamp min_ts;  // min first_ts; epoch when the segment is empty
  Timestamp max_ts;  // max last_ts; epoch when the segment is empty
  std::uint64_t id_lo = 0;  // first / last stored flow id (0 when empty)
  std::uint64_t id_hi = 0;
  std::uint64_t packets = 0;  // totals, for catalog() without I/O
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, packet::kTrafficLabelCount> label_flows{};
};

/// One row of the per-column compression report.
struct ColumnBytes {
  std::string name;
  std::uint64_t file_bytes = 0;    // encoded size on disk
  std::uint64_t memory_bytes = 0;  // what the column occupies hot
};

/// What one serialization produced: sizes for accounting and the
/// per-column breakdown the T-STORE bench prints.
struct SegmentFileInfo {
  std::uint64_t file_bytes = 0;     // header + payload
  std::uint64_t payload_bytes = 0;
  std::uint64_t memory_bytes = 0;   // estimated hot-tier footprint
  SegmentZoneMap zone;
  std::vector<ColumnBytes> columns;
};

// v2 added the per-flow scenario_id column (after the label column) and
// widened the label space to kTrafficLabelCount = 7 (worm,
// exfiltration). v3 is CLSEG02: the section directory, the payload's
// checksum64 and no leading flow count (the zone map carries it).
inline constexpr std::uint32_t kSegmentFileVersion = 3;
/// Payload sections the directory lists: 23 columns, 3 index sections.
inline constexpr std::size_t kSegmentSections = 26;
inline constexpr std::size_t kSegmentFileHeaderBytes =
    8 + 4 + 4 + 8 + 8 +                                    // magic..checksum
    4 + 8 + 8 + 8 + 8 + 8 + 8 +                            // zone scalars
    8 * packet::kTrafficLabelCount +                       // zone labels
    16 * kSegmentSections +                                // directory
    8;                                                     // header fnv

/// Serialize a sealed segment to a byte buffer; the index sections
/// hold the index seal() built (an unsealed segment has none).
/// Deterministic: the same segment always encodes to the same bytes,
/// which is what the golden-format fixture pins. The host dictionary,
/// the protocol dictionary and the zone map come from the rows, never
/// from the indexes, which a decoded file need not make agree with
/// them.
///
/// One key pass reads each row's hosts, protocol and first_ts; one
/// radix sort of (host, slot) pairs, shared with Segment::seal(), gives
/// the host dictionary and every row's two ordinals in it. One row pass
/// then writes each row's values into every column, each column into
/// its own buffer sized from the column's worst case. The sections are
/// copied into one file buffer and the payload is summed where it sits,
/// before the header is written in front of it.
std::vector<std::uint8_t> encode_segment(const Segment& segment,
                                         SegmentFileInfo* info = nullptr);

/// Estimated hot-tier footprint of a segment: the flow array at its
/// reserved capacity, 4 B per index posting, and 48 B per host or port
/// key. The 48 B is the hot budget's per-key charge, more than the flat
/// index really costs; it is kept so that which segments stay hot does
/// not change. This is the quantity the hot-bytes budget meters; an
/// unsealed segment has no index and is charged for its flow array.
std::uint64_t segment_memory_bytes(const Segment& segment) noexcept;

/// Decode a full file image back into a Segment. The result is sealed,
/// indexed, and bit-identical (flows, ids, indexes, time bounds) to
/// the segment that was encoded. The index sections are read straight
/// into the flat PostingIndex arrays, with no allocation per key.
Result<std::shared_ptr<Segment>> decode_segment(
    std::span<const std::uint8_t> file);

/// Decode only what a query with `plan` reads of a file image (see
/// SegmentProjection). kTimeScan: every row, no index section. An index
/// plan: its own index section, then only the rows `key`'s posting
/// list names, in posting order, indexed under `key` alone; an absent
/// key gives no rows. `key` is the host address value, the port or the
/// label's index. The header and both checksums are checked as
/// decode_segment checks them, with the same error codes.
Result<std::shared_ptr<Segment>> decode_projection(
    std::span<const std::uint8_t> file, IndexKind plan, std::uint64_t key);

/// Parse and validate only the header; no payload I/O beyond its span.
Result<SegmentZoneMap> decode_zone_map(std::span<const std::uint8_t> file);

/// Atomically (write-then-rename) persist `segment` to `path`.
Result<SegmentFileInfo> write_segment_file(const Segment& segment,
                                           const std::string& path);

/// Map `path` and decode it. Errors: "io" for filesystem trouble, the
/// decode_segment codes for format trouble.
Result<std::shared_ptr<Segment>> read_segment_file(const std::string& path);

/// Zone map of `path` without decoding the payload.
Result<SegmentZoneMap> read_zone_map(const std::string& path);

/// Read-only mmap of a whole file (falls back to a buffered read where
/// mmap is unavailable). The view stays valid for the object's life.
class MappedFile {
 public:
  static Result<MappedFile> open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  MappedFile() = default;
  void reset() noexcept;  // unmap / release, back to the empty state

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                // true: munmap; false: fallback_
  std::vector<std::uint8_t> fallback_; // owns bytes when not mmap-backed
};

/// The store's reference to a spilled segment: the file path, the zone
/// map for pruning and accounting, and demand loads.
///
/// load(plan, key) decodes what one query plan reads of the file
/// (decode_projection) and hands it back as a shared_ptr. The handle
/// keeps one weak reference, to a live time-scan decode, which every
/// concurrent time scan shares; its memory is released as soon as the
/// last snapshot pinning it lets go. A key projection stays private to
/// its caller. That is the out-of-core property: resident cold bytes
/// are bounded by what queries are actively scanning, not by what the
/// store retains. A whole, indexed decode of the file is
/// read_segment_file's. Each decode counts once in store.cold_loads
/// and store_load_ns (a failed one in store.cold_load_failures);
/// joining a live decode counts nothing.
class ColdSegmentHandle {
 public:
  /// `owns_file` = unlink the file when the last reference drops. The
  /// store passes true: retention then merely releases its reference,
  /// and the file outlives it exactly as long as some snapshot still
  /// pins the handle — snapshot isolation extends to the disk tier.
  ColdSegmentHandle(std::string path, SegmentZoneMap zone,
                    std::uint64_t file_bytes, bool owns_file = false)
      : path_(std::move(path)), zone_(zone), file_bytes_(file_bytes),
        owns_file_(owns_file) {}
  ~ColdSegmentHandle();

  ColdSegmentHandle(const ColdSegmentHandle&) = delete;
  ColdSegmentHandle& operator=(const ColdSegmentHandle&) = delete;

  const std::string& path() const noexcept { return path_; }
  const SegmentZoneMap& zone() const noexcept { return zone_; }
  std::uint64_t file_bytes() const noexcept { return file_bytes_; }

  /// What a query with `plan` and `key` reads of the file: for
  /// kTimeScan, a live time-scan decode or a new shared one; for an
  /// index plan, a private projection. Thread-safe. Errors as
  /// decode_projection's, or "io".
  Result<std::shared_ptr<const Segment>> load(IndexKind plan,
                                              std::uint64_t key) const;

 private:
  std::string path_;
  SegmentZoneMap zone_;
  std::uint64_t file_bytes_ = 0;
  bool owns_file_ = false;
  mutable std::mutex mu_;
  mutable std::weak_ptr<const Segment> rows_;  // a live time-scan load
};

}  // namespace campuslab::store
