// Snapshot isolation for the data store.
//
// Segments are the store's time-partitioned units. A segment mutates
// only while it is the open tail — appended to by the single ingest
// writer under the store mutex — and is immutable forever once sealed.
// Queries never hold the store lock for the duration of a scan: they
// *pin* a StoreSnapshot (one shared_ptr per segment plus the flow
// count committed at pin time) and then scan lock-free. Retention
// merely drops the store's own references; a pinned snapshot keeps
// evicted segments alive until the last QueryResult or cursor holding
// them is destroyed, which is what makes "retention fired while I was
// iterating my results" impossible by construction.
//
// Why the pinned prefix of an *open* segment is safe to read without
// locks: `flows` is reserved to full capacity at construction and the
// segment seals exactly when it reaches that capacity, so the backing
// array never reallocates and element addresses are stable for the
// segment's lifetime. Elements [0, PinnedSegment::count) were written
// before the pin was taken under the store mutex (mutex ordering makes
// them visible); the writer only ever touches elements >= count and
// the vector's own bookkeeping, which pinned readers never look at —
// readers go through `flows.data()`, never `size()` or iterators.
// The inverted indexes exist only once a segment is sealed: seal()
// builds them under the store mutex before setting `sealed`, and a
// reader consults them only when the segment was sealed at pin time.
//
// A cold pin's parked Segment is the exception to [0, count): a key
// projection holds only the rows its posting list names, often far
// fewer than `count`. So a pinned segment is read only through the
// query engine's per-segment scan (scan_segment in query_engine.cpp),
// which reads the file again when the parked copy's `projection` does
// not serve the scan's plan.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "campuslab/store/query.h"

namespace campuslab::store {

/// A sealed segment's inverted index on one key column, as three flat
/// arrays: `keys` strictly ascending, and key i's rows (offsets into
/// the segment's `flows`, strictly ascending) are
/// rows[starts[i], starts[i+1]). `starts` has keys.size() + 1 entries
/// once built. Segment::seal() builds it from the rows; decode_segment
/// reads it straight out of a CLSEG02 index section, which stores the
/// same keys and rows in the same order.
template <typename Key>
struct PostingIndex {
  using key_type = Key;

  std::vector<Key> keys;
  std::vector<std::uint32_t> starts;
  std::vector<std::uint32_t> rows;

  std::size_t size() const noexcept { return keys.size(); }

  /// Rows of the i-th key, i < size().
  std::span<const std::uint32_t> postings(std::size_t i) const noexcept {
    return {rows.data() + starts[i], rows.data() + starts[i + 1]};
  }

  /// Rows holding `key`; empty when the key is absent.
  std::span<const std::uint32_t> find(Key key) const noexcept {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return {};
    return postings(static_cast<std::size_t>(it - keys.begin()));
  }
};

/// How much of its spilled file a decoded Segment holds. A hot segment
/// and a whole-file decode hold every row and every index (kWhole) and
/// serve every plan. A time-scan read holds every row and no index
/// (kRows) and serves time scans only. An index read holds the rows
/// one key's posting list names, in posting order, indexed under that
/// key alone (kKey); it serves that plan and key only.
struct SegmentProjection {
  enum class Kind : std::uint8_t { kWhole, kRows, kKey };
  Kind kind = Kind::kWhole;
  IndexKind plan = IndexKind::kTimeScan;  // kKey: the index it read
  std::uint64_t key = 0;                  // kKey: the key it looked up

  /// Whether a scan with `want` (and, for an index plan, `want_key`)
  /// finds here every row it would find in the whole segment.
  bool serves(IndexKind want, std::uint64_t want_key) const noexcept {
    switch (kind) {
      case Kind::kWhole: return true;
      case Kind::kRows: return want == IndexKind::kTimeScan;
      case Kind::kKey: return want == plan && want_key == key;
    }
    return false;
  }
};

/// One time-partitioned storage unit.
struct Segment {
  explicit Segment(std::size_t capacity) {
    flows.reserve(capacity);
    min_ts = Timestamp::from_nanos(std::numeric_limits<std::int64_t>::max());
    max_ts = Timestamp::from_nanos(std::numeric_limits<std::int64_t>::min());
  }

  /// Build the inverted indexes from `flows`, then mark the segment
  /// sealed. Each row is listed under its host, port and label keys by
  /// the aggregation key rule (for_each_group_key in aggregate.h), so
  /// an index lookup finds exactly the rows a group-by credits. Called
  /// once: the store calls it under its mutex when the segment fills.
  void seal();

  std::vector<StoredFlow> flows;  // append-only; never reallocates
  bool sealed = false;
  Timestamp min_ts;  // min first_ts / max last_ts — stable once sealed
  Timestamp max_ts;
  // Local inverted indexes, empty until seal().
  PostingIndex<std::uint32_t> by_host;
  PostingIndex<std::uint16_t> by_port;
  std::array<std::vector<std::uint32_t>, packet::kTrafficLabelCount>
      by_label;
  // What a cold read kept of its file; kWhole for every hot segment.
  SegmentProjection projection;
};

class ColdSegmentHandle;  // segment_file.h — the spilled-tier reference

/// A segment as one snapshot sees it: the ownership pin, how many
/// flows were committed when the snapshot was taken, and whether the
/// inverted indexes may be consulted (segment sealed at pin time).
///
/// Tiering: a spilled segment pins its ColdSegmentHandle instead of a
/// Segment — `segment` starts null and `cold` carries the zone map.
/// The query engine prunes on the zone map and, only if the file may
/// contain matches, reads the part of it the query's plan needs and
/// parks that Segment in `segment`, so rows produced from a cold
/// segment are owned by the snapshot exactly like hot rows. Both tiers
/// scan identically from there on. A later scan of the same pin with a
/// plan the parked Segment does not serve (its `projection`) reads the
/// file again. `count` stays the file's flow count, even when the
/// parked Segment is a key projection with fewer rows.
struct PinnedSegment {
  std::shared_ptr<const Segment> segment;
  std::uint32_t count = 0;
  bool indexed = false;
  std::shared_ptr<const ColdSegmentHandle> cold;
};

/// A consistent, immutable view of the store at one instant. Cheap to
/// copy (shared_ptr per segment); destroying the last copy releases
/// any segments retention has since evicted.
class StoreSnapshot {
 public:
  StoreSnapshot() = default;
  explicit StoreSnapshot(std::vector<PinnedSegment> segments)
      : segments_(std::move(segments)) {}

  const std::vector<PinnedSegment>& segments() const noexcept {
    return segments_;
  }

  /// Mutable pins, for the query engine only: resolving a cold segment
  /// stores the loaded shared_ptr back into its pin so the snapshot
  /// (and any result holding it) owns what it scanned.
  std::vector<PinnedSegment>& segments_mut() noexcept { return segments_; }

  std::uint64_t flow_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& pin : segments_) n += pin.count;
    return n;
  }

  bool empty() const noexcept { return flow_count() == 0; }

 private:
  std::vector<PinnedSegment> segments_;
};

}  // namespace campuslab::store
