// Owning query results and the streaming cursor.
//
// QueryResult replaces the old `std::vector<const StoredFlow*>` whose
// pointers were "valid until the next retention enforcement". A result
// owns the StoreSnapshot it was computed against, so every row stays
// valid — bit-for-bit — for the result's lifetime, no matter how much
// ingest or retention runs meanwhile. LogResult owns sanitized copies
// (log events are small and mutate in place, so copying beats
// pinning). QueryCursor is the non-materializing path: it pins the
// same snapshot but scans it one segment at a time, so a million-flow
// scan holds one segment's matching row pointers and at most one cold
// decode. A cold row from current() is therefore valid until the
// following call to next(), not for the cursor's lifetime.
#pragma once

#include <cstdint>
#include <vector>

#include "campuslab/store/snapshot.h"

namespace campuslab::store {

/// What the executor did for one query — planner choice and work
/// counters. segments_pinned is the snapshot size; segments_scanned
/// excludes segments pruned by time bounds or index misses;
/// index_hits is candidate rows produced by inverted indexes;
/// rows_scanned is rows evaluated against the full predicate.
struct QueryStats {
  IndexKind index = IndexKind::kTimeScan;
  std::size_t segments_pinned = 0;
  std::size_t segments_scanned = 0;
  std::size_t index_hits = 0;
  std::size_t rows_scanned = 0;
  std::size_t threads = 1;
  // Tiering: cold (spilled) segments this query loaded from disk,
  // pruned via the zone map without any I/O, or failed to load (a
  // corrupt/vanished file contributes zero rows, never UB — the
  // counter is how callers detect it).
  std::size_t cold_loaded = 0;
  std::size_t cold_pruned = 0;
  std::size_t cold_load_failures = 0;

  /// Add another scan's work counters (one segment's, one shard's);
  /// `index` and `threads` stay as they are.
  QueryStats& operator+=(const QueryStats& part) noexcept {
    segments_pinned += part.segments_pinned;
    segments_scanned += part.segments_scanned;
    index_hits += part.index_hits;
    rows_scanned += part.rows_scanned;
    cold_loaded += part.cold_loaded;
    cold_pruned += part.cold_pruned;
    cold_load_failures += part.cold_load_failures;
    return *this;
  }
};

/// Materialized flow-query result: iterable, indexable, and alive for
/// as long as you hold it (the snapshot pin travels with it).
class QueryResult {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = StoredFlow;
    using difference_type = std::ptrdiff_t;
    using pointer = const StoredFlow*;
    using reference = const StoredFlow&;

    const_iterator() = default;
    reference operator*() const noexcept { return **it_; }
    pointer operator->() const noexcept { return *it_; }
    const_iterator& operator++() noexcept {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator copy = *this;
      ++it_;
      return copy;
    }
    bool operator==(const const_iterator& o) const noexcept = default;

   private:
    friend class QueryResult;
    explicit const_iterator(
        std::vector<const StoredFlow*>::const_iterator it) noexcept
        : it_(it) {}
    std::vector<const StoredFlow*>::const_iterator it_;
  };

  QueryResult() = default;
  QueryResult(StoreSnapshot snapshot, std::vector<const StoredFlow*> rows,
              QueryStats stats)
      : snapshot_(std::move(snapshot)), rows_(std::move(rows)),
        stats_(stats) {}

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }
  const StoredFlow& operator[](std::size_t i) const noexcept {
    return *rows_[i];
  }
  const StoredFlow& front() const noexcept { return *rows_.front(); }
  const StoredFlow& back() const noexcept { return *rows_.back(); }
  const_iterator begin() const noexcept {
    return const_iterator(rows_.begin());
  }
  const_iterator end() const noexcept { return const_iterator(rows_.end()); }

  const QueryStats& stats() const noexcept { return stats_; }
  /// The pinned view this result was computed against (shareable with
  /// a cursor or a follow-up aggregation for read-your-own-snapshot).
  const StoreSnapshot& snapshot() const noexcept { return snapshot_; }

 private:
  StoreSnapshot snapshot_;
  std::vector<const StoredFlow*> rows_;
  QueryStats stats_;
};

/// Materialized log-query result (owning copies).
class LogResult {
 public:
  LogResult() = default;
  explicit LogResult(std::vector<LogEvent> events)
      : events_(std::move(events)) {}

  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  const LogEvent& operator[](std::size_t i) const noexcept {
    return events_[i];
  }
  const LogEvent& front() const noexcept { return events_.front(); }
  const LogEvent& back() const noexcept { return events_.back(); }
  std::vector<LogEvent>::const_iterator begin() const noexcept {
    return events_.begin();
  }
  std::vector<LogEvent>::const_iterator end() const noexcept {
    return events_.end();
  }

 private:
  std::vector<LogEvent> events_;
};

/// Streaming evaluation over a pinned snapshot: one row at a time, in
/// ingest order, without materializing the result set.
///
///   auto cur = store.open_cursor(std::move(q));
///   while (cur.next()) consume(cur.current());
///
/// The cursor is a serial query() run one segment at a time: it scans
/// the next pinned segment into a buffer of matching row pointers
/// (capped at the rows the limit still allows), yields from it, and
/// drops the previous segment's cold decode when it moves on. It
/// observes exactly what a materializing query() against the same
/// snapshot would return, including the planner's index choice and the
/// query limit.
class QueryCursor {
 public:
  QueryCursor(StoreSnapshot snapshot, FlowQuery query);

  /// Advance to the next matching row; false when exhausted (or the
  /// query limit is reached).
  bool next();

  /// The row next() stopped on. Valid until the next call to next(),
  /// which may release the cold segment it was read from.
  const StoredFlow& current() const noexcept { return *current_; }

  /// Matching rows produced so far.
  std::uint64_t produced() const noexcept { return produced_; }

  /// Work counters of the segments scanned so far (index choice fixed
  /// at construction).
  const QueryStats& stats() const noexcept { return stats_; }

 private:
  StoreSnapshot snapshot_;
  FlowQuery query_;
  QueryStats stats_;
  const StoredFlow* current_ = nullptr;
  std::size_t next_segment_ = 0;
  std::vector<const StoredFlow*> rows_;  // the scanned segment's matches
  std::size_t pos_ = 0;                  // next row of rows_ to yield
  std::uint64_t produced_ = 0;
};

}  // namespace campuslab::store
