#include "campuslab/store/query_engine.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>

#include "campuslab/store/segment_file.h"

namespace campuslab::store {

// ------------------------------------------------------------ ScanPool

ScanPool::ScanPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ScanPool::~ScanPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ScanPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (generation_ != seen && task_ != nullptr);
      });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    for (;;) {
      const std::size_t i =
          task->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= task->n) break;
      (*task->fn)(i);
      if (task->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          task->n) {
        std::lock_guard<std::mutex> lock(mu_);  // pair with the waiter
        done_cv_.notify_all();
      }
    }
  }
}

void ScanPool::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  // `fn` outlives the task: every index is claimed-then-completed
  // before the done-wait below returns, and late workers holding the
  // drained task see next >= n and never touch fn again.
  auto task = std::make_shared<Task>();
  task->fn = &fn;
  task->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = task;
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller is worker zero.
  for (;;) {
    const std::size_t i = task->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    fn(i);
    task->done.fetch_add(1, std::memory_order_acq_rel);
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return task->done.load(std::memory_order_acquire) == n;
  });
  task_ = nullptr;
}

// ------------------------------------------------- per-segment scanning

namespace {

// Per-segment tiering outcomes, merged into QueryStats afterwards.
struct ColdStats {
  std::size_t loaded = 0;
  std::size_t pruned = 0;
  std::size_t load_failures = 0;
};

// The rows an index lists for one pinned segment, viewed in place;
// nullopt = no index applies, scan the pinned prefix.
using Candidates = std::optional<std::span<const std::uint32_t>>;

// Resolve the access path for one pinned segment: false = the segment
// contributes nothing (time-pruned or index miss).
//
// Cold pins resolve here: the zone map prunes the whole file against
// the query's time bounds before any I/O; a surviving file is decoded
// (concurrent queries share one decode through the handle) and the
// loaded shared_ptr is parked in the pin, so the snapshot — and every
// result holding it — owns the rows it scanned. From that point a
// cold segment is scanned by exactly the code that scans a hot one,
// which is what makes results bit-identical across tiers. A load
// failure (corrupt or vanished file) contributes zero rows and a
// cold_load_failures tick, never UB.
bool open_segment_scan(PinnedSegment& pin, const FlowQuery& q,
                       IndexKind plan, Candidates& candidates,
                       ColdStats& cold) {
  candidates.reset();
  if (pin.count == 0) return false;
  if (pin.segment == nullptr) {
    if (pin.cold == nullptr) return false;
    const SegmentZoneMap& zone = pin.cold->zone();
    if ((q.from && zone.max_ts < *q.from) ||
        (q.to && zone.min_ts > *q.to)) {
      ++cold.pruned;
      return false;
    }
    auto loaded = pin.cold->load();
    if (!loaded.ok()) {
      ++cold.load_failures;
      return false;
    }
    pin.segment = std::move(loaded).value();
    ++cold.loaded;
  }
  const Segment& seg = *pin.segment;
  if (pin.indexed) {
    // min/max are stable only once sealed; the open tail is never
    // pruned (its rows still pass through the full predicate).
    if (q.from && seg.max_ts < *q.from) return false;
    if (q.to && seg.min_ts > *q.to) return false;
    switch (plan) {
      case IndexKind::kHost: {
        const auto addr = q.host ? *q.host : (q.src ? *q.src : *q.dst);
        candidates = seg.by_host.find(addr.value());
        if (candidates->empty()) return false;
        break;
      }
      case IndexKind::kLabel:
        candidates = seg.by_label[static_cast<std::size_t>(*q.label)];
        break;
      case IndexKind::kPort:
        candidates = seg.by_port.find(*q.port);
        if (candidates->empty()) return false;
        break;
      case IndexKind::kTimeScan:
        break;
    }
  }
  return true;
}

struct SegmentScan {
  std::vector<const StoredFlow*> rows;
  std::size_t index_hits = 0;
  std::size_t rows_scanned = 0;
  bool scanned = false;
  ColdStats cold;
};

void scan_segment(PinnedSegment& pin, const FlowQuery& q,
                  IndexKind plan, std::size_t limit, SegmentScan& out) {
  Candidates candidates;
  if (!open_segment_scan(pin, q, plan, candidates, out.cold)) return;
  out.scanned = true;
  // data() + pinned count, never size()/iterators: the open tail may
  // be appending concurrently (snapshot.h).
  const StoredFlow* flows = pin.segment->flows.data();
  if (candidates) {
    out.index_hits = candidates->size();
    for (const auto offset : *candidates) {
      const auto& stored = flows[offset];
      ++out.rows_scanned;
      if (q.matches(stored)) {
        out.rows.push_back(&stored);
        if (out.rows.size() >= limit) return;
      }
    }
  } else {
    for (std::uint32_t i = 0; i < pin.count; ++i) {
      const auto& stored = flows[i];
      ++out.rows_scanned;
      if (q.matches(stored)) {
        out.rows.push_back(&stored);
        if (out.rows.size() >= limit) return;
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------------ executor

QueryResult execute_query(StoreSnapshot snapshot, const FlowQuery& q,
                          ScanPool* pool) {
  const IndexKind plan = planned_index(q);
  // Mutable pins: cold resolution parks loaded segments in them, and
  // parallel tasks each touch a distinct element (race-free).
  auto& segs = snapshot.segments_mut();
  std::vector<SegmentScan> partial(segs.size());
  const bool parallel = pool != nullptr && pool->threads() > 1 &&
                        segs.size() > 1;
  if (parallel) {
    pool->parallel_for(segs.size(), [&](std::size_t i) {
      scan_segment(segs[i], q, plan, q.limit, partial[i]);
    });
  } else {
    // Serial keeps the cross-segment early exit: stop planning work
    // once the limit is already met.
    std::size_t have = 0;
    for (std::size_t i = 0; i < segs.size() && have < q.limit; ++i) {
      scan_segment(segs[i], q, plan, q.limit - have, partial[i]);
      have += partial[i].rows.size();
    }
  }

  QueryStats stats;
  stats.index = plan;
  stats.segments_pinned = segs.size();
  stats.threads = parallel ? pool->threads() : 1;
  std::size_t total = 0;
  for (const auto& part : partial) {
    stats.segments_scanned += part.scanned ? 1 : 0;
    stats.index_hits += part.index_hits;
    stats.rows_scanned += part.rows_scanned;
    stats.cold_loaded += part.cold.loaded;
    stats.cold_pruned += part.cold.pruned;
    stats.cold_load_failures += part.cold.load_failures;
    total += part.rows.size();
  }
  std::vector<const StoredFlow*> rows;
  rows.reserve(std::min(total, q.limit));
  // Merge in ingest order: segments are pinned oldest-first and each
  // per-segment row list is in ascending offset order already.
  for (const auto& part : partial) {
    for (const auto* row : part.rows) {
      if (rows.size() >= q.limit) break;
      rows.push_back(row);
    }
  }
  return QueryResult(std::move(snapshot), std::move(rows), stats);
}

AggregateResult execute_aggregate(StoreSnapshot snapshot,
                                  const FlowQuery& q, GroupBy group_by,
                                  std::size_t top_k, ScanPool* pool) {
  // Aggregation consumes every match; a row limit on the filter query
  // would make group totals depend on scan order, so it is ignored.
  FlowQuery filter = q;
  filter.limit = std::numeric_limits<std::size_t>::max();
  const IndexKind plan = planned_index(filter);
  auto& segs = snapshot.segments_mut();

  struct SegmentAgg {
    std::unordered_map<std::uint64_t, AggregateRow> groups;
    std::uint64_t matched = 0;
    std::size_t index_hits = 0;
    std::size_t rows_scanned = 0;
    bool scanned = false;
    ColdStats cold;
  };
  std::vector<SegmentAgg> partial(segs.size());

  auto aggregate_segment = [&](std::size_t idx) {
    PinnedSegment& pin = segs[idx];
    SegmentAgg& out = partial[idx];
    Candidates candidates;
    if (!open_segment_scan(pin, filter, plan, candidates, out.cold)) return;
    out.scanned = true;
    const StoredFlow* flows = pin.segment->flows.data();
    auto credit = [&out](std::uint64_t key, const capture::FlowRecord& f) {
      AggregateRow& row = out.groups[key];
      row.key = key;
      ++row.flows;
      row.packets += f.packets;
      row.bytes += f.bytes;
    };
    auto consume = [&](const StoredFlow& stored) {
      ++out.rows_scanned;
      if (!filter.matches(stored)) return;
      ++out.matched;
      const auto& f = stored.flow;
      switch (group_by) {
        case GroupBy::kHost:
          credit(f.tuple.src.value(), f);
          if (f.tuple.dst != f.tuple.src) credit(f.tuple.dst.value(), f);
          break;
        case GroupBy::kPort:
          credit(f.tuple.src_port, f);
          if (f.tuple.dst_port != f.tuple.src_port)
            credit(f.tuple.dst_port, f);
          break;
        case GroupBy::kLabel:
          credit(static_cast<std::uint64_t>(f.majority_label()), f);
          break;
      }
    };
    if (candidates) {
      out.index_hits = candidates->size();
      for (const auto offset : *candidates) consume(flows[offset]);
    } else {
      for (std::uint32_t i = 0; i < pin.count; ++i) consume(flows[i]);
    }
  };

  const bool parallel = pool != nullptr && pool->threads() > 1 &&
                        segs.size() > 1;
  if (parallel) {
    pool->parallel_for(segs.size(), aggregate_segment);
  } else {
    for (std::size_t i = 0; i < segs.size(); ++i) aggregate_segment(i);
  }

  AggregateResult result;
  result.group_by = group_by;
  result.stats.index = plan;
  result.stats.segments_pinned = segs.size();
  result.stats.threads = parallel ? pool->threads() : 1;
  std::unordered_map<std::uint64_t, AggregateRow> merged;
  for (const auto& part : partial) {
    result.stats.segments_scanned += part.scanned ? 1 : 0;
    result.stats.index_hits += part.index_hits;
    result.stats.rows_scanned += part.rows_scanned;
    result.stats.cold_loaded += part.cold.loaded;
    result.stats.cold_pruned += part.cold.pruned;
    result.stats.cold_load_failures += part.cold.load_failures;
    result.matched_flows += part.matched;
    for (const auto& [key, row] : part.groups) {
      AggregateRow& into = merged[key];
      into.key = key;
      into.flows += row.flows;
      into.packets += row.packets;
      into.bytes += row.bytes;
    }
  }
  result.rows.reserve(merged.size());
  for (const auto& [key, row] : merged) result.rows.push_back(row);
  const auto heavier = [](const AggregateRow& a, const AggregateRow& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    return a.key < b.key;
  };
  if (top_k > 0 && top_k < result.rows.size()) {
    std::partial_sort(result.rows.begin(),
                      result.rows.begin() + static_cast<std::ptrdiff_t>(top_k),
                      result.rows.end(), heavier);
    result.rows.resize(top_k);
  } else {
    std::sort(result.rows.begin(), result.rows.end(), heavier);
  }
  return result;
}

// ---------------------------------------------------------- scan_chunk

std::vector<StoredFlow> scan_chunk(StoreSnapshot snapshot, const FlowQuery& q,
                                   std::uint64_t after_id,
                                   std::size_t max_rows, QueryStats* stats,
                                   bool* exhausted) {
  FlowQuery filter = q;
  filter.limit = std::numeric_limits<std::size_t>::max();
  const IndexKind plan = planned_index(filter);
  auto& segs = snapshot.segments_mut();
  QueryStats st;
  st.index = plan;
  st.segments_pinned = segs.size();
  st.threads = 1;
  std::vector<StoredFlow> rows;
  bool done = true;
  ColdStats cold;
  if (max_rows == 0) {
    done = false;  // a zero-row pull proves nothing about the tail
  } else {
    for (std::size_t si = 0; si < segs.size(); ++si) {
      PinnedSegment& pin = segs[si];
      if (pin.count == 0) continue;
      if (after_id != 0) {
        // Segments are consumed in ascending-id order, so a segment
        // whose last id is at or below the resume token was fully
        // drained by earlier pulls — skip it, cold ones without I/O.
        if (pin.segment != nullptr) {
          if (pin.segment->flows.data()[pin.count - 1].id <= after_id)
            continue;
        } else if (pin.cold != nullptr &&
                   pin.cold->zone().id_hi <= after_id) {
          continue;
        }
      }
      Candidates candidates;
      if (!open_segment_scan(pin, filter, plan, candidates, cold)) continue;
      ++st.segments_scanned;
      const StoredFlow* flows = pin.segment->flows.data();
      // Returns false once the chunk is full.
      auto consume = [&](const StoredFlow& stored) {
        ++st.rows_scanned;
        if (stored.id <= after_id || !filter.matches(stored)) return true;
        rows.push_back(stored);
        return rows.size() < max_rows;
      };
      bool room = true;
      if (candidates) {
        st.index_hits += candidates->size();
        for (const auto offset : *candidates) {
          if (!(room = consume(flows[offset]))) break;
        }
      } else {
        for (std::uint32_t i = 0; i < pin.count && room; ++i)
          room = consume(flows[i]);
      }
      if (!room) {
        done = false;  // cut mid-scan: this or a later segment may hold more
        break;
      }
    }
  }
  st.cold_loaded = cold.loaded;
  st.cold_pruned = cold.pruned;
  st.cold_load_failures = cold.load_failures;
  if (stats != nullptr) *stats = st;
  if (exhausted != nullptr) *exhausted = done;
  return rows;
}

// -------------------------------------------------------- QueryCursor

QueryCursor::QueryCursor(StoreSnapshot snapshot, FlowQuery query)
    : snapshot_(std::move(snapshot)), query_(std::move(query)) {
  stats_.index = planned_index(query_);
  stats_.segments_pinned = snapshot_.segments().size();
}

bool QueryCursor::open_next_segment() {
  auto& segs = snapshot_.segments_mut();
  while (next_segment_ < segs.size()) {
    PinnedSegment& pin = segs[next_segment_++];
    ColdStats cold;
    const bool open =
        open_segment_scan(pin, query_, stats_.index, candidates_, cold);
    stats_.cold_loaded += cold.loaded;
    stats_.cold_pruned += cold.pruned;
    stats_.cold_load_failures += cold.load_failures;
    if (!open) continue;
    segment_ = pin.segment.get();
    count_ = pin.count;
    pos_ = 0;
    segment_open_ = true;
    ++stats_.segments_scanned;
    if (candidates_) stats_.index_hits += candidates_->size();
    return true;
  }
  return false;
}

bool QueryCursor::next() {
  if (produced_ >= query_.limit) return false;
  for (;;) {
    if (!segment_open_ && !open_next_segment()) return false;
    const StoredFlow* flows = segment_->flows.data();
    if (candidates_) {
      while (pos_ < candidates_->size()) {
        const auto& stored = flows[(*candidates_)[pos_++]];
        ++stats_.rows_scanned;
        if (query_.matches(stored)) {
          current_ = &stored;
          ++produced_;
          return true;
        }
      }
    } else {
      while (pos_ < count_) {
        const auto& stored = flows[pos_++];
        ++stats_.rows_scanned;
        if (query_.matches(stored)) {
          current_ = &stored;
          ++produced_;
          return true;
        }
      }
    }
    segment_open_ = false;
  }
}

std::string_view to_string(GroupBy by) noexcept {
  switch (by) {
    case GroupBy::kHost: return "host";
    case GroupBy::kPort: return "port";
    case GroupBy::kLabel: return "label";
  }
  return "?";
}

}  // namespace campuslab::store
