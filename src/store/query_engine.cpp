#include "campuslab/store/query_engine.h"

#include <algorithm>
#include <optional>
#include <span>

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

// The key an index plan looks up: the host address value, the label's
// index or the port its predicate names; 0 for a time scan.
std::uint64_t plan_key(const FlowQuery& q, IndexKind plan) noexcept {
  switch (plan) {
    case IndexKind::kHost:
      return (q.host ? *q.host : (q.src ? *q.src : *q.dst)).value();
    case IndexKind::kLabel:
      return static_cast<std::uint64_t>(*q.label);
    case IndexKind::kPort:
      return *q.port;
    case IndexKind::kTimeScan:
      break;
  }
  return 0;
}

// The one per-segment scan under every read: execute_query,
// execute_aggregate, scan_chunk and QueryCursor differ only in the
// `visit` they pass. It hands `visit` each row of `pin` that has an id
// above `after_id` and matches `q`, in ascending offset order, until
// `visit` returns false; it returns false iff `visit` stopped it. The
// segment's work is counted into `stats`.
//
// Segments are read in ascending-id order, so one whose last id is at
// or below `after_id` was drained by an earlier chunk and is skipped
// (a cold one without I/O). Ids start at 1: after_id 0 skips nothing.
//
// Cold pins resolve here: the zone map prunes the whole file against
// the query's time bounds before any I/O; a surviving file is read
// through the projection for the plan (ColdSegmentHandle::load(plan,
// key): a time scan decodes every row and no index, an index plan only
// its key's rows, and any live decode that serves the plan is shared),
// and the Segment is parked in the pin, so the snapshot owns the rows
// it scanned. A projection holds the rows the plan's index names at
// the offsets it names them, so from that point a cold segment is
// scanned, and counted, by exactly the code that scans a hot one: that
// is what makes results and every non-cold QueryStats field
// bit-identical across tiers. A load failure (corrupt or vanished
// file) contributes zero rows and a cold_load_failures tick, never UB.
template <typename Visit>
bool scan_segment(PinnedSegment& pin, const FlowQuery& q, IndexKind plan,
                  std::uint64_t after_id, QueryStats& stats, Visit&& visit) {
  if (pin.count == 0) return true;
  const std::uint64_t key = plan_key(q, plan);
  if (pin.cold != nullptr) {  // spilled segments are sealed: indexed
    const SegmentZoneMap& zone = pin.cold->zone();
    if (zone.id_hi <= after_id) return true;
    if (pin.segment == nullptr ||
        !pin.segment->projection.serves(plan, key)) {
      if ((q.from && zone.max_ts < *q.from) ||
          (q.to && zone.min_ts > *q.to)) {
        ++stats.cold_pruned;
        return true;
      }
      auto loaded = pin.cold->load(plan, key);
      if (!loaded.ok()) {
        ++stats.cold_load_failures;
        return true;
      }
      pin.segment = std::move(loaded).value();
      ++stats.cold_loaded;
    }
  } else if (pin.segment == nullptr ||
             pin.segment->flows.data()[pin.count - 1].id <= after_id) {
    return true;
  }
  const Segment& seg = *pin.segment;
  // The rows an index lists, viewed in place; nullopt = no index
  // applies, scan the pinned prefix.
  std::optional<std::span<const std::uint32_t>> candidates;
  if (pin.indexed) {
    // min/max are stable only once sealed; the open tail is never
    // pruned (its rows still pass through the full predicate).
    if (q.from && seg.max_ts < *q.from) return true;
    if (q.to && seg.min_ts > *q.to) return true;
    switch (plan) {
      case IndexKind::kHost:
        candidates = seg.by_host.find(static_cast<std::uint32_t>(key));
        if (candidates->empty()) return true;
        break;
      case IndexKind::kLabel:
        candidates = seg.by_label[key];
        break;
      case IndexKind::kPort:
        candidates = seg.by_port.find(static_cast<std::uint16_t>(key));
        if (candidates->empty()) return true;
        break;
      case IndexKind::kTimeScan:
        break;
    }
  }
  ++stats.segments_scanned;
  // data() + pinned count, never size()/iterators: the open tail may
  // be appending concurrently (snapshot.h).
  const StoredFlow* flows = seg.flows.data();
  const auto consume = [&](const StoredFlow& row) {
    ++stats.rows_scanned;
    return row.id <= after_id || !q.matches(row) || visit(row);
  };
  if (candidates) {
    stats.index_hits += candidates->size();
    for (const std::uint32_t offset : *candidates)
      if (!consume(flows[offset])) return false;
  } else {
    for (std::uint32_t i = 0; i < pin.count; ++i)
      if (!consume(flows[i])) return false;
  }
  return true;
}

// Append the rows of `pin` matching `q` to `rows` until it holds `cap`.
void collect_rows(PinnedSegment& pin, const FlowQuery& q, IndexKind plan,
                  std::size_t cap, QueryStats& stats,
                  std::vector<const StoredFlow*>& rows) {
  scan_segment(pin, q, plan, 0, stats, [&](const StoredFlow& row) {
    rows.push_back(&row);
    return rows.size() < cap;
  });
}

bool runs_parallel(const ScanPool* pool, std::size_t segments) {
  return pool != nullptr && pool->threads() > 1 && segments > 1;
}

}  // namespace

// ------------------------------------------------------------ executor

QueryResult execute_query(StoreSnapshot snapshot, const FlowQuery& q,
                          ScanPool* pool) {
  const IndexKind plan = planned_index(q);
  // Mutable pins: cold resolution parks loaded segments in them, and
  // parallel tasks each touch a distinct element (race-free).
  auto& segs = snapshot.segments_mut();
  struct SegmentRows {
    std::vector<const StoredFlow*> rows;
    QueryStats stats;
  };
  std::vector<SegmentRows> partial(segs.size());
  const bool parallel = runs_parallel(pool, segs.size());
  if (parallel) {
    pool->parallel_for(segs.size(), [&](std::size_t i) {
      collect_rows(segs[i], q, plan, q.limit, partial[i].stats,
                   partial[i].rows);
    });
  } else {
    // Serial keeps the cross-segment early exit: stop planning work
    // once the limit is already met.
    std::size_t have = 0;
    for (std::size_t i = 0; i < segs.size() && have < q.limit; ++i) {
      collect_rows(segs[i], q, plan, q.limit - have, partial[i].stats,
                   partial[i].rows);
      have += partial[i].rows.size();
    }
  }

  QueryStats stats;
  stats.index = plan;
  stats.segments_pinned = segs.size();
  stats.threads = parallel ? pool->threads() : 1;
  std::size_t total = 0;
  for (const auto& part : partial) {
    stats += part.stats;
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
  // Aggregation consumes every match: the visitor never stops the scan,
  // so q.limit, which would make group totals depend on scan order,
  // is ignored.
  const IndexKind plan = planned_index(q);
  auto& segs = snapshot.segments_mut();
  struct SegmentGroups {
    AggregateGroups groups;
    std::uint64_t matched = 0;
    QueryStats stats;
  };
  std::vector<SegmentGroups> partial(segs.size());
  const auto aggregate_segment = [&](std::size_t i) {
    SegmentGroups& out = partial[i];
    scan_segment(segs[i], q, plan, 0, out.stats, [&](const StoredFlow& row) {
      ++out.matched;
      fold_flow(out.groups, group_by, row.flow);
      return true;
    });
  };
  const bool parallel = runs_parallel(pool, segs.size());
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
  AggregateGroups merged;
  for (const auto& part : partial) {
    result.stats += part.stats;
    result.matched_flows += part.matched;
    for (const auto& [key, row] : part.groups) fold_row(merged, row);
  }
  result.rows = ranked_rows(merged, top_k);
  return result;
}

std::vector<AggregateRow> ranked_rows(const AggregateGroups& groups,
                                      std::size_t top_k) {
  std::vector<AggregateRow> rows;
  rows.reserve(groups.size());
  for (const auto& [key, row] : groups) rows.push_back(row);
  // Keys are unique, so the order is total and the top_k prefix is the
  // same however the groups were merged.
  const auto heavier = [](const AggregateRow& a, const AggregateRow& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    return a.key < b.key;
  };
  if (top_k > 0 && top_k < rows.size()) {
    std::partial_sort(rows.begin(),
                      rows.begin() + static_cast<std::ptrdiff_t>(top_k),
                      rows.end(), heavier);
    rows.resize(top_k);
  } else {
    std::sort(rows.begin(), rows.end(), heavier);
  }
  return rows;
}

// ---------------------------------------------------------- scan_chunk

std::vector<StoredFlow> scan_chunk(StoreSnapshot snapshot, const FlowQuery& q,
                                   std::uint64_t after_id,
                                   std::size_t max_rows, QueryStats* stats,
                                   bool* exhausted) {
  auto& segs = snapshot.segments_mut();
  QueryStats st;
  st.index = planned_index(q);
  st.segments_pinned = segs.size();
  std::vector<StoredFlow> rows;
  // A zero-row pull proves nothing about the tail; a chunk cut short by
  // max_rows leaves this or a later segment possibly holding more.
  bool done = max_rows > 0;
  for (std::size_t i = 0; done && i < segs.size(); ++i) {
    done = scan_segment(segs[i], q, st.index, after_id, st,
                        [&](const StoredFlow& row) {
                          rows.push_back(row);
                          return rows.size() < max_rows;
                        });
  }
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

bool QueryCursor::next() {
  if (produced_ >= query_.limit) return false;
  auto& segs = snapshot_.segments_mut();
  while (pos_ == rows_.size()) {
    if (next_segment_ == segs.size()) return false;
    // Moving on: release the previous segment's cold decode, so the
    // cursor holds at most one (a hot pin stays, it costs no load).
    if (next_segment_ > 0 && segs[next_segment_ - 1].cold != nullptr)
      segs[next_segment_ - 1].segment.reset();
    rows_.clear();
    pos_ = 0;
    collect_rows(segs[next_segment_++], query_, stats_.index,
                 query_.limit - produced_, stats_, rows_);
  }
  current_ = rows_[pos_++];
  ++produced_;
  return true;
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
