#include "campuslab/store/datastore.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <numeric>

#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/store/query_engine.h"
#include "campuslab/store/segment_file.h"

namespace campuslab::store {

namespace {
struct StoreMetrics {
  obs::Counter& ingested =
      obs::Registry::global().counter("store.flows_ingested");
  obs::Histogram& ingest_ns = obs::stage_histogram("store_ingest");
  obs::Histogram& query_ns =
      obs::Registry::global().histogram("store_query_ns");
  obs::Counter& queries = obs::Registry::global().counter("store.queries");
  obs::Counter& segments_scanned =
      obs::Registry::global().counter("store.segments_scanned");
  obs::Counter& index_hits =
      obs::Registry::global().counter("store.index_hits");
  obs::Counter& rows_returned =
      obs::Registry::global().counter("store.rows_returned");
  // Tiering.
  obs::Counter& spills = obs::Registry::global().counter("store.spills");
  obs::Counter& spill_failures =
      obs::Registry::global().counter("store.spill_failures");
  obs::Counter& spill_bytes =
      obs::Registry::global().counter("store.spill_bytes_total");
  obs::Gauge& cold_segments =
      obs::Registry::global().gauge("store.cold_segments");
  obs::Histogram& spill_ns =
      obs::Registry::global().histogram("store_spill_ns");

  static StoreMetrics& get() {
    static StoreMetrics m;
    return m;
  }

  void record_query(std::uint64_t elapsed_ns, const QueryStats& stats,
                    std::size_t rows) {
    query_ns.observe(elapsed_ns);
    queries.increment();
    segments_scanned.add(stats.segments_scanned);
    index_hits.add(stats.index_hits);
    rows_returned.add(rows);
  }
};

// Fill `index` from (key << 32 | row) pairs listed in row order. A
// stable LSD radix sort on the key bytes orders keys ascending and
// keeps rows ascending within a key, which is the order the CLSEG02
// index section stores. A pass whose byte is the same in every pair
// moves nothing and is skipped.
template <typename Key>
void build_index(PostingIndex<Key>& index,
                 std::vector<std::uint64_t>& pairs) {
  std::vector<std::uint64_t> sorted(pairs.size());
  for (unsigned shift = 32; shift < 32 + 8 * sizeof(Key); shift += 8) {
    std::array<std::size_t, 257> next{};
    for (const std::uint64_t pair : pairs)
      ++next[((pair >> shift) & 0xFF) + 1];
    if (std::find(next.begin() + 1, next.end(), pairs.size()) != next.end())
      continue;
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (const std::uint64_t pair : pairs)
      sorted[next[(pair >> shift) & 0xFF]++] = pair;
    pairs.swap(sorted);
  }
  index.rows.reserve(pairs.size());
  for (const std::uint64_t pair : pairs) {
    const auto key = static_cast<Key>(pair >> 32);
    if (index.keys.empty() || index.keys.back() != key) {
      index.keys.push_back(key);
      index.starts.push_back(static_cast<std::uint32_t>(index.rows.size()));
    }
    index.rows.push_back(static_cast<std::uint32_t>(pair));
  }
  index.starts.push_back(static_cast<std::uint32_t>(index.rows.size()));
}

// The bodies of the query() and aggregate() overload pairs: the fault
// site, a snapshot pinned now, the timing and the counters.
QueryResult run_query(const DataStore& store, const FlowQuery& q,
                      ScanPool* pool) {
  resilience::fault_point("store.query");
  const auto t0 = obs::monotonic_ns();
  auto result = execute_query(store.snapshot(), q, pool);
  StoreMetrics::get().record_query(obs::monotonic_ns() - t0,
                                   result.stats(), result.size());
  return result;
}

AggregateResult run_aggregate(const DataStore& store, const FlowQuery& q,
                              GroupBy group_by, std::size_t top_k,
                              ScanPool* pool) {
  resilience::fault_point("store.query");
  const auto t0 = obs::monotonic_ns();
  auto result = execute_aggregate(store.snapshot(), q, group_by, top_k, pool);
  StoreMetrics::get().record_query(obs::monotonic_ns() - t0, result.stats,
                                   result.rows.size());
  return result;
}

}  // namespace

void Segment::seal() {
  const auto n = static_cast<std::uint32_t>(flows.size());
  std::vector<std::uint64_t> hosts;
  std::vector<std::uint64_t> ports;
  hosts.reserve(static_cast<std::size_t>(n) * 2);
  ports.reserve(static_cast<std::size_t>(n) * 2);
  for (std::uint32_t row = 0; row < n; ++row) {
    const auto& f = flows[row].flow;
    for_each_group_key(GroupBy::kHost, f, [&](std::uint64_t key) {
      hosts.push_back(key << 32 | row);
    });
    for_each_group_key(GroupBy::kPort, f, [&](std::uint64_t key) {
      ports.push_back(key << 32 | row);
    });
    for_each_group_key(GroupBy::kLabel, f, [&](std::uint64_t key) {
      by_label[key].push_back(row);
    });
  }
  build_index(by_host, hosts);
  build_index(by_port, ports);
  sealed = true;
}

DataStore::DataStore(DataStoreConfig config) : config_(config) {
  if (config_.segment_flows == 0) config_.segment_flows = 1;
  if (config_.query_threads == 0) config_.query_threads = 1;
}

DataStore::~DataStore() = default;

ScanPool* DataStore::configured_pool() const {
  if (config_.query_threads <= 1) return nullptr;
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ScanPool>(config_.query_threads);
  });
  return pool_.get();
}

Segment& DataStore::open_segment_locked() {
  // The back slot is the only one that can be the open tail; a spilled
  // back (hot == nullptr) is sealed by construction.
  if (segments_.empty() || segments_.back().hot == nullptr ||
      segments_.back().hot->sealed)
    segments_.push_back(TieredSegment{
        std::make_shared<Segment>(config_.segment_flows), nullptr});
  return *segments_.back().hot;
}

std::uint64_t DataStore::ingest(const capture::FlowRecord& flow) {
  return ingest(StoredFlow{0, flow});
}

std::uint64_t DataStore::ingest(const StoredFlow& row) {
  auto& metrics = StoreMetrics::get();
  obs::StageTimer stage_timer(metrics.ingest_ns);
  metrics.ingested.increment();

  std::uint64_t id = 0;
  bool sealed_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& seg = open_segment_locked();
    StoredFlow stored{row.id != 0 ? row.id : next_id_++, row.flow};
    if (stored.id >= next_id_) next_id_ = stored.id + 1;

    // Data cleaning: a flow whose timestamps are inverted (possible only
    // through producer bugs) is normalized rather than stored broken.
    if (stored.flow.last_ts < stored.flow.first_ts)
      stored.flow.last_ts = stored.flow.first_ts;

    seg.min_ts = std::min(seg.min_ts, stored.flow.first_ts);
    seg.max_ts = std::max(seg.max_ts, stored.flow.last_ts);
    // push_back never reallocates: capacity was reserved up front and
    // the segment seals exactly at capacity (snapshot.h relies on this).
    seg.flows.push_back(std::move(stored));

    total_flows_.fetch_add(1, std::memory_order_release);
    ++label_counts_[static_cast<std::size_t>(row.flow.majority_label())];
    if (seg.flows.size() >= config_.segment_flows) {
      seg.seal();
      sealed_now = true;
    }
    id = seg.flows.back().id;
  }
  // Spill outside the lock: serialization is the expensive part and
  // sealed segments are immutable, so queries keep flowing meanwhile.
  if (sealed_now) enforce_hot_budget();
  return id;
}

void DataStore::ingest_log(LogEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::move(event));
}

StoreSnapshot DataStore::snapshot_locked() const {
  std::vector<PinnedSegment> pins;
  pins.reserve(segments_.size());
  for (const auto& tier : segments_) {
    if (tier.hot != nullptr) {
      if (tier.hot->flows.empty()) continue;
      // `indexed` is read under the mutex seal() runs under, so a pin
      // never sees a half-built index.
      pins.push_back(PinnedSegment{
          tier.hot, static_cast<std::uint32_t>(tier.hot->flows.size()),
          tier.hot->sealed, nullptr});
    } else {
      // Cold pin: the handle carries the zone map; the query engine
      // prunes/loads it lazily. Spilled segments are always sealed.
      pins.push_back(PinnedSegment{nullptr, tier.cold->zone().flow_count,
                                   true, tier.cold});
    }
  }
  return StoreSnapshot(std::move(pins));
}

StoreSnapshot DataStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked();
}

QueryResult DataStore::query(const FlowQuery& q) const {
  return run_query(*this, q, configured_pool());
}

QueryResult DataStore::query(const FlowQuery& q, ScanPool& pool) const {
  return run_query(*this, q, &pool);
}

AggregateResult DataStore::aggregate(const FlowQuery& q, GroupBy group_by,
                                     std::size_t top_k) const {
  return run_aggregate(*this, q, group_by, top_k, configured_pool());
}

AggregateResult DataStore::aggregate(const FlowQuery& q, GroupBy group_by,
                                     std::size_t top_k,
                                     ScanPool& pool) const {
  return run_aggregate(*this, q, group_by, top_k, &pool);
}

QueryCursor DataStore::open_cursor(FlowQuery q) const {
  resilience::fault_point("store.query");
  return QueryCursor(snapshot(), std::move(q));
}

LogResult DataStore::query_logs(const LogQuery& q) const {
  resilience::fault_point("store.query");
  std::vector<LogEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ev : logs_) {
      if (q.matches(ev)) {
        out.push_back(ev);
        if (out.size() >= q.limit) break;
      }
    }
  }
  return LogResult(std::move(out));
}

std::uint64_t DataStore::enforce_retention(Timestamp now) {
  const Timestamp horizon = now - config_.retention;
  std::uint64_t evicted = 0;
  std::lock_guard<std::mutex> lock(mu_);
  while (!segments_.empty()) {
    const TieredSegment& front = segments_.front();
    if (front.hot != nullptr) {
      if (!front.hot->sealed || !(front.hot->max_ts < horizon)) break;
      for (const auto& stored : front.hot->flows) {
        --label_counts_[static_cast<std::size_t>(
            stored.flow.majority_label())];
        ++evicted;
      }
      total_flows_.fetch_sub(front.hot->flows.size(),
                             std::memory_order_release);
    } else {
      // Cold eviction needs no I/O: the zone map carries the horizon
      // check and the per-label counts. Dropping the reference unlinks
      // the file once the last pinned snapshot releases the handle.
      const SegmentZoneMap& zone = front.cold->zone();
      if (!(zone.max_ts < horizon)) break;
      for (std::size_t l = 0; l < zone.label_flows.size(); ++l)
        label_counts_[l] -= zone.label_flows[l];
      evicted += zone.flow_count;
      total_flows_.fetch_sub(zone.flow_count, std::memory_order_release);
      StoreMetrics::get().cold_segments.add(-1);
    }
    segments_.pop_front();  // pinned snapshots keep the segment alive
  }
  while (!logs_.empty() && logs_.front().ts < horizon) {
    logs_.pop_front();
    // Log eviction is not counted toward flow eviction totals.
  }
  evicted_ += evicted;
  return evicted;
}

CatalogInfo DataStore::catalog() const {
  CatalogInfo info;
  StoreSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    info.total_flows = total_flows_.load(std::memory_order_relaxed);
    info.total_log_events = logs_.size();
    info.segments = segments_.size();
    info.flows_per_label = label_counts_;
    info.evicted_by_retention = evicted_;
    snap = snapshot_locked();
  }
  bool first = true;
  auto widen = [&](Timestamp lo, Timestamp hi) {
    if (first) {
      info.earliest = lo;
      info.latest = hi;
      first = false;
    } else {
      info.earliest = std::min(info.earliest, lo);
      info.latest = std::max(info.latest, hi);
    }
  };
  for (const auto& pin : snap.segments()) {
    if (pin.segment == nullptr) {
      // Cold segments are cataloged from their zone maps — no I/O.
      if (pin.cold == nullptr) continue;
      const SegmentZoneMap& zone = pin.cold->zone();
      ++info.cold_segments;
      info.total_packets += zone.packets;
      info.total_bytes += zone.bytes;
      if (zone.flow_count > 0) widen(zone.min_ts, zone.max_ts);
      continue;
    }
    const StoredFlow* flows = pin.segment->flows.data();
    for (std::uint32_t i = 0; i < pin.count; ++i) {
      const auto& f = flows[i].flow;
      info.total_packets += f.packets;
      info.total_bytes += f.bytes;
      widen(f.first_ts, f.last_ts);
    }
  }
  return info;
}

// ------------------------------------------------------------- tiering

std::uint64_t DataStore::hot_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& tier : segments_)
    if (tier.hot != nullptr) total += segment_memory_bytes(*tier.hot);
  return total;
}

void DataStore::enforce_hot_budget() {
  if (config_.spill_directory.empty()) return;
  if (config_.hot_bytes_budget == 0) {
    spill();  // spill-at-seal: everything sealed goes cold
    return;
  }
  while (hot_bytes() > config_.hot_bytes_budget)
    if (spill(1) == 0) break;  // nothing sealed left, or disk down
}

std::size_t DataStore::spill(std::size_t max_segments) {
  if (config_.spill_directory.empty()) return 0;
  std::size_t spilled = 0;
  while (spilled < max_segments) {
    // Oldest sealed hot segment first: retention evicts oldest-first
    // too, so the hot tier converges to "the open tail plus whatever
    // the budget allows".
    std::shared_ptr<Segment> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& tier : segments_) {
        if (tier.hot != nullptr && tier.hot->sealed) {
          victim = tier.hot;
          break;
        }
      }
    }
    if (victim == nullptr) break;
    if (!spill_segment(victim)) break;
    ++spilled;
  }
  return spilled;
}

bool DataStore::spill_segment(const std::shared_ptr<Segment>& victim) {
  auto& metrics = StoreMetrics::get();
  const std::uint64_t first_id = victim->flows.front().id;
  std::error_code ec;
  std::filesystem::create_directories(config_.spill_directory, ec);
  const std::string path = config_.spill_directory + "/seg-" +
                           std::to_string(first_id) + ".clseg";

  // Serialize outside the store lock (the victim is sealed, hence
  // immutable), with retry/backoff around the fault site; exhaustion
  // degrades gracefully — the segment simply stays hot.
  Rng rng(config_.spill_seed ^ first_id);
  SegmentFileInfo info;
  const auto t0 = obs::monotonic_ns();
  const Status status = resilience::retry_status(
      config_.spill_retry, rng, "store.spill", [&]() -> Status {
        if (Status injected =
                resilience::fault_point_status("store.spill");
            !injected.ok())
          return injected;
        auto written = write_segment_file(*victim, path);
        if (!written.ok()) return written.error();
        info = std::move(written).value();
        return Status::success();
      });
  if (!status.ok()) {
    metrics.spill_failures.increment();
    return false;
  }
  metrics.spill_ns.observe(obs::monotonic_ns() - t0);

  auto handle = std::make_shared<const ColdSegmentHandle>(
      path, info.zone, info.file_bytes, /*owns_file=*/true);
  bool swapped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& tier : segments_) {
      if (tier.hot == victim) {
        tier.hot = nullptr;
        tier.cold = handle;
        swapped = true;
        break;
      }
    }
  }
  if (!swapped) {
    // Retention raced the write and already evicted the segment; the
    // handle (sole owner) unlinks the file on destruction here.
    return true;
  }
  metrics.spills.increment();
  metrics.spill_bytes.add(info.file_bytes);
  metrics.cold_segments.add(1);
  return true;
}

}  // namespace campuslab::store
