// DataStore — "the single source of all campus network-related data".
//
// Implements §5's data store: flow records and complementary log events
// are ingested continuously, cleaned (monotonic timestamps enforced),
// time-partitioned into segments, indexed (per-segment inverted indexes
// by host address, port, and ground-truth label), and retained for a
// configurable window. Raw packets are archived separately in pcap
// segments (packet_archive.h); the store keeps the linking metadata.
//
// Concurrency contract: ingest(), ingest_log() and enforce_retention()
// mutate under the store mutex and may each run from one thread at a
// time (the ShardedFlowIngester merge thread in the pipeline); every
// read path — query(), aggregate(), cursors, for_each(), catalog() —
// pins a StoreSnapshot under that mutex for O(segments) and then runs
// lock-free against immutable pinned state, fully concurrent with
// ingest and retention (snapshot.h explains why this is race-free).
// Results own their snapshot: rows stay valid for the result's
// lifetime no matter what the writer does meanwhile.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campuslab/resilience/retry.h"
#include "campuslab/store/aggregate.h"
#include "campuslab/store/query.h"
#include "campuslab/store/query_result.h"
#include "campuslab/store/snapshot.h"

namespace campuslab::store {

class ScanPool;

struct DataStoreConfig {
  std::size_t segment_flows = 50'000;  // rotate after this many flows
  Duration retention = Duration::hours(24 * 7);  // paper: "order of a week"
  /// Scan parallelism for query()/aggregate(): total threads fanned
  /// out per call (1 = serial). The worker pool is created lazily on
  /// the first parallel query and shared by all queries on this store.
  std::size_t query_threads = 1;

  // --- Tiered storage ---------------------------------------------
  /// When non-empty, sealed segments spill to columnar files
  /// (segment_file.h) in this directory and the RAM copy is dropped;
  /// queries transparently read both tiers. Empty = everything stays
  /// hot (the pre-tiering behaviour).
  std::string spill_directory;
  /// Hot-tier RAM target in bytes. 0 = spill every segment as it
  /// seals; otherwise sealed segments spill oldest-first until the
  /// estimated hot footprint is back under the budget. Ignored when
  /// spill_directory is empty.
  std::uint64_t hot_bytes_budget = 0;
  /// Backoff for transient spill failures (disk blips, injected
  /// faults). Exhaustion degrades gracefully: the segment stays hot.
  resilience::RetryPolicy spill_retry;
  /// Seeds the retry jitter so fault-injection tests replay exactly.
  std::uint64_t spill_seed = 0x5B111;
};

/// The §5 metadata catalog: what the store holds, over what span.
struct CatalogInfo {
  std::uint64_t total_flows = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_log_events = 0;
  std::size_t segments = 0;
  std::size_t cold_segments = 0;  // of `segments`, spilled to disk
  Timestamp earliest;
  Timestamp latest;
  std::array<std::uint64_t, packet::kTrafficLabelCount> flows_per_label{};
  std::uint64_t evicted_by_retention = 0;
};

class DataStore {
 public:
  explicit DataStore(DataStoreConfig config = {});
  ~DataStore();

  DataStore(const DataStore&) = delete;
  DataStore& operator=(const DataStore&) = delete;

  /// Ingest one completed flow; returns its stable id. Flows are
  /// expected in roughly time order (the flow meter's eviction order);
  /// out-of-order records are accepted and indexed correctly.
  std::uint64_t ingest(const capture::FlowRecord& flow);

  /// Ingest under a caller-assigned stable id (the cluster router's
  /// global id space — every replica of a flow carries the same id, and
  /// cluster-merged rows are bit-identical to a single-node store).
  /// id 0 assigns locally, identical to ingest(flow); the local counter
  /// advances past explicit ids so mixed callers never collide.
  std::uint64_t ingest(const StoredFlow& row);

  /// Ingest a complementary event (server log, firewall, IDS, ...).
  void ingest_log(LogEvent event);

  /// Evaluate a query against a snapshot pinned at call time. Rows are
  /// in ingest order; `query.limit` caps the count. The result owns
  /// its snapshot — it outlives retention and concurrent ingest.
  /// Fans out over the configured query_threads when > 1.
  QueryResult query(const FlowQuery& q) const;

  /// Same, fanning out over an explicit pool (bench thread sweeps,
  /// callers sharing one pool across stores).
  QueryResult query(const FlowQuery& q, ScanPool& pool) const;

  /// Log events matching `q`, copied out under the store mutex.
  LogResult query_logs(const LogQuery& q) const;

  /// Count / sum-bytes group-by and top-K heavy hitters over every
  /// flow matching `q` (see aggregate.h for grouping semantics).
  AggregateResult aggregate(const FlowQuery& q, GroupBy group_by,
                            std::size_t top_k = 0) const;
  AggregateResult aggregate(const FlowQuery& q, GroupBy group_by,
                            std::size_t top_k, ScanPool& pool) const;

  /// Streaming evaluation: pins a snapshot now, walks it row by row
  /// without materializing (million-flow scans in O(1) memory).
  QueryCursor open_cursor(FlowQuery q) const;

  /// Pin the current segment list (the primitive under every read
  /// path; public for tools that batch several reads on one view).
  StoreSnapshot snapshot() const;

  /// Visit every stored flow in ingest order (dataset export). Runs on
  /// a pinned snapshot: consistent, and concurrent with ingest.
  void for_each(const std::function<void(const StoredFlow&)>& fn) const;

  /// Drop whole segments entirely older than now - retention.
  /// Returns flows evicted. Snapshots pinned before the call keep
  /// their segments alive until released — including spilled segments,
  /// whose files are unlinked only when the last pin lets go.
  std::uint64_t enforce_retention(Timestamp now);

  /// Spill up to `max_segments` sealed hot segments (oldest first) to
  /// the configured spill directory, dropping their RAM copies.
  /// Returns how many actually moved; 0 when tiering is disabled,
  /// nothing is sealed-and-hot, or the disk kept failing (in which
  /// case the segments stay hot — graceful degradation, counted in
  /// `store.spill_failures`). Same single-writer contract as ingest().
  std::size_t spill(
      std::size_t max_segments = std::numeric_limits<std::size_t>::max());

  /// Estimated hot-tier footprint (flow arrays + indexes), the
  /// quantity hot_bytes_budget meters.
  std::uint64_t hot_bytes() const;

  CatalogInfo catalog() const;
  std::uint64_t size() const noexcept {
    return total_flows_.load(std::memory_order_acquire);
  }

 private:
  /// One slot in the segment list: exactly one of `hot` / `cold` is
  /// set. A segment is born hot, seals in place, and may then move to
  /// the cold tier (spill swaps the pointers under the store mutex).
  struct TieredSegment {
    std::shared_ptr<Segment> hot;
    std::shared_ptr<const ColdSegmentHandle> cold;
  };

  Segment& open_segment_locked();
  StoreSnapshot snapshot_locked() const;
  ScanPool* configured_pool() const;
  /// Serialize one sealed hot segment and swap it cold. False = the
  /// write kept failing and the segment stays hot.
  bool spill_segment(const std::shared_ptr<Segment>& victim);
  /// Apply the spill policy after a segment seals.
  void enforce_hot_budget();

  DataStoreConfig config_;
  mutable std::mutex mu_;
  std::deque<TieredSegment> segments_;
  std::deque<LogEvent> logs_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> total_flows_{0};
  std::uint64_t evicted_ = 0;
  std::array<std::uint64_t, packet::kTrafficLabelCount> label_counts_{};
  // Lazily created on the first parallel query (query_threads > 1).
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ScanPool> pool_;
};

}  // namespace campuslab::store
