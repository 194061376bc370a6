// ShardedFlowIngester — the concurrent ingest path into the DataStore.
//
// The DataStore itself stays single-threaded (its segment/index
// machinery is the hot query structure; locking it per flow from N
// workers would serialize the pipeline again). Instead each capture
// shard appends evicted flows to its own buffer — one tiny per-shard
// mutex, contended only by that shard's worker and the (rare) merge —
// and merge_into() moves the buffers into the store in the canonical
// deterministic order (capture::flow_export_before), so store content
// is a function of the traffic, not of worker scheduling.
//
// merge_into() may run mid-capture (periodic flushes) or after the
// engine stops; either way each buffer is swapped out under its lock,
// so workers are blocked for O(1) per merge.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "campuslab/obs/registry.h"
#include "campuslab/resilience/retry.h"
#include "campuslab/store/datastore.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {

class StoreShard;
class Cluster;
struct ClusterIngestReport;

class ShardedFlowIngester {
 public:
  explicit ShardedFlowIngester(std::size_t shards);

  std::size_t shards() const noexcept { return buffers_.size(); }

  /// Shard-side: buffer one evicted flow. Callable concurrently across
  /// shards; per shard, callers must be serialized (the shard worker).
  void ingest(std::size_t shard, const capture::FlowRecord& flow);

  /// Flows buffered but not yet merged. Safe to sample live.
  std::uint64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Flows moved into a store by merge_into() so far.
  std::uint64_t merged_total() const noexcept { return merged_total_; }

  /// Deterministic ordered merge of everything buffered into `store`.
  /// Returns flows ingested. Call from one thread at a time.
  std::uint64_t merge_into(DataStore& store);

  /// Resilient merge: each flow's ingest (which passes through the
  /// store.ingest fault point) is retried under `policy` with seeded
  /// backoff. On exhaustion the unmerged tail is re-buffered — nothing
  /// is lost, and the next merge's canonical sort restores order — and
  /// the terminal error ("retry_exhausted" / "retry_deadline") is
  /// returned alongside nothing; success returns flows ingested.
  /// Call from one thread at a time.
  Result<std::uint64_t> merge_into(DataStore& store,
                                   const resilience::RetryPolicy& policy,
                                   const resilience::Sleeper& sleeper = {});

  /// Ordered merge across the StoreShard node boundary (shard.h): one
  /// canonical-order batch, acked by applied-prefix. A partial or
  /// failed ack re-buffers the unapplied tail — nothing is lost — and
  /// returns the error; success returns flows applied.
  Result<std::uint64_t> merge_into(StoreShard& shard);

  /// Ordered merge into a cluster: the canonical sort happens here, so
  /// the router's global ids — and therefore every query, aggregate
  /// and cursor — come out bit-identical to a single-node store fed
  /// the same capture. Flows the cluster could not place anywhere
  /// count in the report's `lost` (they left the buffers; the cluster
  /// already metered them).
  ClusterIngestReport merge_into(Cluster& cluster);

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<capture::FlowRecord> flows;
  };

  /// Empty every buffer into one vector in canonical export order.
  std::vector<capture::FlowRecord> take_sorted();
  /// Re-buffer `merged[from..]` after a failed or partial merge.
  void rebuffer(std::vector<capture::FlowRecord>& merged, std::size_t from);

  // unique_ptr: mutexes are neither movable nor copyable.
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> pending_{0};
  std::uint64_t merged_total_ = 0;
  // Backoff jitter for the resilient merge; per-ingester so two
  // ingesters backing off from one shared stall de-correlate.
  Rng retry_rng_{0x19e57ull};
  // Live backlog gauge (store.ingest_pending); several ingesters in one
  // process sum, per the registry's callback semantics.
  obs::Registry::CallbackHandle obs_pending_;
};

}  // namespace campuslab::store
