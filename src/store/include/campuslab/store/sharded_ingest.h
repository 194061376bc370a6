// ShardedFlowIngester — the sharded flow stage: per-shard flow meters
// feeding the DataStore in one canonical order.
//
// The sharded capture engine (capture/sharded_engine.h) lands both
// directions of a conversation on one shard, so flow state needs no
// locks: shard s's worker drives its own FlowMeter (meter(s)). The
// DataStore stays single-threaded (its segment/index machinery is the
// hot query structure; locking it per flow from N workers would
// serialize the pipeline again). Instead each meter evicts into its
// shard's buffer — one tiny per-shard mutex, contended only by that
// shard's worker and the (rare) merge — and take() / merge_into() move
// the buffers out in the canonical deterministic order
// (capture::flow_export_before, stable across shard index), so store
// content is a function of the traffic, not of worker scheduling.
//
// Thread contract: meter(s) is driven only by shard s's worker;
// flush() and meter_stats() need every worker quiesced (engine
// stopped or never started). take() and merge_into() may run
// mid-capture (periodic merges) or after the engine stops; either way
// each buffer is swapped out under its lock, so workers are blocked for
// O(1) per merge.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "campuslab/capture/flow.h"
#include "campuslab/obs/registry.h"
#include "campuslab/resilience/retry.h"
#include "campuslab/util/result.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {

class StoreShard;
class Cluster;
struct ClusterIngestReport;

class ShardedFlowIngester {
 public:
  explicit ShardedFlowIngester(std::size_t shards);

  std::size_t shards() const noexcept { return buffers_.size(); }

  /// Shard s's flow table (default FlowMeterConfig); its evictions land
  /// in shard s's buffer. Drive it only from shard s's worker thread.
  capture::FlowMeter& meter(std::size_t shard) {
    return buffers_[shard]->meter;
  }

  /// Shard-side: buffer one evicted flow. Callable concurrently across
  /// shards; per shard, callers must be serialized (the shard worker).
  void ingest(std::size_t shard, const capture::FlowRecord& flow);

  /// Evict every shard's residual flows into its buffer (end of
  /// capture; workers quiesced).
  void flush();

  /// Sum of the per-shard meter counters (workers quiesced).
  capture::FlowMeterStats meter_stats() const noexcept;

  /// Flows buffered but not yet merged. Safe to sample live.
  std::uint64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Flows moved into a store by merge_into() so far.
  std::uint64_t merged_total() const noexcept { return merged_total_; }

  /// Empty every buffer into one vector in canonical export order. Call
  /// from one thread at a time.
  std::vector<capture::FlowRecord> take();

  /// Ordered merge across the StoreShard node boundary (shard.h): one
  /// canonical-order batch, acked by applied prefix. A short ack or a
  /// failed call is retried under `policy` by re-sending the unapplied
  /// tail, with a fresh budget for the next row whenever a call applied
  /// one, so each flow gets `policy`'s attempts. On exhaustion the tail
  /// is re-buffered — nothing is lost, and the next merge's canonical
  /// sort restores order — and the terminal error ("retry_exhausted" /
  /// "retry_deadline") is returned; success returns flows applied. The
  /// default policy makes one attempt. Call from one thread at a time.
  Result<std::uint64_t> merge_into(
      StoreShard& shard,
      const resilience::RetryPolicy& policy = {.max_attempts = 1},
      const resilience::Sleeper& sleeper = {});

  /// Ordered merge into a cluster: the canonical sort happens here, so
  /// the router's global ids — and therefore every query, aggregate
  /// and cursor — come out bit-identical to a single-node store fed
  /// the same capture. Flows the cluster could not place anywhere
  /// count in the report's `lost` (they left the buffers; the cluster
  /// already metered them).
  ClusterIngestReport merge_into(Cluster& cluster);

 private:
  struct Buffer {
    capture::FlowMeter meter;  // evicts into `flows`
    std::mutex mu;
    std::vector<capture::FlowRecord> flows;  // guarded by mu
  };

  // unique_ptr: the table-size gauges hold each meter's address, and
  // mutexes are neither movable nor copyable.
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> pending_{0};
  std::uint64_t merged_total_ = 0;
  // Backoff jitter for the retried merge; per-ingester so two
  // ingesters backing off from one shared stall de-correlate.
  Rng retry_rng_{0x19e57ull};
  // Live gauges: per-shard table sizes (flow.table_size{shard=N}) and
  // the backlog (store.ingest_pending; several ingesters in one process
  // sum, per the registry's callback semantics). Declared after
  // buffers_ so they unregister before the meters die.
  std::vector<obs::Registry::CallbackHandle> obs_table_sizes_;
  obs::Registry::CallbackHandle obs_pending_;
};

}  // namespace campuslab::store
