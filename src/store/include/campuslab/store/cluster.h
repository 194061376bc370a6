// store::Cluster — consistent-hash placement, replicated ingest, and
// scatter-gather queries over N in-process StoreShard nodes.
//
// Placement: the bidirectional-5-tuple keyspace hashes onto a ring of
// virtual nodes (vnodes per physical node), so both directions of one
// conversation land on the same owner and adding a node someday moves
// only ~1/N of the keyspace. The first `replication` distinct nodes
// clockwise from a key own its copies; owner 0 is the primary.
//
// Determinism: the router assigns every flow a global id from one
// monotonic counter *before* routing, and every replica carries the
// primary's id. Per (node, store) the ids it receives are ascending, so
// each shard returns rows in ascending-id order and the cluster's k-way
// merge by id reproduces single-node ingest order exactly — queries,
// aggregates, and cursor sequences against an N-node cluster are
// bit-identical to one DataStore fed the same flows in the same order.
//
// Failure model: every message to a node crosses the
// `store.shard_rpc` fault site and a retry policy (transient faults are
// retried, a dead node is terminal). Ingest acks a flow once >= 1 copy
// applied; copies short of the replication factor are counted in the
// per-node `cluster.replica_lag` gauge. Queries scatter one scope per
// owner; a dead or unreachable primary flips its scope to the replica
// stores every live node keeps for it — each flow owned by the dead
// node lives in exactly one of those, so the gather stays complete and
// duplicate-free with a node down. Cluster health (dead-node fraction)
// feeds the same HealthMonitor the capture pipeline uses.
//
// Node boundary: the cluster speaks to nodes only through the
// message-shaped StoreShard interface (shard.h) — ingest batch in,
// ack out; query plan in, result rows out — so swapping a LocalShard
// for a socket-backed RemoteShard is a constructor change, not a
// query-engine change.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "campuslab/obs/registry.h"
#include "campuslab/resilience/health.h"
#include "campuslab/resilience/retry.h"
#include "campuslab/store/shard.h"

namespace campuslab::store {

using NodeId = std::uint32_t;

/// Consistent-hash ring over the bidirectional 5-tuple keyspace.
/// Immutable after construction; lookups are lock-free.
class HashRing {
 public:
  HashRing(std::size_t nodes, std::size_t vnodes, std::uint64_t seed);

  std::size_t nodes() const noexcept { return nodes_; }

  /// Placement key: FNV-1a over the *bidirectional* tuple, so both
  /// directions of a conversation co-locate. Transport-stable (pure
  /// byte math, no per-process salt) — a remote node computes the same
  /// placement.
  static std::uint64_t key_of(const packet::FiveTuple& tuple) noexcept;

  /// First `out.size()` distinct nodes clockwise from `key`; out[0] is
  /// the primary. out.size() must be <= nodes().
  void owners_for_key(std::uint64_t key,
                      std::span<NodeId> out) const noexcept;

  NodeId primary_for_key(std::uint64_t key) const noexcept;
  NodeId primary(const packet::FiveTuple& tuple) const noexcept {
    return primary_for_key(key_of(tuple));
  }

 private:
  struct Point {
    std::uint64_t hash;
    NodeId node;
  };
  std::vector<Point> points_;  // sorted by hash
  std::size_t nodes_;
};

/// Builds one shard of one node: `via` is the hosting node, `owner` is
/// whose flows the shard holds (owner == via for the primary store,
/// anything else for a replica store). `config` already carries the
/// per-shard spill-directory suffix. An empty factory means in-process
/// LocalShards; a socket cluster returns RemoteShards pointed at its
/// server processes.
using ShardFactory = std::function<std::unique_ptr<StoreShard>(
    NodeId via, NodeId owner, DataStoreConfig config)>;

struct ClusterConfig {
  std::size_t nodes = 4;
  /// Copies per flow (clamped to `nodes`). 2 = survive one node loss.
  std::size_t replication = 2;
  /// Ring points per physical node; more vnodes = smoother balance.
  std::size_t vnodes = 64;
  std::uint64_t ring_seed = 0xC1A55;
  /// Per-node store configuration. A non-empty spill_directory is
  /// suffixed per node ("/node<i>", replicas "/node<i>/owner<k>") so
  /// shards never share files.
  DataStoreConfig node_store;
  /// Retry for transient shard-message failures (the injected-fault /
  /// flaky-transport path; a dead node fails terminally).
  resilience::RetryPolicy rpc_retry;
  std::uint64_t rpc_seed = 0x5A7D5;
  /// Rows per pull when a cursor streams from a shard.
  std::size_t cursor_chunk = 4096;
  /// How the cluster builds its shards (empty = LocalShard in-process).
  ShardFactory shard_factory;
};

/// Outcome of one routed ingest batch. A flow is *acked* once at least
/// one copy applied; `lost` flows reached no node at all (every target
/// dead/failing) and the caller still owns them.
struct ClusterIngestReport {
  std::uint64_t acked = 0;
  std::uint64_t fully_replicated = 0;
  std::uint64_t lost = 0;
  std::uint64_t first_id = 0;  // global ids assigned to this batch
  std::uint64_t last_id = 0;   // (0/0 when the batch was empty)
};

/// Scatter-gather work counters, on top of the summed per-shard scan
/// stats.
struct ClusterQueryStats {
  QueryStats scan;                 // summed across every shard answer
  std::size_t shards_queried = 0;  // shard messages answered
  std::size_t replica_scopes = 0;  // owner scopes served by replicas
  std::size_t rpc_failures = 0;    // messages terminally failed
};

/// Materialized cluster query result. Rows are owned copies (they
/// crossed the node boundary), in global ingest order.
class ClusterQueryResult {
 public:
  ClusterQueryResult() = default;
  ClusterQueryResult(std::vector<StoredFlow> rows, ClusterQueryStats stats)
      : rows_(std::move(rows)), stats_(stats) {}

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }
  const StoredFlow& operator[](std::size_t i) const noexcept {
    return rows_[i];
  }
  const StoredFlow& front() const noexcept { return rows_.front(); }
  const StoredFlow& back() const noexcept { return rows_.back(); }
  std::vector<StoredFlow>::const_iterator begin() const noexcept {
    return rows_.begin();
  }
  std::vector<StoredFlow>::const_iterator end() const noexcept {
    return rows_.end();
  }
  const ClusterQueryStats& stats() const noexcept { return stats_; }

 private:
  std::vector<StoredFlow> rows_;
  ClusterQueryStats stats_;
};

class Cluster;

/// Streaming scatter-gather: pulls bounded chunks from every scope's
/// shard and k-way merges them by ascending global id, so a
/// million-flow cluster scan costs O(scopes * cursor_chunk) memory and
/// yields exactly the single-node cursor sequence. Must not outlive
/// the Cluster. A node killed mid-stream fails soft: the stream is
/// dropped and counted in stats().rpc_failures (use query() when you
/// need failover completeness during chaos).
class ClusterCursor {
 public:
  /// Advance to the next row in global ingest order; false when
  /// exhausted or the query limit is reached.
  bool next();
  const StoredFlow& current() const noexcept { return current_; }
  std::uint64_t produced() const noexcept { return produced_; }
  const ClusterQueryStats& stats() const noexcept { return stats_; }

 private:
  friend class Cluster;
  struct Stream {
    const StoreShard* shard = nullptr;
    NodeId via = 0;  // node answering (for liveness + accounting)
    std::vector<StoredFlow> buffer;
    std::size_t pos = 0;
    std::uint64_t after_id = 0;
    bool exhausted = false;
  };

  ClusterCursor(const Cluster* cluster, FlowQuery query);
  bool refill(Stream& stream);

  const Cluster* cluster_ = nullptr;
  FlowQuery query_;
  std::vector<Stream> streams_;
  StoredFlow current_{};
  std::uint64_t produced_ = 0;
  ClusterQueryStats stats_;
};

/// N in-process shard nodes behind consistent-hash placement. Writer
/// contract matches DataStore: ingest*/kill_node from one router
/// thread at a time; every query path is safe concurrently with them.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t nodes() const noexcept { return nodes_.size(); }
  std::size_t replication() const noexcept { return replication_; }
  const HashRing& ring() const noexcept { return ring_; }

  /// Route a batch of flows (canonical export order in = deterministic
  /// global ids out).
  ClusterIngestReport ingest(std::span<const capture::FlowRecord> flows);
  /// Single-flow convenience: the assigned global id, 0 if lost.
  std::uint64_t ingest(const capture::FlowRecord& flow);
  /// Complementary events route by subject (all of one host's logs
  /// co-locate) with the same replication factor, best-effort.
  void ingest_log(const LogEvent& event);

  /// Scatter to every owner scope, failover to replicas, merge by
  /// ascending global id. Bit-identical to a single-node store fed the
  /// same flows in the same order.
  ClusterQueryResult query(const FlowQuery& q) const;
  /// Group-by over the scattered scopes; per-shard partials merge into
  /// the same ordering execute_aggregate produces single-node.
  AggregateResult aggregate(const FlowQuery& q, GroupBy group_by,
                            std::size_t top_k = 0) const;
  ClusterCursor open_cursor(FlowQuery q) const;
  /// Gathered log events, merged by (ts, source, severity, message).
  LogResult query_logs(const LogQuery& q) const;
  /// Summed per-scope catalogs (replica-scoped when an owner is dead).
  CatalogInfo catalog() const;
  std::uint64_t size() const;

  // --- failure handling -------------------------------------------
  /// Chaos switch: the node stops answering messages, permanently.
  /// Queries flip its scope to replicas; ingest copies targeting it
  /// count as replica lag (or loss when every target is dead).
  void kill_node(NodeId node);
  bool alive(NodeId node) const noexcept;
  std::size_t live_nodes() const noexcept;
  /// Flows whose owner is `node` that are short of the replication
  /// factor (acked with < `replication` copies).
  std::uint64_t replica_lag(NodeId node) const noexcept;
  /// Feed cluster pressure (dead-node fraction, on the occupancy
  /// channel) into the shared pipeline health state machine.
  resilience::HealthState feed_health(
      resilience::HealthMonitor& monitor) const;

  /// In-process escape hatch for tests/benches: the primary store of a
  /// node (bit-level inspection without crossing the boundary).
  const DataStore& primary_store(NodeId node) const;

 private:
  friend class ClusterCursor;

  struct Node {
    std::unique_ptr<StoreShard> primary;
    /// replicas[owner] holds rows whose primary is `owner`; entry
    /// [self] stays null. Pre-built at construction so the query path
    /// never mutates the topology.
    std::vector<std::unique_ptr<StoreShard>> replicas;
    std::atomic<bool> alive{true};
    obs::Counter* rpc_failures = nullptr;
    std::atomic<std::uint64_t> replica_lag{0};
  };

  /// One owner scope of a scatter: the shards that together hold
  /// exactly the flows owned by `owner`, each reached via a live node.
  struct Scope {
    NodeId owner = 0;
    bool replica = false;
    std::vector<std::pair<NodeId, const StoreShard*>> sources;
  };

  /// Send one message to a shard via `node`: liveness check, fault
  /// site, bounded retry on transient failures; a dead node fails
  /// fast. `fn` is the shard call. Transport errors are classified:
  /// "connect_refused" marks the node dead on the spot (a refused
  /// remote IS a killed node — no retry-deadline burn, feed_health and
  /// the replica scopes flip immediately), "rpc_io"/"rpc_timeout"
  /// retry under the backoff policy, every other Result/Status passes
  /// through.
  template <typename Fn>
  auto send(NodeId via, Fn&& fn) const -> decltype(fn());

  /// Flip a node dead (kill_node and the connect-refused fast path).
  void mark_dead(NodeId node, const char* reason) const;

  /// The replica stores that together hold owner's flows, on live
  /// nodes.
  std::vector<std::pair<NodeId, const StoreShard*>> replica_sources(
      NodeId owner) const;
  /// Resolve the owner scopes for a gather, flipping dead owners to
  /// their replica stores. `stats` may be null.
  std::vector<Scope> scopes(ClusterQueryStats* stats) const;
  /// Rows of one owner scope under `plan`: primary when reachable,
  /// otherwise replica-gathered, deduped, ascending id.
  std::vector<StoredFlow> gather_scope(NodeId owner,
                                       const ShardQueryPlan& plan,
                                       ClusterQueryStats& stats) const;

  ClusterConfig config_;
  std::size_t replication_;
  HashRing ring_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t next_id_ = 1;  // router thread only
  /// Per-message ordinal, salting deterministic retry-jitter seeds.
  mutable std::atomic<std::uint64_t> rpc_calls_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> lost_{0};
  obs::Counter* obs_acked_ = nullptr;
  obs::Counter* obs_lost_ = nullptr;
  obs::Counter* obs_degraded_queries_ = nullptr;
  std::vector<obs::Registry::CallbackHandle> gauges_;
};

}  // namespace campuslab::store
