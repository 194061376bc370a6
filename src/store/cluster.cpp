#include "campuslab/store/cluster.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <tuple>

#include "campuslab/resilience/fault.h"
#include "campuslab/util/hash.h"
#include "campuslab/util/rng.h"

namespace campuslab::store {

// ------------------------------------------------------------ HashRing

HashRing::HashRing(std::size_t nodes, std::size_t vnodes,
                   std::uint64_t seed)
    : nodes_(nodes == 0 ? 1 : nodes) {
  if (vnodes == 0) vnodes = 1;
  points_.reserve(nodes_ * vnodes);
  for (NodeId node = 0; node < nodes_; ++node) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      std::uint64_t h = util::fnv1a_step(util::kFnvOffsetBasis, seed);
      h = util::fnv1a_step(h, node);
      h = util::fnv1a_step(h, v);
      // mix64: ring position is a magnitude, and short-input FNV has
      // weak high-bit avalanche (points would clump into arcs).
      points_.push_back(Point{util::mix64(h), node});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.node < b.node;  // collision tiebreak, deterministic
            });
}

std::uint64_t HashRing::key_of(const packet::FiveTuple& tuple) noexcept {
  const packet::FiveTuple canon = tuple.bidirectional();
  std::uint64_t h = util::fnv1a_step(util::kFnvOffsetBasis,
                                     canon.src.value());
  h = util::fnv1a_step(h, canon.dst.value());
  h = util::fnv1a_step(h, (static_cast<std::uint64_t>(canon.src_port) << 16) |
                              canon.dst_port);
  return util::mix64(util::fnv1a_step(h, canon.proto));
}

void HashRing::owners_for_key(std::uint64_t key,
                              std::span<NodeId> out) const noexcept {
  std::size_t filled = 0;
  const auto start = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const Point& p, std::uint64_t k) { return p.hash < k; });
  std::size_t idx = static_cast<std::size_t>(start - points_.begin());
  for (std::size_t walked = 0;
       walked < points_.size() && filled < out.size(); ++walked) {
    const NodeId node = points_[idx % points_.size()].node;
    ++idx;
    bool seen = false;
    for (std::size_t k = 0; k < filled; ++k) seen |= (out[k] == node);
    if (!seen) out[filled++] = node;
  }
  // out.size() <= nodes() per contract, so every slot filled.
}

NodeId HashRing::primary_for_key(std::uint64_t key) const noexcept {
  NodeId owner = 0;
  owners_for_key(key, std::span<NodeId>(&owner, 1));
  return owner;
}

// ------------------------------------------------------------- helpers

namespace {

/// K-way merge by ascending id with duplicate-id elision (replication
/// factors > 2 place one flow in several replica stores; every copy is
/// identical, keyed by its global id). Inputs are each ascending.
std::vector<StoredFlow> merge_rows(std::vector<std::vector<StoredFlow>> parts,
                                   std::size_t limit) {
  if (parts.size() == 1) {
    if (parts[0].size() > limit) parts[0].resize(limit);
    return std::move(parts[0]);
  }
  std::vector<StoredFlow> merged;
  std::vector<std::size_t> pos(parts.size(), 0);
  std::uint64_t last_id = 0;
  bool have_last = false;
  while (merged.size() < limit) {
    std::size_t best = parts.size();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      // Skip copies of the row just emitted.
      while (pos[p] < parts[p].size() && have_last &&
             parts[p][pos[p]].id == last_id)
        ++pos[p];
      if (pos[p] >= parts[p].size()) continue;
      if (best == parts.size() ||
          parts[p][pos[p]].id < parts[best][pos[best]].id)
        best = p;
    }
    if (best == parts.size()) break;
    last_id = parts[best][pos[best]].id;
    have_last = true;
    merged.push_back(std::move(parts[best][pos[best]]));
    ++pos[best];
  }
  return merged;
}

std::string node_label(NodeId node) {
  return "node=" + std::to_string(node);
}

/// Order gathered log events by (ts, source, severity, message),
/// stably; with `dedup`, collapse the field-identical copies that
/// overlapping stores return.
void sort_logs(std::vector<LogEvent>& events, bool dedup) {
  const auto key = [](const LogEvent& e) {
    return std::tie(e.ts, e.source, e.severity, e.message);
  };
  std::stable_sort(events.begin(), events.end(),
                   [&](const LogEvent& a, const LogEvent& b) {
                     return key(a) < key(b);
                   });
  if (!dedup) return;
  events.erase(std::unique(events.begin(), events.end(),
                           [&](const LogEvent& a, const LogEvent& b) {
                             return key(a) == key(b) &&
                                    a.subject == b.subject;
                           }),
               events.end());
}

}  // namespace

// ------------------------------------------------------------- Cluster

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      replication_(std::clamp<std::size_t>(config_.replication, 1,
                                           std::max<std::size_t>(
                                               config_.nodes, 1))),
      ring_(config_.nodes, config_.vnodes, config_.ring_seed) {
  const std::size_t n = ring_.nodes();
  auto& registry = obs::Registry::global();
  obs_acked_ = &registry.counter("cluster.flows_acked");
  obs_lost_ = &registry.counter("cluster.flows_lost");
  obs_degraded_queries_ = &registry.counter("cluster.degraded_queries");
  // Default topology is in-process; a ShardFactory swaps every
  // constructor call for (typically) a RemoteShard — nothing else in
  // the cluster knows the difference.
  const auto make_shard = [this](NodeId via, NodeId owner,
                                 DataStoreConfig cfg)
      -> std::unique_ptr<StoreShard> {
    if (config_.shard_factory)
      return config_.shard_factory(via, owner, std::move(cfg));
    return std::make_unique<LocalShard>(std::move(cfg));
  };
  nodes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>();
    DataStoreConfig primary_cfg = config_.node_store;
    if (!primary_cfg.spill_directory.empty())
      primary_cfg.spill_directory += "/node" + std::to_string(i);
    node->primary = make_shard(i, i, std::move(primary_cfg));
    node->replicas.resize(n);
    for (NodeId owner = 0; owner < n; ++owner) {
      if (owner == i || replication_ < 2) continue;
      DataStoreConfig rep_cfg = config_.node_store;
      if (!rep_cfg.spill_directory.empty())
        rep_cfg.spill_directory += "/node" + std::to_string(i) + "/owner" +
                                   std::to_string(owner);
      node->replicas[owner] = make_shard(i, owner, std::move(rep_cfg));
    }
    node->rpc_failures =
        &registry.counter("cluster.rpc_failures", node_label(i));
    gauges_.push_back(registry.register_callback(
        "cluster.replica_lag", node_label(i), [raw = node.get()] {
          return static_cast<double>(
              raw->replica_lag.load(std::memory_order_relaxed));
        }));
    nodes_.push_back(std::move(node));
  }
  gauges_.push_back(registry.register_callback(
      "cluster.live_nodes", {},
      [this] { return static_cast<double>(live_nodes()); }));
  gauges_.push_back(registry.register_callback(
      "cluster.dead_nodes", {}, [this] {
        return static_cast<double>(nodes_.size() - live_nodes());
      }));
}

Cluster::~Cluster() = default;

template <typename Fn>
auto Cluster::send(NodeId via, Fn&& fn) const -> decltype(fn()) {
  const resilience::RetryPolicy& policy = config_.rpc_retry;
  Rng jitter(config_.rpc_seed ^
             rpc_calls_.fetch_add(1, std::memory_order_relaxed));
  Duration spent{};
  for (std::size_t attempt = 1;; ++attempt) {
    Node& node = *nodes_[via];
    if (!node.alive.load(std::memory_order_acquire))
      return Error::make("node_dead",
                         "node " + std::to_string(via) + " is down");
    std::string transient;
    const Status fault =
        resilience::fault_point_status("store.shard_rpc");
    if (fault.ok()) {
      auto result = fn();
      if (result.ok()) return result;
      const std::string& code = result.error().code;
      // A refused connection IS a killed node: flip the scopes now
      // instead of burning the retry deadline on every message.
      if (code == "connect_refused") {
        mark_dead(via, "connect_refused");
        node.rpc_failures->increment();
        return Error::make("node_dead",
                           "node " + std::to_string(via) +
                               " refused connection");
      }
      // Broken/stalled stream: transient, worth the backoff (the
      // shard's ascending-id replay dedup makes an ingest resend
      // safe). Everything else — shard errors, wire violations,
      // injected store faults — passes through untouched.
      if (code != "rpc_io" && code != "rpc_timeout") return result;
      transient = result.error().message;
    } else {
      transient = fault.error().message;
    }
    if (attempt >= policy.max_attempts) {
      node.rpc_failures->increment();
      return Error::make("rpc_failed", transient);
    }
    const Duration backoff =
        resilience::backoff_for(policy, attempt, jitter);
    if (policy.deadline.count_nanos() > 0 &&
        spent + backoff > policy.deadline) {
      node.rpc_failures->increment();
      return Error::make("rpc_failed",
                         "shard_rpc backoff budget exhausted");
    }
    spent += backoff;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(backoff.count_nanos()));
  }
}

// -------------------------------------------------------------- ingest

ClusterIngestReport Cluster::ingest(
    std::span<const capture::FlowRecord> flows) {
  ClusterIngestReport report;
  if (flows.empty()) return report;
  const std::size_t n = nodes_.size();

  // Route: assign global ids in input order (canonical export order in
  // = deterministic ids out), then bucket rows into one batch per
  // target store. `members` remembers which input rows ride in each
  // batch so prefix-acks map back to per-flow copy counts.
  struct Batch {
    ShardIngestBatch msg;
    std::vector<std::size_t> members;
  };
  std::vector<Batch> primary(n);
  std::vector<std::vector<Batch>> replica(n);
  for (auto& r : replica) r.resize(n);
  std::vector<NodeId> owners(replication_);
  std::vector<std::uint8_t> copies(flows.size(), 0);
  std::vector<NodeId> owner_of(flows.size(), 0);
  report.first_id = next_id_;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::uint64_t id = next_id_++;
    ring_.owners_for_key(HashRing::key_of(flows[i].tuple),
                         std::span<NodeId>(owners));
    owner_of[i] = owners[0];
    primary[owners[0]].msg.rows.push_back(StoredFlow{id, flows[i]});
    primary[owners[0]].members.push_back(i);
    for (std::size_t k = 1; k < replication_; ++k) {
      Batch& b = replica[owners[k]][owners[0]];
      b.msg.rows.push_back(StoredFlow{id, flows[i]});
      b.members.push_back(i);
    }
  }
  report.last_id = next_id_ - 1;

  auto apply = [&](NodeId via, StoreShard* shard, Batch& batch) {
    if (batch.msg.rows.empty()) return;
    const auto ack = send(via, [&] { return shard->ingest(batch.msg); });
    const std::uint64_t applied = ack.ok() ? ack.value().applied : 0;
    for (std::uint64_t k = 0; k < applied; ++k) ++copies[batch.members[k]];
  };
  for (NodeId via = 0; via < n; ++via)
    apply(via, nodes_[via]->primary.get(), primary[via]);
  for (NodeId via = 0; via < n; ++via)
    for (NodeId owner = 0; owner < n; ++owner)
      if (nodes_[via]->replicas[owner] != nullptr)
        apply(via, nodes_[via]->replicas[owner].get(), replica[via][owner]);

  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (copies[i] == 0) {
      ++report.lost;
    } else {
      ++report.acked;
      if (copies[i] >= replication_) {
        ++report.fully_replicated;
      } else {
        nodes_[owner_of[i]]->replica_lag.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
  }
  acked_.fetch_add(report.acked, std::memory_order_relaxed);
  lost_.fetch_add(report.lost, std::memory_order_relaxed);
  obs_acked_->add(report.acked);
  obs_lost_->add(report.lost);
  return report;
}

std::uint64_t Cluster::ingest(const capture::FlowRecord& flow) {
  const ClusterIngestReport report = ingest(std::span(&flow, 1));
  return report.acked > 0 ? report.last_id : 0;
}

void Cluster::ingest_log(const LogEvent& event) {
  std::vector<NodeId> owners(replication_);
  ring_.owners_for_key(
      util::mix64(
          util::fnv1a_step(util::kFnvOffsetBasis, event.subject.value())),
      std::span<NodeId>(owners));
  for (std::size_t k = 0; k < replication_; ++k) {
    const NodeId via = owners[k];
    StoreShard* shard = (k == 0)
                            ? static_cast<StoreShard*>(
                                  nodes_[via]->primary.get())
                            : nodes_[via]->replicas[owners[0]].get();
    if (shard == nullptr) continue;
    // Best-effort, mirroring the flow copies: a failed copy is lag the
    // surviving one covers.
    (void)send(via, [&] { return shard->ingest_log(event); });
  }
}

// ------------------------------------------------------------- queries

std::vector<std::pair<NodeId, const StoreShard*>> Cluster::replica_sources(
    NodeId owner) const {
  std::vector<std::pair<NodeId, const StoreShard*>> out;
  for (NodeId j = 0; j < nodes_.size(); ++j) {
    if (j == owner || !alive(j)) continue;
    if (nodes_[j]->replicas[owner] != nullptr)
      out.emplace_back(j, nodes_[j]->replicas[owner].get());
  }
  return out;
}

std::vector<Cluster::Scope> Cluster::scopes(ClusterQueryStats* stats) const {
  std::vector<Scope> out;
  out.reserve(nodes_.size());
  for (NodeId owner = 0; owner < nodes_.size(); ++owner) {
    Scope scope;
    scope.owner = owner;
    const bool lagged =
        nodes_[owner]->replica_lag.load(std::memory_order_relaxed) > 0;
    if (alive(owner)) {
      scope.sources.emplace_back(owner, nodes_[owner]->primary.get());
      // Under-replicated scope: a copy the primary never applied may
      // exist only on a replica, so gather those too (the id merge
      // dedups the overlap). Keeps every acked flow queryable.
      if (lagged)
        for (auto& src : replica_sources(owner))
          scope.sources.push_back(src);
    } else {
      scope.replica = true;
      scope.sources = replica_sources(owner);
      if (stats != nullptr) ++stats->replica_scopes;
    }
    out.push_back(std::move(scope));
  }
  return out;
}

std::vector<StoredFlow> Cluster::gather_scope(NodeId owner,
                                              const ShardQueryPlan& plan,
                                              ClusterQueryStats& stats) const {
  std::vector<std::vector<StoredFlow>> parts;
  bool primary_ok = false;
  const bool lagged =
      nodes_[owner]->replica_lag.load(std::memory_order_relaxed) > 0;
  if (alive(owner)) {
    auto reply =
        send(owner, [&] { return nodes_[owner]->primary->query(plan); });
    if (reply.ok()) {
      primary_ok = true;
      ++stats.shards_queried;
      stats.scan += reply.value().stats;
      if (!lagged) return std::move(reply).value().rows;
      parts.push_back(std::move(reply).value().rows);
    } else {
      // Primary unreachable mid-query: flip this scope to its
      // replicas.
      ++stats.rpc_failures;
      obs_degraded_queries_->increment();
    }
  }
  if (!primary_ok) ++stats.replica_scopes;
  for (const auto& [via, shard] : replica_sources(owner)) {
    auto reply = send(via, [&, shard = shard] { return shard->query(plan); });
    if (!reply.ok()) {
      ++stats.rpc_failures;
      continue;
    }
    ++stats.shards_queried;
    stats.scan += reply.value().stats;
    parts.push_back(std::move(reply).value().rows);
  }
  if (parts.empty()) return {};
  return merge_rows(std::move(parts), plan.max_rows);
}

ClusterQueryResult Cluster::query(const FlowQuery& q) const {
  ClusterQueryStats stats;
  stats.scan.index = planned_index(q);
  ShardQueryPlan plan;
  plan.query = q;
  plan.max_rows = q.limit;
  // The global first-`limit` rows are a subset of the union of each
  // scope's first `limit`, so one capped pull per scope suffices.
  std::vector<std::vector<StoredFlow>> per_scope;
  per_scope.reserve(nodes_.size());
  for (NodeId owner = 0; owner < nodes_.size(); ++owner)
    per_scope.push_back(gather_scope(owner, plan, stats));
  return ClusterQueryResult(merge_rows(std::move(per_scope), q.limit),
                            stats);
}

AggregateResult Cluster::aggregate(const FlowQuery& q, GroupBy group_by,
                                   std::size_t top_k) const {
  FlowQuery filter = q;
  filter.limit = std::numeric_limits<std::size_t>::max();
  ClusterQueryStats stats;
  AggregateResult result;
  result.group_by = group_by;
  AggregateGroups merged;
  for (NodeId owner = 0; owner < nodes_.size(); ++owner) {
    const bool lagged =
        nodes_[owner]->replica_lag.load(std::memory_order_relaxed) > 0;
    if (alive(owner) && !lagged) {
      // top_k = 0: shard partials must be complete to merge exactly.
      auto reply = send(owner, [&] {
        return nodes_[owner]->primary->aggregate(filter, group_by, 0);
      });
      if (reply.ok()) {
        ++stats.shards_queried;
        stats.scan += reply.value().stats;
        result.matched_flows += reply.value().matched_flows;
        for (const auto& row : reply.value().rows) fold_row(merged, row);
        continue;
      }
      ++stats.rpc_failures;
      obs_degraded_queries_->increment();
    }
    // Degraded or under-replicated scope: gather deduped rows (shard
    // partials from overlapping replica stores could double-count at
    // replication factors > 2) and fold them here by the shards' rule.
    ShardQueryPlan plan;
    plan.query = filter;
    const auto rows = gather_scope(owner, plan, stats);
    result.matched_flows += rows.size();
    for (const auto& row : rows) fold_flow(merged, group_by, row.flow);
  }
  result.rows = ranked_rows(merged, top_k);
  result.stats = stats.scan;
  return result;
}

ClusterCursor Cluster::open_cursor(FlowQuery q) const {
  return ClusterCursor(this, std::move(q));
}

void Cluster::gather_logs(const Scope& scope, LogQuery filter,
                          std::vector<LogEvent>& out) const {
  filter.limit = std::numeric_limits<std::size_t>::max();
  for (const auto& [via, shard] : scope.sources) {
    auto reply =
        send(via, [&, shard = shard] { return shard->query_logs(filter); });
    if (!reply.ok()) continue;
    for (const auto& ev : reply.value()) out.push_back(ev);
  }
}

LogResult Cluster::query_logs(const LogQuery& q) const {
  std::vector<LogEvent> events;
  // Copies of one event are field-identical, so when the gather can
  // touch overlapping stores — a lagged owner reading primary AND
  // replicas, or dead-owner replica scopes at replication > 2 — the
  // duplicates are collapsed after the merge sort. Healthy
  // replication-2 gathers are overlap-free and skip the dedup, so two
  // genuinely identical ingested events stay two, as single-node.
  bool overlap = replication_ > 2;
  for (const Scope& scope : scopes(nullptr)) {
    if (scope.sources.size() > 1 && !scope.replica) overlap = true;
    gather_logs(scope, q, events);
  }
  sort_logs(events, overlap);
  if (events.size() > q.limit) events.resize(q.limit);
  return LogResult(std::move(events));
}

CatalogInfo Cluster::catalog() const {
  CatalogInfo total;
  bool have_span = false;
  // Span (min/max) folds are idempotent — duplicate copies can't skew
  // them — so they fold from every reachable store unconditionally.
  auto fold_span = [&](const CatalogInfo& part) {
    if (part.total_flows == 0 && part.total_log_events == 0) return;
    if (!have_span) {
      total.earliest = part.earliest;
      total.latest = part.latest;
      have_span = true;
    } else {
      total.earliest = std::min(total.earliest, part.earliest);
      total.latest = std::max(total.latest, part.latest);
    }
  };
  for (const Scope& scope : scopes(nullptr)) {
    // Overlapping copies: a lagged owner reads primary + replicas (the
    // same flow on both), and dead-owner replica scopes overlap at
    // replication > 2. Disjoint scopes fold store catalogs directly.
    const bool overlap =
        scope.sources.size() > 1 && (!scope.replica || replication_ > 2);
    std::vector<CatalogInfo> parts;
    parts.reserve(scope.sources.size());
    for (const auto& [via, shard] : scope.sources) {
      auto reply = send(via, [&, shard = shard]() -> Result<CatalogInfo> {
        return shard->catalog();
      });
      if (reply.ok()) parts.push_back(reply.value());
    }
    for (const CatalogInfo& part : parts) {
      // Physical storage is physical: every reachable store's segments
      // exist, copies or not.
      total.segments += part.segments;
      total.cold_segments += part.cold_segments;
      total.evicted_by_retention += part.evicted_by_retention;
      fold_span(part);
      if (overlap) continue;
      total.total_flows += part.total_flows;
      total.total_packets += part.total_packets;
      total.total_bytes += part.total_bytes;
      total.total_log_events += part.total_log_events;
      for (std::size_t l = 0; l < part.flows_per_label.size(); ++l)
        total.flows_per_label[l] += part.flows_per_label[l];
    }
    if (!overlap) continue;
    // Additive fields of an overlapping scope fold from id-deduped
    // rows instead — the lagged state this pays for is transient.
    ClusterQueryStats scratch;
    ShardQueryPlan plan;
    for (const StoredFlow& row : gather_scope(scope.owner, plan, scratch)) {
      ++total.total_flows;
      total.total_packets += row.flow.packets;
      total.total_bytes += row.flow.bytes;
      ++total.flows_per_label[static_cast<std::size_t>(
          row.flow.majority_label())];
    }
    // Log copies are field-identical across the scope; count distinct.
    std::vector<LogEvent> events;
    gather_logs(scope, LogQuery{}, events);
    sort_logs(events, true);
    total.total_log_events += events.size();
  }
  return total;
}

std::uint64_t Cluster::size() const {
  std::uint64_t total = 0;
  for (const Scope& scope : scopes(nullptr)) {
    const bool overlap =
        scope.sources.size() > 1 && (!scope.replica || replication_ > 2);
    if (overlap) {
      // Count distinct ids via the deduping gather.
      ClusterQueryStats scratch;
      ShardQueryPlan plan;
      total += gather_scope(scope.owner, plan, scratch).size();
      continue;
    }
    for (const auto& [via, shard] : scope.sources) {
      auto reply = send(via, [&, shard = shard]() -> Result<std::uint64_t> {
        return shard->flow_count();
      });
      total += reply.value_or(0);
    }
  }
  return total;
}

// ---------------------------------------------------------- resilience

void Cluster::mark_dead(NodeId node, const char* reason) const {
  if (node >= nodes_.size()) return;
  if (!nodes_[node]->alive.exchange(false, std::memory_order_acq_rel))
    return;  // already dead; count each death once
  obs::Registry::global()
      .counter("cluster.node_deaths",
               node_label(node) + ",reason=" + reason)
      .increment();
}

void Cluster::kill_node(NodeId node) { mark_dead(node, "killed"); }

bool Cluster::alive(NodeId node) const noexcept {
  return node < nodes_.size() &&
         nodes_[node]->alive.load(std::memory_order_acquire);
}

std::size_t Cluster::live_nodes() const noexcept {
  std::size_t live = 0;
  for (const auto& node : nodes_)
    if (node->alive.load(std::memory_order_acquire)) ++live;
  return live;
}

std::uint64_t Cluster::replica_lag(NodeId node) const noexcept {
  if (node >= nodes_.size()) return 0;
  return nodes_[node]->replica_lag.load(std::memory_order_relaxed);
}

resilience::HealthState Cluster::feed_health(
    resilience::HealthMonitor& monitor) const {
  // Dead-node fraction rides the occupancy channel: the default
  // thresholds read "half the cluster gone = Degraded".
  const double dead_fraction =
      nodes_.empty()
          ? 0.0
          : static_cast<double>(nodes_.size() - live_nodes()) /
                static_cast<double>(nodes_.size());
  return monitor.update(dead_fraction);
}

const DataStore& Cluster::primary_store(NodeId node) const {
  // In-process escape hatch by contract: callers (tests, benches) own
  // the topology and only ask this of LocalShard-backed clusters.
  auto* local = dynamic_cast<const LocalShard*>(nodes_[node]->primary.get());
  if (local == nullptr)
    throw std::logic_error("primary_store(): node " + std::to_string(node) +
                           " is not an in-process LocalShard");
  return local->store();
}

// -------------------------------------------------------- ClusterCursor

ClusterCursor::ClusterCursor(const Cluster* cluster, FlowQuery query)
    : cluster_(cluster), query_(std::move(query)) {
  stats_.scan.index = planned_index(query_);
  for (const Cluster::Scope& scope : cluster_->scopes(&stats_)) {
    for (const auto& [via, shard] : scope.sources) {
      Stream stream;
      stream.via = via;
      stream.shard = shard;
      streams_.push_back(std::move(stream));
    }
  }
}

bool ClusterCursor::refill(Stream& stream) {
  ShardQueryPlan plan;
  plan.query = query_;
  plan.query.limit = std::numeric_limits<std::size_t>::max();
  plan.after_id = stream.after_id;
  plan.max_rows = cluster_->config_.cursor_chunk;
  auto reply = cluster_->send(
      stream.via, [&] { return stream.shard->query(plan); });
  if (!reply.ok()) {
    ++stats_.rpc_failures;
    stream.exhausted = true;
    stream.buffer.clear();
    stream.pos = 0;
    return false;
  }
  ShardQueryRows msg = std::move(reply).value();
  ++stats_.shards_queried;
  stats_.scan += msg.stats;
  stream.buffer = std::move(msg.rows);
  stream.pos = 0;
  if (!stream.buffer.empty()) stream.after_id = stream.buffer.back().id;
  if (msg.exhausted) stream.exhausted = true;
  return stream.pos < stream.buffer.size();
}

bool ClusterCursor::next() {
  if (produced_ >= query_.limit) return false;
  for (auto& stream : streams_)
    while (stream.pos >= stream.buffer.size() && !stream.exhausted)
      refill(stream);
  std::size_t best = streams_.size();
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    if (streams_[s].pos >= streams_[s].buffer.size()) continue;
    if (best == streams_.size() ||
        streams_[s].buffer[streams_[s].pos].id <
            streams_[best].buffer[streams_[best].pos].id)
      best = s;
  }
  if (best == streams_.size()) return false;
  current_ = std::move(streams_[best].buffer[streams_[best].pos]);
  // Advance every stream holding a copy of this row (replication > 2
  // overlaps replica stores), keeping the merge duplicate-free.
  for (auto& stream : streams_) {
    while (stream.pos < stream.buffer.size() &&
           stream.buffer[stream.pos].id == current_.id)
      ++stream.pos;
  }
  ++produced_;
  return true;
}

}  // namespace campuslab::store
