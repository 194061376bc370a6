#include "campuslab/store/shard.h"

#include "campuslab/resilience/fault.h"
#include "campuslab/store/query_engine.h"

namespace campuslab::store {

LocalShard::LocalShard(DataStoreConfig config)
    : store_(std::make_unique<DataStore>(std::move(config))) {}

LocalShard::~LocalShard() = default;

Result<ShardIngestAck> LocalShard::ingest(const ShardIngestBatch& batch) {
  ShardIngestAck ack;
  for (const auto& row : batch.rows) {
    // The store.ingest fault site, crossed once per row tried; the
    // prefix-ack contract hands the tail back on failure.
    const Status st = resilience::fault_point_status("store.ingest");
    if (!st.ok()) break;
    // Ascending-id replay dedup: an explicit id we already applied is a
    // retransmitted copy — ack it without storing twice.
    if (row.id != 0 && row.id <= last_applied_id_) {
      ++ack.applied;
      continue;
    }
    store_->ingest(row);
    if (row.id != 0) last_applied_id_ = row.id;
    ++ack.applied;
  }
  return ack;
}

Status LocalShard::ingest_log(const LogEvent& event) {
  store_->ingest_log(event);
  return Status::success();
}

Result<ShardQueryRows> LocalShard::query(const ShardQueryPlan& plan) const {
  ShardQueryRows reply;
  const std::size_t cap = std::min(plan.query.limit, plan.max_rows);
  if (plan.after_id == 0) {
    // Fresh scan: ride the store's own segment-parallel executor (pool,
    // metrics, store.query fault site) and copy the matches out.
    FlowQuery q = plan.query;
    q.limit = cap;
    const QueryResult result = store_->query(q);
    reply.stats = result.stats();
    reply.rows.reserve(result.size());
    for (const auto& row : result) reply.rows.push_back(row);
    // A full chunk can't prove the scan ended; a short one can.
    reply.exhausted = reply.rows.size() < cap;
  } else {
    reply.rows = scan_chunk(store_->snapshot(), plan.query, plan.after_id,
                            cap, &reply.stats, &reply.exhausted);
  }
  return reply;
}

Result<AggregateResult> LocalShard::aggregate(const FlowQuery& q,
                                              GroupBy group_by,
                                              std::size_t top_k) const {
  return store_->aggregate(q, group_by, top_k);
}

Result<LogResult> LocalShard::query_logs(const LogQuery& q) const {
  return store_->query_logs(q);
}

Result<CatalogInfo> LocalShard::catalog() const { return store_->catalog(); }

}  // namespace campuslab::store
