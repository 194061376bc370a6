#include "campuslab/store/sharded_ingest.h"

#include <algorithm>

#include "campuslab/capture/flow.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/store/cluster.h"
#include "campuslab/store/shard.h"

namespace campuslab::store {

ShardedFlowIngester::ShardedFlowIngester(std::size_t shards) {
  if (shards == 0) shards = 1;
  buffers_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    buffers_.push_back(std::make_unique<Buffer>());
  obs_pending_ = obs::Registry::global().register_callback(
      "store.ingest_pending", "",
      [this] { return static_cast<double>(pending()); });
}

void ShardedFlowIngester::ingest(std::size_t shard,
                                 const capture::FlowRecord& flow) {
  {
    std::lock_guard<std::mutex> lock(buffers_[shard]->mu);
    buffers_[shard]->flows.push_back(flow);
  }
  pending_.fetch_add(1, std::memory_order_release);
}

std::vector<capture::FlowRecord> ShardedFlowIngester::take_sorted() {
  std::vector<capture::FlowRecord> merged;
  for (auto& buffer : buffers_) {
    std::vector<capture::FlowRecord> taken;
    {
      std::lock_guard<std::mutex> lock(buffer->mu);
      taken.swap(buffer->flows);
    }
    merged.insert(merged.end(), std::make_move_iterator(taken.begin()),
                  std::make_move_iterator(taken.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   capture::flow_export_before);
  return merged;
}

void ShardedFlowIngester::rebuffer(std::vector<capture::FlowRecord>& merged,
                                   std::size_t from) {
  // The flows stay pending, nothing is lost, and the next merge's
  // canonical sort restores order. Parked in buffer 0 — the buffer a
  // flow waits in carries no meaning.
  std::lock_guard<std::mutex> lock(buffers_[0]->mu);
  buffers_[0]->flows.insert(
      buffers_[0]->flows.end(),
      std::make_move_iterator(merged.begin() +
                              static_cast<std::ptrdiff_t>(from)),
      std::make_move_iterator(merged.end()));
}

std::uint64_t ShardedFlowIngester::merge_into(DataStore& store) {
  std::vector<capture::FlowRecord> merged = take_sorted();
  for (const auto& flow : merged) store.ingest(flow);
  pending_.fetch_sub(merged.size(), std::memory_order_release);
  merged_total_ += merged.size();
  obs::Registry::global().counter("store.merged_flows").add(merged.size());
  return merged.size();
}

Result<std::uint64_t> ShardedFlowIngester::merge_into(
    DataStore& store, const resilience::RetryPolicy& policy,
    const resilience::Sleeper& sleeper) {
  std::vector<capture::FlowRecord> merged = take_sorted();
  std::size_t ingested = 0;
  Status terminal = Status::success();
  for (const auto& flow : merged) {
    Status status = resilience::retry_status(
        policy, retry_rng_, "store.ingest",
        [&store, &flow] {
          Status injected =
              resilience::fault_point_status("store.ingest");
          if (!injected.ok()) return injected;
          store.ingest(flow);
          return Status::success();
        },
        sleeper);
    if (!status.ok()) {
      terminal = std::move(status);
      break;
    }
    ++ingested;
  }
  pending_.fetch_sub(ingested, std::memory_order_release);
  merged_total_ += ingested;
  obs::Registry::global().counter("store.merged_flows").add(ingested);
  if (!terminal.ok()) {
    rebuffer(merged, ingested);
    return terminal.error();
  }
  return static_cast<std::uint64_t>(ingested);
}

Result<std::uint64_t> ShardedFlowIngester::merge_into(StoreShard& shard) {
  std::vector<capture::FlowRecord> merged = take_sorted();
  ShardIngestBatch batch;
  batch.rows.reserve(merged.size());
  for (const auto& flow : merged)
    batch.rows.push_back(StoredFlow{0, flow});  // id 0: shard assigns
  const auto ack = shard.ingest(batch);
  const std::uint64_t applied =
      ack.ok() ? std::min<std::uint64_t>(ack.value().applied, merged.size())
               : 0;
  pending_.fetch_sub(applied, std::memory_order_release);
  merged_total_ += applied;
  obs::Registry::global().counter("store.merged_flows").add(applied);
  if (applied < merged.size()) {
    rebuffer(merged, applied);
    if (!ack.ok()) return ack.error();
    return Error::make("ingest_partial",
                       "shard applied " + std::to_string(applied) + " of " +
                           std::to_string(merged.size()) + " rows");
  }
  return applied;
}

ClusterIngestReport ShardedFlowIngester::merge_into(Cluster& cluster) {
  std::vector<capture::FlowRecord> merged = take_sorted();
  const ClusterIngestReport report = cluster.ingest(merged);
  pending_.fetch_sub(merged.size(), std::memory_order_release);
  merged_total_ += report.acked;
  obs::Registry::global().counter("store.merged_flows").add(report.acked);
  return report;
}

}  // namespace campuslab::store
