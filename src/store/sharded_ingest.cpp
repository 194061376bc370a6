#include "campuslab/store/sharded_ingest.h"

#include <algorithm>
#include <string>
#include <utility>

#include "campuslab/store/cluster.h"
#include "campuslab/store/shard.h"

namespace campuslab::store {

ShardedFlowIngester::ShardedFlowIngester(std::size_t shards) {
  if (shards == 0) shards = 1;
  buffers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    buffers_.push_back(std::make_unique<Buffer>());
    capture::FlowMeter& meter = buffers_.back()->meter;
    meter.set_sink(
        [this, s](const capture::FlowRecord& flow) { ingest(s, flow); });
    // approx_active_flows() is the any-thread mirror, so sampling
    // mid-capture is race-free.
    obs_table_sizes_.push_back(obs::Registry::global().register_callback(
        "flow.table_size", "shard=" + std::to_string(s),
        [meter = &meter] {
          return static_cast<double>(meter->approx_active_flows());
        }));
  }
  obs_pending_ = obs::Registry::global().register_callback(
      "store.ingest_pending", "",
      [this] { return static_cast<double>(pending()); });
}

void ShardedFlowIngester::ingest(std::size_t shard,
                                 const capture::FlowRecord& flow) {
  // Counted under the lock, so take() never subtracts a flow before it
  // was added.
  std::lock_guard<std::mutex> lock(buffers_[shard]->mu);
  buffers_[shard]->flows.push_back(flow);
  pending_.fetch_add(1, std::memory_order_release);
}

void ShardedFlowIngester::flush() {
  for (auto& buffer : buffers_) buffer->meter.flush();
}

capture::FlowMeterStats ShardedFlowIngester::meter_stats() const noexcept {
  capture::FlowMeterStats sum;
  for (const auto& buffer : buffers_) {
    const auto& s = buffer->meter.stats();
    sum.packets_seen += s.packets_seen;
    sum.non_ip_packets += s.non_ip_packets;
    sum.flows_created += s.flows_created;
    sum.flows_evicted_idle += s.flows_evicted_idle;
    sum.flows_evicted_active += s.flows_evicted_active;
    sum.flows_evicted_capacity += s.flows_evicted_capacity;
  }
  return sum;
}

std::vector<capture::FlowRecord> ShardedFlowIngester::take() {
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
  pending_.fetch_sub(merged.size(), std::memory_order_release);
  // stable_sort: records that compare equal keep shard-index order, so
  // the export is a pure function of (per-shard streams, shard order).
  std::stable_sort(merged.begin(), merged.end(),
                   capture::flow_export_before);
  return merged;
}

Result<std::uint64_t> ShardedFlowIngester::merge_into(
    StoreShard& shard, const resilience::RetryPolicy& policy,
    const resilience::Sleeper& sleeper) {
  ShardIngestBatch tail;  // id 0 on every row: the shard assigns ids
  for (auto& flow : take()) tail.rows.push_back(StoredFlow{0, std::move(flow)});
  const std::size_t total = tail.rows.size();
  // A call that applied rows and then stopped already spent the next
  // row's first attempt; its failure opens that row's fresh budget.
  Status stopped = Status::success();
  Status status = Status::success();
  while (status.ok() && !tail.rows.empty()) {
    status = resilience::retry_status(
        policy, retry_rng_, "store.ingest",
        [&]() -> Status {
          if (!stopped.ok()) return std::exchange(stopped, Status::success());
          const auto ack = shard.ingest(tail);
          if (!ack.ok()) return ack.error();
          const std::size_t applied =
              std::min<std::size_t>(ack.value().applied, tail.rows.size());
          tail.rows.erase(tail.rows.begin(),
                          tail.rows.begin() +
                              static_cast<std::ptrdiff_t>(applied));
          if (tail.rows.empty()) return Status::success();
          Status partial = Error::make(
              "ingest_partial",
              "shard applied " + std::to_string(applied) + " of " +
                  std::to_string(applied + tail.rows.size()) + " rows");
          if (applied == 0) return partial;
          stopped = std::move(partial);
          return Status::success();
        },
        sleeper);
  }
  const std::uint64_t applied = total - tail.rows.size();
  merged_total_ += applied;
  obs::Registry::global().counter("store.merged_flows").add(applied);
  if (status.ok()) return applied;
  // The tail stays pending, nothing is lost, and the next merge's
  // canonical sort restores order. Parked in buffer 0 — the buffer a
  // flow waits in carries no meaning.
  std::lock_guard<std::mutex> lock(buffers_[0]->mu);
  for (auto& row : tail.rows)
    buffers_[0]->flows.push_back(std::move(row.flow));
  pending_.fetch_add(tail.rows.size(), std::memory_order_release);
  return status.error();
}

ClusterIngestReport ShardedFlowIngester::merge_into(Cluster& cluster) {
  const ClusterIngestReport report = cluster.ingest(take());
  merged_total_ += report.acked;
  obs::Registry::global().counter("store.merged_flows").add(report.acked);
  return report;
}

}  // namespace campuslab::store
