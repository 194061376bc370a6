#include "campuslab/capture/sharded_engine.h"

#include <algorithm>
#include <exception>
#include <string>

#include "campuslab/obs/stage_timer.h"
#include "campuslab/resilience/fault.h"
#include "campuslab/util/hash.h"

namespace campuslab::capture {
namespace {

struct ShardedMetrics {
  obs::Histogram& decode_ns = obs::stage_histogram("tap_decode");
  obs::Histogram& enqueue_ns = obs::stage_histogram("ring_enqueue");
  obs::Histogram& dequeue_ns = obs::stage_histogram("ring_dequeue");
  obs::Histogram& dispatch_ns = obs::stage_histogram("sink_dispatch");
  // Supervisor: time from catching a worker death to the worker loop
  // re-entering its poll loop.
  obs::Histogram& restart_ns =
      obs::Registry::global().histogram("resilience.restart_ns");
  obs::Counter& quarantined =
      obs::Registry::global().counter("resilience.shard_quarantined_total");
  obs::Counter& rerouted =
      obs::Registry::global().counter("resilience.rerouted_packets_total");

  static ShardedMetrics& get() {
    static ShardedMetrics m;
    return m;
  }
};

/// FNV-1a over the frame prefix + length: a cheap deterministic spread
/// for frames that have no 5-tuple to hash. Uses the compat basis so
/// shard placement is unchanged from before the hash dedup (pinned by
/// ShardedCaptureEngine.SpreaderOutputPinned).
std::uint64_t prefix_hash(std::span<const std::uint8_t> bytes) noexcept {
  const std::size_t n = std::min<std::size_t>(bytes.size(), 32);
  const std::uint64_t h =
      util::fnv1a(bytes.first(n), util::kFnvCompatBasis);
  return util::fnv1a_step(h, bytes.size());
}

}  // namespace

ShardedCaptureEngine::ShardedCaptureEngine(ShardedCaptureConfig config)
    : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.poll_batch == 0) config_.poll_batch = 1;
  shards_.reserve(config_.shards);
  auto& registry = obs::Registry::global();
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity);
    const std::string label = "shard=" + std::to_string(i);
    shard->obs_offered = &registry.counter("capture.shard.offered", label);
    shard->obs_dropped = &registry.counter("capture.shard.dropped", label);
    shard->obs_consumed = &registry.counter("capture.shard.consumed", label);
    shard->obs_restarts =
        &registry.counter("resilience.worker_restarts_total", label);
    shard->obs_abandoned = &registry.counter("capture.shard.abandoned", label);
    obs_handles_.push_back(registry.register_callback(
        "capture.ring_occupancy", label, [ring = &shard->ring] {
          return static_cast<double>(ring->size());
        }));
    shards_.push_back(std::move(shard));
  }
  (void)ShardedMetrics::get();  // resolve stage histograms up front
}

ShardedCaptureEngine::~ShardedCaptureEngine() { stop(); }

void ShardedCaptureEngine::add_sink_factory(const SinkFactory& factory) {
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->sinks.push_back(factory(i));
}

std::size_t ShardedCaptureEngine::shard_of(
    const packet::PacketView& view) const noexcept {
  if (shards_.size() == 1) return 0;
  if (view.valid() && view.is_ipv4()) {
    if (const auto tuple = view.five_tuple()) {
      // Bidirectional key: both directions of a conversation must land
      // on the same shard, or flow metering would split every
      // conversation.
      return static_cast<std::size_t>(tuple->bidirectional().hash()) %
             shards_.size();
    }
  }
  // No tuple to key on: spread by a byte hash so junk/non-IP bursts
  // don't all pile onto one shard.
  return static_cast<std::size_t>(prefix_hash(view.frame())) %
         shards_.size();
}

bool ShardedCaptureEngine::offer(const packet::Packet& pkt,
                                 sim::Direction dir) {
  // Refcount bump, not a deep copy — dropped frames cost nothing extra.
  return offer(packet::Packet(pkt), dir);
}

bool ShardedCaptureEngine::offer(packet::Packet&& pkt, sim::Direction dir) {
  auto& metrics = ShardedMetrics::get();
  // Decode once at the tap; the same view picks the shard and rides the
  // ring so no worker ever re-parses the frame.
  DecodedPacket decoded;
  {
    obs::StageTimer timer(metrics.decode_ns);
    decoded = DecodedPacket(std::move(pkt), dir);
  }
  std::size_t idx = shard_of(decoded.view);
  if (shards_[idx]->quarantined.load(std::memory_order_acquire)) {
    // Deterministic reroute walk: the slice of a quarantined shard goes
    // to the next live shard, so the mapping stays a pure function of
    // (tuple, quarantine set) and both directions still co-locate.
    std::size_t live = shards_.size();
    for (std::size_t k = 1; k < shards_.size(); ++k) {
      const std::size_t candidate = (idx + k) % shards_.size();
      if (!shards_[candidate]->quarantined.load(std::memory_order_acquire)) {
        live = candidate;
        break;
      }
    }
    if (live == shards_.size()) {
      // Every shard quarantined: account the loss against the home
      // shard so offered == accepted + dropped still holds.
      Shard& home = *shards_[idx];
      home.stats.record_offer(decoded.pkt.size());
      home.obs_offered->increment();
      home.stats.record_drop(decoded.pkt.size());
      home.obs_dropped->increment();
      return false;
    }
    idx = live;
    rerouted_.fetch_add(1, std::memory_order_relaxed);
    metrics.rerouted.increment();
  }
  Shard& shard = *shards_[idx];
  const auto size = decoded.pkt.size();
  shard.stats.record_offer(size);
  shard.obs_offered->increment();
  bool pushed;
  {
    obs::StageTimer timer(metrics.enqueue_ns);
    pushed = shard.ring.try_push(std::move(decoded));
  }
  if (!pushed) {
    shard.stats.record_drop(size);
    shard.obs_dropped->increment();
    return false;
  }
  shard.stats.record_accept();
  return true;
}

std::size_t ShardedCaptureEngine::consume_batch(Shard& shard,
                                                std::size_t max_batch) {
  auto& metrics = ShardedMetrics::get();
  std::size_t consumed = 0;
  DecodedPacket tagged;
  try {
    while (consumed < max_batch) {
      bool popped;
      {
        obs::StageTimer timer(metrics.dequeue_ns);
        popped = shard.ring.try_pop(tagged);
        if (!popped) timer.cancel();  // empty-ring probes are not latency
      }
      if (!popped) break;
      // The frame left the ring: it is consumed no matter what the
      // sinks do with it. Counting before dispatch keeps
      // offered == consumed + dropped exact across worker deaths —
      // an injected sink exception loses zero packets from accounting.
      ++consumed;
      {
        obs::StageTimer timer(metrics.dispatch_ns);
        resilience::fault_point("capture.sink_dispatch");
        for (const auto& sink : shard.sinks) sink(tagged);
      }
    }
  } catch (...) {
    if (consumed > 0) {
      shard.stats.record_consumed(consumed);
      shard.obs_consumed->add(consumed);
    }
    throw;
  }
  if (consumed > 0) {
    shard.stats.record_consumed(consumed);
    shard.obs_consumed->add(consumed);
  }
  return consumed;
}

void ShardedCaptureEngine::run_worker(Shard& shard) {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    resilience::fault_point("capture.worker");
    if (consume_batch(shard, config_.poll_batch) == 0)
      std::this_thread::yield();
  }
  // Drain-on-shutdown, bounded: the producer has stopped offering by
  // the time stop() is called, so draining to empty loses nothing —
  // unless a sink has wedged, in which case the deadline fires and the
  // remainder is abandoned (counted) instead of hanging stop().
  const std::uint64_t deadline =
      config_.stop_drain_deadline.count_nanos() > 0
          ? obs::monotonic_ns() + static_cast<std::uint64_t>(
                                      config_.stop_drain_deadline.count_nanos())
          : 0;
  std::size_t n;
  while ((n = consume_batch(shard, config_.poll_batch)) > 0) {
    shard.stats.record_drained(n);
    if (deadline != 0 && obs::monotonic_ns() >= deadline) {
      abandon_ring(shard);
      return;
    }
  }
}

void ShardedCaptureEngine::worker_loop(Shard& shard) {
  auto& metrics = ShardedMetrics::get();
  for (;;) {
    try {
      run_worker(shard);
      return;
    } catch (const std::exception&) {
      // Supervisor: the worker died mid-dispatch. The in-flight frame
      // is already counted consumed; record the death and restart with
      // the ring intact, or quarantine past the budget.
      const std::uint64_t t0 = obs::monotonic_ns();
      const std::uint64_t deaths =
          shard.restarts.fetch_add(1, std::memory_order_relaxed) + 1;
      shard.obs_restarts->increment();
      if (deaths > config_.max_worker_restarts) {
        quarantine(shard);
        return;
      }
      metrics.restart_ns.observe(obs::monotonic_ns() - t0);
    }
  }
}

void ShardedCaptureEngine::abandon_ring(Shard& shard) {
  DecodedPacket tagged;
  std::uint64_t n = 0;
  while (shard.ring.try_pop(tagged)) ++n;
  if (n > 0) {
    shard.stats.record_abandoned(n);
    shard.obs_abandoned->add(n);
  }
}

void ShardedCaptureEngine::quarantine(Shard& shard) {
  shard.quarantined.store(true, std::memory_order_release);
  ShardedMetrics::get().quarantined.increment();
  // Frames the dead worker never got to are abandoned, not lost
  // silently. The producer may still push a few frames racing the flag;
  // stop() sweeps quarantined rings once more after joining so the
  // accounting identity is exact at shutdown.
  abandon_ring(shard);
}

void ShardedCaptureEngine::start() {
  if (running_) return;
  stop_requested_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->quarantined.load(std::memory_order_acquire)) continue;
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
  running_ = true;
}

void ShardedCaptureEngine::stop() {
  if (!running_) return;
  stop_requested_.store(true, std::memory_order_release);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  // A producer racing the quarantine flag may have pushed a few frames
  // after the dead worker's final sweep. With all workers joined the
  // rings are single-owner again; sweep quarantined shards once more so
  // accepted == consumed + abandoned is exact, not approximate.
  for (auto& shard : shards_)
    if (shard->quarantined.load(std::memory_order_acquire))
      abandon_ring(*shard);
  running_ = false;
}

std::size_t ShardedCaptureEngine::poll_shard(std::size_t shard,
                                             std::size_t max_batch) {
  return consume_batch(*shards_[shard], max_batch);
}

std::size_t ShardedCaptureEngine::drain() {
  std::size_t total = 0;
  for (auto& shard : shards_)
    while (const auto n = consume_batch(*shard, 1024)) total += n;
  return total;
}

CaptureStats ShardedCaptureEngine::stats() const {
  CaptureStats merged;
  for (const auto& shard : shards_) merged += shard->stats.snapshot();
  merged.buffer_pool = packet::default_buffer_pool().stats();
  return merged;
}

CaptureStats ShardedCaptureEngine::shard_stats(std::size_t shard) const {
  return shards_[shard]->stats.snapshot();
}

std::size_t ShardedCaptureEngine::ring_occupancy(
    std::size_t shard) const noexcept {
  return shards_[shard]->ring.size();
}

std::uint64_t ShardedCaptureEngine::worker_restarts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard->restarts.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t ShardedCaptureEngine::worker_restarts(
    std::size_t shard) const noexcept {
  return shards_[shard]->restarts.load(std::memory_order_relaxed);
}

bool ShardedCaptureEngine::shard_quarantined(
    std::size_t shard) const noexcept {
  return shards_[shard]->quarantined.load(std::memory_order_acquire);
}

std::size_t ShardedCaptureEngine::quarantined_shards() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_)
    n += shard->quarantined.load(std::memory_order_acquire) ? 1 : 0;
  return n;
}

}  // namespace campuslab::capture
