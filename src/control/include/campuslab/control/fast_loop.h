// FastLoop — the fast, online control loop of Figure 2: sense (parse +
// registers), infer (compiled model), react (drop / rate-limit) on
// every inbound packet at the campus border.
//
// Wraps a deployed SoftwareSwitch as a CampusNetwork ingress filter,
// measures per-packet wall-clock latency (the FIG2 contrast with the
// development loop), and keeps ground-truth-scored mitigation counters
// for road-test reports.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "campuslab/control/development_loop.h"
#include "campuslab/resilience/health.h"
#include "campuslab/sim/campus.h"
#include "campuslab/util/stats.h"

namespace campuslab::control {

struct MitigationStats {
  std::uint64_t inspected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rate_limited_dropped = 0;
  // Ground-truth-scored (uses the simulator's labels).
  std::uint64_t attack_dropped = 0;
  std::uint64_t benign_dropped = 0;
  std::uint64_t attack_passed = 0;
  std::uint64_t benign_passed = 0;

  double drop_precision() const noexcept {
    const auto total = attack_dropped + benign_dropped;
    return total == 0 ? 0.0
                      : static_cast<double>(attack_dropped) /
                            static_cast<double>(total);
  }
  double attack_block_rate() const noexcept {
    const auto total = attack_dropped + attack_passed;
    return total == 0 ? 0.0
                      : static_cast<double>(attack_dropped) /
                            static_cast<double>(total);
  }
  double benign_loss_rate() const noexcept {
    const auto total = benign_dropped + benign_passed;
    return total == 0 ? 0.0
                      : static_cast<double>(benign_dropped) /
                            static_cast<double>(total);
  }
};

class FastLoop {
 public:
  /// Builds the switch from the package. Fails if instantiation fails.
  static Result<std::unique_ptr<FastLoop>> deploy(
      const DeploymentPackage& package);

  /// Install as the network's ingress filter (enforcing). The loop
  /// must outlive the network's use of the filter.
  void install(sim::CampusNetwork& network);

  /// Decide one packet: true = drop. Exposed for canary/testing use.
  /// Parse-once: `view` must be a decode of `pkt`'s bytes, made once
  /// where the frame enters (the installed ingress filter does it).
  bool inspect(const packet::Packet& pkt, const packet::PacketView& view);

  /// Optional degradation hook: every inspect() asks the controller
  /// about kFastLoopVerdict — which is structurally never shed — so the
  /// protected path shows up in the same shed accounting as the tiers
  /// that do yield. Caller keeps ownership; pass nullptr to detach.
  void set_degradation(resilience::DegradationController* controller) {
    degradation_ = controller;
  }

  /// Optional per-verdict observer (class, confidence, dropped), called
  /// at the end of every inspect(). The automation loop feeds its drift
  /// detector from here so the *enforced* stream is the one watched —
  /// no second model pass, no mirror divergence.
  using VerdictHook = std::function<void(int cls, double confidence,
                                         bool dropped)>;
  void set_verdict_hook(VerdictHook hook) { verdict_hook_ = std::move(hook); }

  const MitigationStats& stats() const noexcept { return stats_; }
  /// Wall-clock nanoseconds per inspected packet.
  const RunningStats& latency_ns() const noexcept { return latency_ns_; }

 private:
  FastLoop(const AutomationTask& task,
           std::unique_ptr<dataplane::SoftwareSwitch> sw)
      : task_(task), switch_(std::move(sw)) {}

  AutomationTask task_;
  std::unique_ptr<dataplane::SoftwareSwitch> switch_;
  MitigationStats stats_;
  RunningStats latency_ns_;
  resilience::DegradationController* degradation_ = nullptr;
  VerdictHook verdict_hook_;
  // Token bucket for kRateLimit.
  double tokens_ = 0.0;
  Timestamp last_refill_{};
};

/// RCU-style versioned handle to the live FastLoop. The packet path
/// takes one acquire load of a raw pointer per packet — no refcount,
/// no mutex, no wait on the writer (libstdc++ 12's
/// atomic<shared_ptr<T>> is formally racy: its internal lock is
/// released with memory_order_relaxed, which TSAN rightly flags, so
/// the handle does not use it). The automation loop publishes a new
/// model with swap() under a writer-side mutex; displaced versions are
/// parked in the handle until it is destroyed, so a reader still
/// executing on the old model stays valid — promotions are rare and a
/// deployed tree is a few KB, so the parked set stays tiny. The
/// handle, not a FastLoop, owns the network's ingress filter, so a swap
/// never leaves the dataplane filterless — and an *empty* handle passes
/// traffic rather than blocking it (the loop must degrade to "serve the
/// last good model", and before any model exists the baseline is
/// "forward everything").
class ModelHandle {
 public:
  struct Deployed {
    std::uint32_t version = 0;
    std::unique_ptr<FastLoop> loop;
  };

  /// Install as the network's ingress filter. The handle must outlive
  /// the network's use of the filter (snapshots borrow from the
  /// handle's parked set).
  void install(sim::CampusNetwork& network);

  /// Publish `loop` as version `version`; returns the previous
  /// deployment (possibly null) so the caller can keep it for rollback.
  std::shared_ptr<Deployed> swap(std::uint32_t version,
                                 std::unique_ptr<FastLoop> loop);

  /// Restore a previously acquired deployment verbatim (rollback after
  /// a failed promotion persist). Returns the displaced one.
  std::shared_ptr<Deployed> exchange(std::shared_ptr<Deployed> deployed);

  /// Snapshot the current deployment (null when none yet). The
  /// returned pointer borrows from the handle (aliasing, non-owning);
  /// it stays valid for the handle's lifetime.
  std::shared_ptr<Deployed> acquire() const noexcept {
    return {std::shared_ptr<Deployed>{},
            current_.load(std::memory_order_acquire)};
  }
  /// 0 when no model is deployed.
  std::uint32_t version() const noexcept {
    const auto* snap = current_.load(std::memory_order_acquire);
    return snap ? snap->version : 0;
  }

 private:
  std::shared_ptr<Deployed> publish(std::shared_ptr<Deployed> next);

  std::atomic<Deployed*> current_{nullptr};
  std::mutex writers_;
  /// The live owner plus every displaced version: a reader's borrowed
  /// snapshot must outlive the swap that displaced it.
  std::shared_ptr<Deployed> live_;
  std::vector<std::shared_ptr<Deployed>> retired_;
};

}  // namespace campuslab::control
