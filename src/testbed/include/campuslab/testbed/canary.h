// CanaryDeployment — mirror-only scoring before enforcement.
//
// Operators do not flip a new model straight to "drop": the canary
// runs the exact deployed pipeline against mirrored traffic, counting
// what it *would* have dropped. Because road-test attacks are injected
// by the researcher, ground truth is available, and the canary reports
// honest would-be precision/recall. promote-worthiness is a simple
// threshold question the operator can read off.
#pragma once

#include <memory>

#include "campuslab/control/development_loop.h"
#include "campuslab/testbed/testbed.h"

namespace campuslab::testbed {

struct CanaryStats {
  std::uint64_t observed = 0;
  std::uint64_t would_drop_attack = 0;
  std::uint64_t would_drop_benign = 0;
  std::uint64_t passed_attack = 0;
  std::uint64_t passed_benign = 0;

  double would_drop_precision() const noexcept {
    const auto total = would_drop_attack + would_drop_benign;
    return total == 0 ? 0.0
                      : static_cast<double>(would_drop_attack) /
                            static_cast<double>(total);
  }
  double would_block_rate() const noexcept {
    const auto total = would_drop_attack + passed_attack;
    return total == 0 ? 0.0
                      : static_cast<double>(would_drop_attack) /
                            static_cast<double>(total);
  }
  double would_benign_loss() const noexcept {
    const auto total = would_drop_benign + passed_benign;
    return total == 0 ? 0.0
                      : static_cast<double>(would_drop_benign) /
                            static_cast<double>(total);
  }
};

class CanaryDeployment {
 public:
  /// Instantiates the package's pipeline in mirror mode.
  static Result<std::unique_ptr<CanaryDeployment>> create(
      const control::DeploymentPackage& package);

  /// Register on a testbed's capture path (observes inbound packets).
  void attach(Testbed& testbed);

  /// Feed one packet directly. Parse-once: `view` must decode `pkt`'s
  /// bytes (attach() passes the decode cached at the tap).
  void observe(const packet::Packet& pkt, const packet::PacketView& view,
               sim::Direction dir);

  const CanaryStats& stats() const noexcept { return stats_; }

  /// The operator gate. evaluate() returns ok when the canary has seen
  /// enough traffic AND clears every quality floor; otherwise the
  /// Status carries a stable, machine-readable code the automation
  /// loop branches on:
  ///
  ///   canary_underobserved — not enough mirrored packets yet
  ///                          (transient: extend the canary window);
  ///   canary_precision     — would-drop precision below floor;
  ///   canary_block_rate    — attack block rate below floor;
  ///   canary_benign_loss   — benign would-drop rate above ceiling.
  ///
  /// The quality codes are permanent for this candidate: roll back.
  struct Gate {
    double min_precision = 0.9;
    double min_block_rate = 0.5;
    double max_benign_loss = 0.05;
    std::uint64_t min_observed = 1000;
  };
  Status evaluate(const Gate& gate) const;

 private:
  CanaryDeployment(control::AutomationTask task,
                   std::unique_ptr<dataplane::SoftwareSwitch> sw)
      : task_(std::move(task)), switch_(std::move(sw)) {}

  control::AutomationTask task_;
  std::unique_ptr<dataplane::SoftwareSwitch> switch_;
  CanaryStats stats_;
};

}  // namespace campuslab::testbed
