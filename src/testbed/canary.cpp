#include "campuslab/testbed/canary.h"

#include "campuslab/obs/registry.h"

namespace campuslab::testbed {

namespace {
struct CanaryMetrics {
  obs::Counter& observed =
      obs::Registry::global().counter("canary.observed");
  obs::Counter& would_drop =
      obs::Registry::global().counter("canary.would_drop");
  obs::Counter& passed = obs::Registry::global().counter("canary.passed");

  static CanaryMetrics& get() {
    static CanaryMetrics m;
    return m;
  }
};
}  // namespace

Result<std::unique_ptr<CanaryDeployment>> CanaryDeployment::create(
    const control::DeploymentPackage& package) {
  auto sw = package.instantiate();
  if (!sw.ok()) return sw.error();
  return std::unique_ptr<CanaryDeployment>(
      new CanaryDeployment(package.task, std::move(sw).value()));
}

void CanaryDeployment::attach(Testbed& testbed) {
  testbed.add_observer([this](const capture::DecodedPacket& tagged) {
    observe(tagged.pkt, tagged.view, tagged.dir);
  });
}

void CanaryDeployment::observe(const packet::Packet& pkt,
                               const packet::PacketView& view,
                               sim::Direction dir) {
  if (dir != sim::Direction::kInbound) return;
  auto& metrics = CanaryMetrics::get();
  ++stats_.observed;
  metrics.observed.increment();
  const auto verdict = switch_->process(pkt, view, dir);
  const bool would_drop = verdict.cls == 1 &&
                          verdict.confidence >= task_.confidence_threshold;
  const bool attack = packet::is_attack(pkt.label);
  if (would_drop) {
    metrics.would_drop.increment();
    (attack ? stats_.would_drop_attack : stats_.would_drop_benign)++;
  } else {
    metrics.passed.increment();
    (attack ? stats_.passed_attack : stats_.passed_benign)++;
  }
}

Status CanaryDeployment::evaluate(const Gate& gate) const {
  if (stats_.observed < gate.min_observed)
    return Error::make("canary_underobserved",
                       "canary observed " + std::to_string(stats_.observed) +
                           " packets, need " +
                           std::to_string(gate.min_observed));
  if (stats_.would_drop_precision() < gate.min_precision)
    return Error::make(
        "canary_precision",
        "would-drop precision " +
            std::to_string(stats_.would_drop_precision()) + " below floor " +
            std::to_string(gate.min_precision));
  if (stats_.would_block_rate() < gate.min_block_rate)
    return Error::make("canary_block_rate",
                       "attack block rate " +
                           std::to_string(stats_.would_block_rate()) +
                           " below floor " +
                           std::to_string(gate.min_block_rate));
  if (stats_.would_benign_loss() > gate.max_benign_loss)
    return Error::make("canary_benign_loss",
                       "benign would-drop rate " +
                           std::to_string(stats_.would_benign_loss()) +
                           " above ceiling " +
                           std::to_string(gate.max_benign_loss));
  return Status::success();
}

}  // namespace campuslab::testbed
