#include "campuslab/dataplane/switch.h"

#include "campuslab/obs/registry.h"
#include "campuslab/obs/stage_timer.h"

namespace campuslab::dataplane {

namespace {
struct SwitchMetrics {
  obs::Counter& processed =
      obs::Registry::global().counter("switch.processed");
  obs::Histogram& apply_ns = obs::stage_histogram("switch_apply");

  static SwitchMetrics& get() {
    static SwitchMetrics m;
    return m;
  }
};
}  // namespace

SoftwareSwitch::SoftwareSwitch(
    std::unique_ptr<CompiledClassifier> program, Quantizer quantizer,
    features::PacketFeatureConfig feature_config)
    : program_(std::move(program)), quantizer_(std::move(quantizer)),
      extractor_(feature_config) {}

Verdict SoftwareSwitch::process(const packet::Packet& pkt,
                                const packet::PacketView& view,
                                sim::Direction dir) {
  auto& metrics = SwitchMetrics::get();
  obs::StageTimer stage_timer(metrics.apply_ns);
  metrics.processed.increment();
  const auto x = extractor_.extract(pkt, view, dir);
  if (x.empty()) return Verdict{0, 0.0};
  return program_->classify(quantizer_.quantize_row(x));
}

}  // namespace campuslab::dataplane
