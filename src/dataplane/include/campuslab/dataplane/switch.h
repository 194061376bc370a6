// SoftwareSwitch — executes a compiled classifier against live packets,
// exactly as the programmable border switch would: parse headers,
// update register state, quantize metadata, run the match-action
// program, return the verdict.
//
// The switch only classifies. Its callers (control::FastLoop,
// testbed::CanaryDeployment) turn the verdict into an action under the
// task's rule — "drop attack traffic on ingress if confidence in
// detection is at least 90%" (§2) — which p4gen emits into the
// generated program as FilterPolicy{attack_class, 0.90}.
#pragma once

#include <memory>

#include "campuslab/dataplane/programs.h"
#include "campuslab/features/packet_features.h"

namespace campuslab::dataplane {

struct FilterPolicy {
  int drop_class = 1;
  double min_confidence = 0.90;  // the paper's 90% rule
};

class SoftwareSwitch {
 public:
  SoftwareSwitch(std::unique_ptr<CompiledClassifier> program,
                 Quantizer quantizer,
                 features::PacketFeatureConfig feature_config = {});

  /// Classify one packet (updates register state; packets must arrive
  /// in timestamp order). Non-IPv4 frames yield {0, 0}. Parse-once:
  /// `view` must decode `pkt`'s bytes.
  Verdict process(const packet::Packet& pkt,
                  const packet::PacketView& view, sim::Direction dir);

  const CompiledClassifier& program() const noexcept { return *program_; }

  /// Full pipeline resources: the program's plus the feature stage's
  /// register arrays.
  ResourceReport resources() const { return program_->resources(); }

 private:
  std::unique_ptr<CompiledClassifier> program_;
  Quantizer quantizer_;
  features::StatefulFeatureExtractor extractor_;
};

}  // namespace campuslab::dataplane
