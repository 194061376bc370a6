// DevelopmentLoop — the slow, offline loop of Figure 2.
//
// Input: a labelled packet-feature dataset built from the campus data
// store. Output: a DeploymentPackage holding everything the fast loop
// and the operator review need:
//
//   (i)   train the heavyweight black-box teacher (random forest),
//         "unconstrained by time and compute resources";
//   (ii)  extract the deployable student tree (XAI distillation);
//   (iii) compile it to the target (tree-walk stages or TCAM rules),
//         checked against the switch resource budget;
//   (iv)  assemble the operator-facing trust report and P4 source.
//
// Per-step wall-clock timings are recorded — the FIG2 experiment
// contrasts them with the fast loop's per-packet latency.
#pragma once

#include <memory>
#include <string>

#include "campuslab/control/task.h"
#include "campuslab/dataplane/p4gen.h"
#include "campuslab/dataplane/programs.h"
#include "campuslab/dataplane/switch.h"
#include "campuslab/ml/boosting.h"
#include "campuslab/ml/forest.h"
#include "campuslab/xai/explain.h"
#include "campuslab/xai/extract.h"

namespace campuslab::control {

enum class CompileStrategy {
  kTreeWalk,
  kRuleTcam,
  kAuto,  // tree-walk unless it exceeds the stage budget
};

/// Which black-box family plays the teacher in step (i). Both are
/// opaque enough to need extraction; they differ in opacity profile
/// (many deep bagged trees vs many shallow boosted ones).
enum class TeacherKind { kRandomForest, kGradientBoosted };

struct DevelopmentConfig {
  AutomationTask task = AutomationTask::dns_amplification_drop();
  TeacherKind teacher_kind = TeacherKind::kRandomForest;
  ml::ForestConfig teacher;        // used when kRandomForest
  ml::BoostConfig boosted_teacher; // used when kGradientBoosted
  xai::ExtractConfig extraction;
  dataplane::ResourceBudget budget;
  CompileStrategy strategy = CompileStrategy::kAuto;
  double test_fraction = 0.3;
  std::uint64_t seed = 1;
};

/// Wall-clock cost of each development-loop step, microseconds.
struct StepTimings {
  std::int64_t train_us = 0;
  std::int64_t extract_us = 0;
  std::int64_t compile_us = 0;
  std::int64_t total_us = 0;
};

/// Everything produced by one development-loop iteration.
struct DeploymentPackage {
  AutomationTask task;
  ml::DecisionTree student;          // the deployable model
  dataplane::Quantizer quantizer;
  std::string strategy;              // "tree_walk" | "rule_tcam"
  dataplane::ResourceReport resources;
  xai::TrustReport trust;
  std::string p4_source;
  StepTimings timings;
  double teacher_holdout_accuracy = 0.0;
  double student_holdout_accuracy = 0.0;
  double holdout_fidelity = 0.0;

  /// Instantiate a fresh software switch running this package's
  /// program (each deployment owns its register state).
  Result<std::unique_ptr<dataplane::SoftwareSwitch>> instantiate() const;

  /// Accuracy of the deployable model on a RAW (unquantized) packet
  /// dataset, quantized through this package's own quantizer — how a
  /// continual-learning loop scores an incumbent on fresh data.
  double accuracy_on(const ml::Dataset& raw_dataset) const;

  /// Class-balanced accuracy (mean per-class recall) on a RAW dataset.
  /// The automation loop's promote margin is judged on this: windows
  /// are dominated by benign rows, so plain accuracy hides a model that
  /// has gone blind to the (rare) event class.
  double balanced_accuracy_on(const ml::Dataset& raw_dataset) const;

  dataplane::FilterPolicy policy() const {
    return dataplane::FilterPolicy{1, task.confidence_threshold};
  }
};

/// Artifacts of step (i) — quantizer, split, fitted teacher — kept so
/// the later stages can run (and be retried) without repeating it.
struct TrainArtifacts {
  dataplane::Quantizer quantizer;
  ml::Dataset train;
  ml::Dataset test;
  std::shared_ptr<ml::Classifier> teacher;
  std::size_t teacher_nodes = 0;
  std::int64_t train_us = 0;
};

/// Artifacts of step (ii).
struct ExtractArtifacts {
  ml::DecisionTree student;
  std::int64_t extract_us = 0;
};

class DevelopmentLoop {
 public:
  explicit DevelopmentLoop(DevelopmentConfig config)
      : config_(std::move(config)) {}

  /// `packet_dataset` must be binary-framed with class 1 = the task's
  /// event (PacketDatasetCollector with labeling.binary_target set).
  /// Fails when the dataset lacks either class or no strategy fits the
  /// budget.
  Result<DeploymentPackage> run(const ml::Dataset& packet_dataset) const;

  /// Stage forms of run(): quantize + split + teacher (step i), student
  /// extraction (step ii), compile + trust report (steps iii–iv).
  /// run() is exactly their composition; a supervising loop calls them
  /// separately so each stage carries its own retry and fault policy.
  Result<TrainArtifacts> train(const ml::Dataset& packet_dataset) const;
  Result<ExtractArtifacts> extract(const TrainArtifacts& trained) const;
  Result<DeploymentPackage> compile(const TrainArtifacts& trained,
                                    const ExtractArtifacts& extracted) const;

  const DevelopmentConfig& config() const noexcept { return config_; }

 private:
  DevelopmentConfig config_;
};

}  // namespace campuslab::control
