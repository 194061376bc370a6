// Dataset builders — from the data store (or raw flow records) to
// labelled ml::Dataset, closing the §3 loop: the campus network's own
// traffic becomes the training corpus.
#pragma once

#include <optional>
#include <span>

#include "campuslab/features/flow_features.h"
#include "campuslab/ml/dataset.h"
#include "campuslab/store/datastore.h"

namespace campuslab::features {

struct FlowDatasetOptions {
  /// Multi-class (benign + each attack) by default. `binary_target`
  /// collapses labels to {benign-or-other, target} — the framing of the
  /// paper's "detect event E, act at >= 90% confidence" tasks.
  std::optional<packet::TrafficLabel> binary_target;
  /// Collapse to {benign, any-attack} when true (and no binary_target).
  bool attack_vs_benign = false;
};

/// Class names for the options (e.g. {"benign","dns_amplification"}).
std::vector<std::string> dataset_class_names(const FlowDatasetOptions& opt);

/// Map a flow's ground-truth label to the dataset's class index.
int dataset_label(packet::TrafficLabel label, const FlowDatasetOptions& opt);

ml::Dataset build_flow_dataset(std::span<const capture::FlowRecord> flows,
                               const FlowDatasetOptions& opt = {});

/// The stored flows, one row each, in export order
/// (`capture::flow_export_before`), not the store's row order.
ml::Dataset build_flow_dataset(const store::DataStore& store,
                               const FlowDatasetOptions& opt = {});

/// As above, additionally recording per-row provenance: after the call,
/// `scenario_ids[i]` is the scenario instance that generated row i's
/// flow (0 = background traffic). This is what lets benches score a
/// model per scenario — e.g. a confusion matrix restricted to the worm
/// phase — instead of only per label class.
ml::Dataset build_flow_dataset(std::span<const capture::FlowRecord> flows,
                               const FlowDatasetOptions& opt,
                               std::vector<std::uint32_t>& scenario_ids);

ml::Dataset build_flow_dataset(const store::DataStore& store,
                               const FlowDatasetOptions& opt,
                               std::vector<std::uint32_t>& scenario_ids);

}  // namespace campuslab::features
