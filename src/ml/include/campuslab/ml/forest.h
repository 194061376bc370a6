// RandomForest — the heavyweight black-box teacher of the Figure-2
// development loop: bagged CART trees with per-split feature
// subsampling. Accurate, robust, and exactly the kind of model a
// network operator will not deploy unexplained — which is why the XAI
// extractor exists.
#pragma once

#include <memory>
#include <vector>

#include "campuslab/ml/tree.h"

namespace campuslab::ml {

struct ForestConfig {
  int n_trees = 50;
  int max_depth = 16;
  std::size_t min_samples_leaf = 2;
  /// Features per split; 0 = floor(sqrt(n_features)).
  std::size_t features_per_split = 0;
  std::uint64_t seed = 1;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestConfig config = {}) : config_(config) {}

  void fit(const Dataset& data);

  std::vector<double> predict_proba(
      std::span<const double> x) const override;
  int n_classes() const noexcept override { return n_classes_; }

  const std::vector<DecisionTree>& trees() const noexcept { return trees_; }

  /// Total nodes across the ensemble — the model-size axis of the
  /// deployability trade-off (T-XAI).
  std::size_t total_nodes() const noexcept;

  /// Mean decrease in Gini impurity: each split credits its feature
  /// with the sample-weighted impurity reduction it achieved; the
  /// credits are normalized to sum to 1 when any split reduced it.
  std::vector<double> feature_importance() const;

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  int n_classes_ = 0;
};

}  // namespace campuslab::ml
