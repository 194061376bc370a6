// GradientBoosted — binary gradient-boosted regression trees (logistic
// loss, Newton leaf values). The second black-box teacher family for
// the XAI ablation: where the forest averages deep independent trees,
// boosting chains many shallow ones — a different opacity profile with
// similar accuracy.
//
// Binary by design: the paper's automation tasks are of the form
// "detect event E" (attack vs. not), and the T-DET/T-XAI experiments
// use exactly that framing. Multi-class work uses the forest.
#pragma once

#include <memory>
#include <vector>

#include "campuslab/ml/dataset.h"

namespace campuslab::ml {

struct BoostConfig {
  int n_rounds = 80;
  double learning_rate = 0.15;
  int max_depth = 3;
  std::size_t min_samples_leaf = 5;
  double subsample = 0.8;  // row fraction per round
  std::uint64_t seed = 1;
};

class GradientBoosted final : public Classifier {
 public:
  explicit GradientBoosted(BoostConfig config = {}) : config_(config) {}

  /// Precondition: data.n_classes() == 2 (class 1 = positive).
  void fit(const Dataset& data);

  std::vector<double> predict_proba(
      std::span<const double> x) const override;
  int n_classes() const noexcept override { return 2; }

  /// Raw additive score (log-odds).
  double decision_value(std::span<const double> x) const;

  std::size_t total_nodes() const noexcept;
  int rounds_trained() const noexcept {
    return static_cast<int>(stages_.size());
  }

 private:
  struct RegressionNode {
    int feature = -1;  // -1 = leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;  // leaf output
  };
  struct RegressionTree {
    std::vector<RegressionNode> nodes;
    double predict(std::span<const double> x) const;
  };

  struct Grower;  // one round's rows and the fit's scratch (boosting.cpp)

  int build_regression_node(RegressionTree& tree, Grower& grower,
                            std::size_t begin, std::size_t end,
                            int depth) const;

  BoostConfig config_;
  double base_score_ = 0.0;  // initial log-odds
  std::vector<RegressionTree> stages_;
};

}  // namespace campuslab::ml
