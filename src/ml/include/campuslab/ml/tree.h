// DecisionTree — CART classification trees (Gini impurity, axis-aligned
// numeric thresholds).
//
// The tree is both a learner and, crucially for the paper's Figure-2
// pipeline, the *deployable* model class: its internal nodes are exactly
// what the dataplane compiler turns into match-action entries, and its
// root-to-leaf paths are what the XAI layer renders as operator-readable
// rules. The node array is therefore public, stable, and serializable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campuslab/ml/dataset.h"
#include "campuslab/util/result.h"

namespace campuslab::ml {

class FeatureRanks;
class RankSorter;

struct TreeConfig {
  int max_depth = 8;
  std::size_t min_samples_leaf = 5;
  double min_gain = 1e-7;
  /// Features considered per split; 0 = all (plain CART). Set by the
  /// random forest to sqrt(n_features).
  std::size_t features_per_split = 0;
};

/// One node of the fitted tree. Leaves have feature == kLeaf.
struct TreeNode {
  static constexpr int kLeaf = -1;

  int feature = kLeaf;      // split feature index, or kLeaf
  double threshold = 0.0;   // go left if x[feature] <= threshold
  int left = -1;            // child node indexes
  int right = -1;
  std::vector<double> class_probs;  // training distribution at the node
  std::size_t samples = 0;

  bool is_leaf() const noexcept { return feature == kLeaf; }
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config = {}) : config_(config) {}

  /// Fit on `data` with optional per-row weights (empty = all 1; no
  /// learner in the library passes them). `rng` is only consulted when
  /// features_per_split > 0.
  void fit(const Dataset& data, Rng* rng = nullptr,
           std::span<const double> sample_weights = {});

  /// Fit on a sample of `data` without copying it: position p of the
  /// sample is row rows[p] (rows may repeat, as in a bootstrap draw),
  /// and the tree is the one fit() grows on data.subset(rows).
  /// `ranks` are data's; `sorter` holds at least rows.size() positions.
  /// Both can serve every tree of an ensemble.
  void fit(const Dataset& data, std::span<const std::uint32_t> rows,
           const FeatureRanks& ranks, RankSorter& sorter, Rng* rng);

  std::vector<double> predict_proba(
      std::span<const double> x) const override;
  int n_classes() const noexcept override { return n_classes_; }

  const std::vector<TreeNode>& nodes() const noexcept { return nodes_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t leaf_count() const noexcept;
  int depth() const noexcept;

  /// Leaf index reached by x (for explanation and compiler plumbing).
  int decision_leaf(std::span<const double> x) const;

  const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }
  const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }

  /// Human-readable rendering (indented if/else text).
  std::string to_string() const;

  /// Serialize/deserialize a fitted tree — the "open-source the
  /// learning algorithm and ship the model" path of §5.
  std::string serialize() const;
  static Result<DecisionTree> deserialize(const std::string& text);

 private:
  struct SplitDecision {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  struct Grower;  // one fit's view of its sample (tree.cpp)

  void grow(Grower& grower);
  int build(Grower& grower, std::size_t begin, std::size_t end, int depth);
  SplitDecision best_split(Grower& grower, std::size_t begin,
                           std::size_t end,
                           const std::vector<double>& parent_counts,
                           double total_weight) const;

  TreeConfig config_;
  std::vector<TreeNode> nodes_;
  int n_classes_ = 0;
  std::vector<std::string> feature_names_;
  std::vector<std::string> class_names_;
};

}  // namespace campuslab::ml
