#include "campuslab/ml/forest.h"

#include <cassert>
#include <cmath>

#include "campuslab/ml/column_sort.h"

namespace campuslab::ml {

void RandomForest::fit(const Dataset& data) {
  assert(data.n_rows() > 0);
  trees_.clear();
  n_classes_ = data.n_classes();
  Rng rng(config_.seed);

  const std::size_t mtry =
      config_.features_per_split > 0
          ? config_.features_per_split
          : static_cast<std::size_t>(
                std::max(1.0, std::floor(std::sqrt(
                                  static_cast<double>(data.n_features())))));

  // Every tree fits a view of its bootstrap draw over one rank table and
  // one node scratch, sized once for the whole forest.
  const FeatureRanks ranks(data);
  RankSorter sorter(data.n_rows());
  trees_.reserve(static_cast<std::size_t>(config_.n_trees));
  for (int t = 0; t < config_.n_trees; ++t) {
    Rng tree_rng = rng.fork(static_cast<std::uint64_t>(t) + 1);
    const auto rows = data.bootstrap(tree_rng);
    TreeConfig tc;
    tc.max_depth = config_.max_depth;
    tc.min_samples_leaf = config_.min_samples_leaf;
    tc.features_per_split = mtry;
    DecisionTree tree(tc);
    tree.fit(data, rows, ranks, sorter, &tree_rng);
    trees_.push_back(std::move(tree));
  }
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> x) const {
  std::vector<double> probs(static_cast<std::size_t>(n_classes_), 0.0);
  if (trees_.empty()) return probs;
  for (const auto& tree : trees_) {
    const auto& leaf =
        tree.nodes()[static_cast<std::size_t>(tree.decision_leaf(x))];
    for (std::size_t c = 0; c < probs.size(); ++c)
      probs[c] += leaf.class_probs[c];
  }
  for (auto& p : probs) p /= static_cast<double>(trees_.size());
  return probs;
}

std::size_t RandomForest::total_nodes() const noexcept {
  std::size_t total = 0;
  for (const auto& tree : trees_) total += tree.node_count();
  return total;
}

std::vector<double> RandomForest::feature_importance() const {
  // Mean decrease in impurity: each split is credited with the
  // sample-weighted Gini reduction it achieved, reconstructed from the
  // class distributions stored in the fitted nodes.
  const auto gini = [](const std::vector<double>& probs) {
    double sum_sq = 0.0;
    for (const auto p : probs) sum_sq += p * p;
    return 1.0 - sum_sq;
  };
  std::vector<double> importance;
  double total = 0.0;
  for (const auto& tree : trees_) {
    const auto& nodes = tree.nodes();
    for (const auto& node : nodes) {
      if (node.is_leaf()) continue;
      const auto& left = nodes[static_cast<std::size_t>(node.left)];
      const auto& right = nodes[static_cast<std::size_t>(node.right)];
      const double decrease =
          static_cast<double>(node.samples) * gini(node.class_probs) -
          static_cast<double>(left.samples) * gini(left.class_probs) -
          static_cast<double>(right.samples) * gini(right.class_probs);
      const auto f = static_cast<std::size_t>(node.feature);
      if (f >= importance.size()) importance.resize(f + 1, 0.0);
      importance[f] += std::max(decrease, 0.0);
      total += std::max(decrease, 0.0);
    }
  }
  if (total > 0)
    for (auto& v : importance) v /= total;
  return importance;
}

}  // namespace campuslab::ml
