#include "campuslab/ml/boosting.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "campuslab/ml/column_sort.h"

namespace campuslab::ml {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

double GradientBoosted::RegressionTree::predict(
    std::span<const double> x) const {
  int idx = 0;
  while (nodes[static_cast<std::size_t>(idx)].feature >= 0) {
    const auto& n = nodes[static_cast<std::size_t>(idx)];
    idx = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                : n.right;
  }
  return nodes[static_cast<std::size_t>(idx)].value;
}

/// The split search's view of one fit. Positions are dataset rows; each
/// node owns an ascending range of `rows`, the round's subsample.
struct GradientBoosted::Grower {
  const Dataset& data;
  const FeatureRanks& ranks;
  RankSorter& sorter;
  std::span<const std::uint32_t> identity;  // position p is row p
  const std::vector<double>& gradients;
  const std::vector<double>& hessians;
  std::vector<std::uint32_t> rows;
};

void GradientBoosted::fit(const Dataset& data) {
  assert(data.n_classes() == 2);
  assert(data.n_rows() > 0);
  stages_.clear();

  // Initial score: log-odds of the positive class.
  const auto counts = data.class_counts();
  const double pos = static_cast<double>(counts[1]) + 1.0;
  const double neg = static_cast<double>(counts[0]) + 1.0;
  base_score_ = std::log(pos / neg);

  std::vector<double> score(data.n_rows(), base_score_);
  std::vector<double> gradients(data.n_rows());
  std::vector<double> hessians(data.n_rows());
  Rng rng(config_.seed);
  const FeatureRanks ranks(data);
  RankSorter sorter(data.n_rows());
  std::vector<std::uint32_t> identity(data.n_rows());
  std::iota(identity.begin(), identity.end(), std::uint32_t{0});
  Grower grower{data, ranks, sorter, identity, gradients, hessians, {}};
  grower.rows.reserve(data.n_rows());

  for (int round = 0; round < config_.n_rounds; ++round) {
    // Negative gradient of logloss: (y - p); hessian p(1-p).
    for (std::size_t i = 0; i < data.n_rows(); ++i) {
      const double p = sigmoid(score[i]);
      gradients[i] = static_cast<double>(data.label(i)) - p;
      hessians[i] = std::max(p * (1.0 - p), 1e-9);
    }

    // Row subsample, ascending.
    grower.rows.clear();
    for (std::uint32_t i = 0; i < data.n_rows(); ++i)
      if (config_.subsample >= 1.0 || rng.chance(config_.subsample))
        grower.rows.push_back(i);
    if (grower.rows.empty()) continue;

    RegressionTree tree;
    build_regression_node(tree, grower, 0, grower.rows.size(), 0);
    // Update all scores (not just the subsample).
    for (std::size_t i = 0; i < data.n_rows(); ++i)
      score[i] += config_.learning_rate * tree.predict(data.row(i));
    stages_.push_back(std::move(tree));
  }
}

int GradientBoosted::build_regression_node(RegressionTree& tree,
                                           Grower& grower,
                                           std::size_t begin,
                                           std::size_t end,
                                           int depth) const {
  const auto& gradients = grower.gradients;
  const auto& hessians = grower.hessians;
  double grad_sum = 0.0, hess_sum = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    grad_sum += gradients[grower.rows[k]];
    hess_sum += hessians[grower.rows[k]];
  }

  const int node_index = static_cast<int>(tree.nodes.size());
  tree.nodes.emplace_back();
  tree.nodes.back().value = grad_sum / (hess_sum + 1.0);  // Newton + L2(1)

  if (depth >= config_.max_depth ||
      end - begin < 2 * config_.min_samples_leaf) {
    return node_index;
  }

  // Best split by Newton gain, sums in (rank, row) order.
  const double parent_gain = grad_sum * grad_sum / (hess_sum + 1.0);
  const std::span<const std::uint32_t> node(grower.rows.data() + begin,
                                            end - begin);
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-9;

  for (std::size_t f = 0; f < grower.data.n_features(); ++f) {
    const auto sorted =
        grower.sorter.sort(grower.ranks, f, grower.identity, node);
    if (sorted.front().rank == sorted.back().rank) continue;

    double left_grad = 0.0, left_hess = 0.0;
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
      left_grad += gradients[sorted[k].position];
      left_hess += hessians[sorted[k].position];
      if (sorted[k].rank == sorted[k + 1].rank) continue;
      const double right_grad = grad_sum - left_grad;
      const double right_hess = hess_sum - left_hess;
      const double gain = left_grad * left_grad / (left_hess + 1.0) +
                          right_grad * right_grad / (right_hess + 1.0) -
                          parent_gain;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold =
            0.5 * (grower.data.row(sorted[k].position)[f] +
                   grower.data.row(sorted[k + 1].position)[f]);
      }
    }
  }
  if (best_feature < 0) return node_index;

  // A stable partition keeps both children's ranges ascending.
  const auto feature = static_cast<std::size_t>(best_feature);
  const auto first = grower.rows.begin();
  const auto mid = static_cast<std::size_t>(
      std::stable_partition(first + begin, first + end,
                            [&](std::uint32_t row) {
                              return grower.data.row(row)[feature] <=
                                     best_threshold;
                            }) -
      first);
  if (mid - begin < config_.min_samples_leaf ||
      end - mid < config_.min_samples_leaf)
    return node_index;

  tree.nodes[static_cast<std::size_t>(node_index)].feature = best_feature;
  tree.nodes[static_cast<std::size_t>(node_index)].threshold =
      best_threshold;
  const int left =
      build_regression_node(tree, grower, begin, mid, depth + 1);
  tree.nodes[static_cast<std::size_t>(node_index)].left = left;
  const int right = build_regression_node(tree, grower, mid, end, depth + 1);
  tree.nodes[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

double GradientBoosted::decision_value(std::span<const double> x) const {
  double score = base_score_;
  for (const auto& stage : stages_)
    score += config_.learning_rate * stage.predict(x);
  return score;
}

std::vector<double> GradientBoosted::predict_proba(
    std::span<const double> x) const {
  const double p = sigmoid(decision_value(x));
  return {1.0 - p, p};
}

std::size_t GradientBoosted::total_nodes() const noexcept {
  std::size_t total = 1;  // base score
  for (const auto& stage : stages_) total += stage.nodes.size();
  return total;
}

}  // namespace campuslab::ml
