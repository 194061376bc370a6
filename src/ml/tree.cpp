#include "campuslab/ml/tree.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <tuple>

#include "campuslab/ml/column_sort.h"

namespace campuslab::ml {

namespace {

/// Gini impurity of a weighted class histogram.
double gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const auto c : counts) {
    const double p = c / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

void DecisionTree::fit(const Dataset& data, Rng* rng,
                       std::span<const double> sample_weights) {
  assert(data.n_rows() > 0);
  nodes_.clear();
  n_classes_ = data.n_classes();
  feature_names_ = data.feature_names();
  class_names_ = data.class_names();

  std::vector<double> weights;
  if (sample_weights.empty()) {
    weights.assign(data.n_rows(), 1.0);
  } else {
    assert(sample_weights.size() == data.n_rows());
    weights.assign(sample_weights.begin(), sample_weights.end());
  }
  std::vector<std::size_t> indices(data.n_rows());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  ColumnSorter sorter(data.n_rows());
  build(data, indices, weights, 0, rng, sorter);
}

int DecisionTree::build(const Dataset& data,
                        std::vector<std::size_t>& indices,
                        std::span<const double> weights, int depth,
                        Rng* rng, ColumnSorter& sorter) {
  // Node class distribution.
  std::vector<double> counts(static_cast<std::size_t>(n_classes_), 0.0);
  double total = 0.0;
  for (const auto i : indices) {
    counts[static_cast<std::size_t>(data.label(i))] += weights[i];
    total += weights[i];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    auto& node = nodes_.back();
    node.samples = indices.size();
    node.class_probs.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c)
      node.class_probs[c] = total > 0 ? counts[c] / total : 0.0;
  }

  const bool pure =
      std::count_if(counts.begin(), counts.end(),
                    [](double c) { return c > 0.0; }) <= 1;
  if (pure || depth >= config_.max_depth ||
      indices.size() < 2 * config_.min_samples_leaf) {
    return node_index;  // leaf (feature stays kLeaf)
  }

  const auto split = best_split(data, indices, weights, rng, sorter);
  if (split.feature < 0 || split.gain < config_.min_gain)
    return node_index;

  std::vector<std::size_t> left_idx, right_idx;
  left_idx.reserve(indices.size());
  right_idx.reserve(indices.size());
  for (const auto i : indices) {
    (data.row(i)[static_cast<std::size_t>(split.feature)] <=
             split.threshold
         ? left_idx
         : right_idx)
        .push_back(i);
  }
  if (left_idx.size() < config_.min_samples_leaf ||
      right_idx.size() < config_.min_samples_leaf) {
    return node_index;
  }

  indices.clear();
  indices.shrink_to_fit();  // release before recursing

  // Recurse; the vector may reallocate, so set fields via index.
  nodes_[static_cast<std::size_t>(node_index)].feature = split.feature;
  nodes_[static_cast<std::size_t>(node_index)].threshold = split.threshold;
  const int left = build(data, left_idx, weights, depth + 1, rng, sorter);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  const int right =
      build(data, right_idx, weights, depth + 1, rng, sorter);
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

DecisionTree::SplitDecision DecisionTree::best_split(
    const Dataset& data, const std::vector<std::size_t>& indices,
    std::span<const double> weights, Rng* rng, ColumnSorter& sorter) const {
  const std::size_t n_features = data.n_features();

  // Candidate features: all, or a random subset of size
  // features_per_split (random forest mode).
  std::vector<std::size_t> features(n_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t consider = n_features;
  if (config_.features_per_split > 0 &&
      config_.features_per_split < n_features && rng != nullptr) {
    for (std::size_t i = 0; i < config_.features_per_split; ++i) {
      const auto j = i + rng->below(n_features - i);
      std::swap(features[i], features[j]);
    }
    consider = config_.features_per_split;
  }

  // Parent impurity.
  std::vector<double> parent_counts(static_cast<std::size_t>(n_classes_),
                                    0.0);
  double total_weight = 0.0;
  for (const auto i : indices) {
    parent_counts[static_cast<std::size_t>(data.label(i))] += weights[i];
    total_weight += weights[i];
  }
  const double parent_gini = gini(parent_counts, total_weight);

  SplitDecision best;
  std::vector<double> left_counts(static_cast<std::size_t>(n_classes_));

  for (std::size_t fi = 0; fi < consider; ++fi) {
    const std::size_t f = features[fi];
    const auto sorted = sorter.sort(data, indices, f);  // (value, row)
    if (sorted.front().first == sorted.back().first) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_weight = 0.0;
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
      const auto row = sorted[k].second;
      left_counts[static_cast<std::size_t>(data.label(row))] +=
          weights[row];
      left_weight += weights[row];
      // Valid threshold only between distinct values.
      if (sorted[k].first == sorted[k + 1].first) continue;
      const double right_weight = total_weight - left_weight;
      if (left_weight <= 0.0 || right_weight <= 0.0) continue;

      double right_gini_sum = 0.0;
      {
        double sum_sq = 0.0;
        for (std::size_t c = 0; c < left_counts.size(); ++c) {
          const double rc = parent_counts[c] - left_counts[c];
          const double p = rc / right_weight;
          sum_sq += p * p;
        }
        right_gini_sum = 1.0 - sum_sq;
      }
      const double left_gini = gini(left_counts, left_weight);
      const double weighted = (left_weight * left_gini +
                               right_weight * right_gini_sum) /
                              total_weight;
      const double gain = parent_gini - weighted;
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        // Midpoint threshold generalizes better than the left value.
        best.threshold = 0.5 * (sorted[k].first + sorted[k + 1].first);
        best.gain = gain;
      }
    }
  }
  return best;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> x) const {
  const int leaf = decision_leaf(x);
  return nodes_[static_cast<std::size_t>(leaf)].class_probs;
}

int DecisionTree::decision_leaf(std::span<const double> x) const {
  assert(!nodes_.empty());
  int idx = 0;
  while (!nodes_[static_cast<std::size_t>(idx)].is_leaf()) {
    const auto& node = nodes_[static_cast<std::size_t>(idx)];
    idx = x[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return idx;
}

std::size_t DecisionTree::leaf_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const TreeNode& n) { return n.is_leaf(); }));
}

int DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth via index stack.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const auto& node = nodes_[static_cast<std::size_t>(idx)];
    if (!node.is_leaf()) {
      stack.emplace_back(node.left, d + 1);
      stack.emplace_back(node.right, d + 1);
    }
  }
  return max_depth;
}

std::string DecisionTree::to_string() const {
  std::ostringstream out;
  std::vector<std::tuple<int, int, std::string>> stack{{0, 0, ""}};
  while (!stack.empty()) {
    auto [idx, depth, prefix] = stack.back();
    stack.pop_back();
    const auto& node = nodes_[static_cast<std::size_t>(idx)];
    out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << prefix;
    if (node.is_leaf()) {
      const auto cls = static_cast<std::size_t>(
          std::max_element(node.class_probs.begin(),
                           node.class_probs.end()) -
          node.class_probs.begin());
      out << "-> " << (cls < class_names_.size() ? class_names_[cls]
                                                 : std::to_string(cls))
          << " (p=" << node.class_probs[cls] << ", n=" << node.samples
          << ")\n";
    } else {
      const auto fname =
          static_cast<std::size_t>(node.feature) < feature_names_.size()
              ? feature_names_[static_cast<std::size_t>(node.feature)]
              : "f" + std::to_string(node.feature);
      out << "if " << fname << " <= " << node.threshold << ":\n";
      stack.emplace_back(node.right, depth + 1, "else ");
      stack.emplace_back(node.left, depth + 1, "");
    }
  }
  return out.str();
}

std::string DecisionTree::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "campuslab-tree v1\n";
  out << n_classes_ << ' ' << feature_names_.size() << ' '
      << nodes_.size() << '\n';
  for (const auto& name : feature_names_) out << name << '\n';
  for (const auto& name : class_names_) out << name << '\n';
  for (const auto& node : nodes_) {
    out << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
        << node.right << ' ' << node.samples;
    for (const auto p : node.class_probs) out << ' ' << p;
    out << '\n';
  }
  return out.str();
}

Result<DecisionTree> DecisionTree::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "campuslab-tree v1")
    return Error::make("format", "bad tree header");
  // Counts are read signed, so a negative one is rejected rather than
  // wrapped, and none may exceed the text's length: every name and
  // every node takes at least one byte, so a forged count cannot drive
  // an allocation.
  long long n_classes = 0, n_features = 0, n_nodes = 0;
  if (!(in >> n_classes >> n_features >> n_nodes))
    return Error::make("format", "bad tree dimensions");
  if (n_classes < 0 || n_features < 0 || n_nodes < 0)
    return Error::make("format", "negative tree dimension");
  const auto limit = static_cast<long long>(std::min<std::size_t>(
      text.size(), std::numeric_limits<int>::max()));
  if (n_classes > limit || n_features > limit || n_nodes > limit)
    return Error::make("format", "tree dimension exceeds the text");
  std::getline(in, line);  // consume EOL

  DecisionTree tree;
  tree.n_classes_ = static_cast<int>(n_classes);
  tree.feature_names_.resize(static_cast<std::size_t>(n_features));
  for (auto& name : tree.feature_names_)
    if (!std::getline(in, name))
      return Error::make("format", "missing feature name");
  tree.class_names_.resize(static_cast<std::size_t>(n_classes));
  for (auto& name : tree.class_names_)
    if (!std::getline(in, name))
      return Error::make("format", "missing class name");
  for (int i = 0; i < n_nodes; ++i) {
    auto& node = tree.nodes_.emplace_back();
    if (!(in >> node.feature >> node.threshold >> node.left >> node.right >>
          node.samples))
      return Error::make("format", "bad node row");
    node.class_probs.resize(static_cast<std::size_t>(n_classes));
    for (auto& p : node.class_probs)
      if (!(in >> p)) return Error::make("format", "bad node probs");
    if (node.feature < TreeNode::kLeaf || node.feature >= n_features)
      return Error::make("format", "split feature out of range");
    // build() numbers nodes in pre-order, so both children follow their
    // parent. Requiring that also rules out a cycle, on which a tree
    // walk would never reach a leaf.
    if (!node.is_leaf() && (node.left <= i || node.left >= n_nodes ||
                            node.right <= i || node.right >= n_nodes))
      return Error::make("format", "child index out of range");
  }
  if (tree.nodes_.empty())
    return Error::make("format", "tree has no nodes");
  return tree;
}

}  // namespace campuslab::ml
