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

/// One fit's view of its sample. Position p of the sample is dataset row
/// rows[p]; each node owns an ascending range of `positions`, so a stable
/// sort of the range keeps equal ranks in the order of the sample's rows.
struct DecisionTree::Grower {
  Grower(const Dataset& data, std::span<const std::uint32_t> rows,
         const FeatureRanks& ranks, RankSorter& sorter, Rng* rng,
         std::span<const double> sample_weights)
      : data(data),
        rows(rows),
        ranks(ranks),
        sorter(sorter),
        rng(rng),
        labels(rows.size()),
        weights(sample_weights.begin(), sample_weights.end()),
        positions(rows.size()) {
    assert(!rows.empty());
    if (weights.empty()) weights.assign(rows.size(), 1.0);
    assert(weights.size() == rows.size());
    for (std::size_t p = 0; p < rows.size(); ++p)
      labels[p] = static_cast<std::size_t>(data.label(rows[p]));
    std::iota(positions.begin(), positions.end(), std::uint32_t{0});
  }

  double value(std::uint32_t position, std::size_t feature) const {
    return data.row(rows[position])[feature];
  }

  const Dataset& data;
  std::span<const std::uint32_t> rows;
  const FeatureRanks& ranks;
  RankSorter& sorter;
  Rng* rng;
  std::vector<std::size_t> labels;  // by position
  std::vector<double> weights;      // by position
  std::vector<std::uint32_t> positions;
};

void DecisionTree::fit(const Dataset& data, Rng* rng,
                       std::span<const double> sample_weights) {
  assert(sample_weights.empty() || sample_weights.size() == data.n_rows());
  const FeatureRanks ranks(data);
  RankSorter sorter(data.n_rows());
  std::vector<std::uint32_t> rows(data.n_rows());
  std::iota(rows.begin(), rows.end(), std::uint32_t{0});
  Grower grower(data, rows, ranks, sorter, rng, sample_weights);
  grow(grower);
}

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::uint32_t> rows,
                       const FeatureRanks& ranks, RankSorter& sorter,
                       Rng* rng) {
  Grower grower(data, rows, ranks, sorter, rng, {});
  grow(grower);
}

void DecisionTree::grow(Grower& grower) {
  nodes_.clear();
  n_classes_ = grower.data.n_classes();
  feature_names_ = grower.data.feature_names();
  class_names_ = grower.data.class_names();
  build(grower, 0, grower.positions.size(), 0);
}

int DecisionTree::build(Grower& grower, std::size_t begin, std::size_t end,
                        int depth) {
  // Node class distribution.
  std::vector<double> counts(static_cast<std::size_t>(n_classes_), 0.0);
  double total = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    const auto p = grower.positions[k];
    counts[grower.labels[p]] += grower.weights[p];
    total += grower.weights[p];
  }
  const std::size_t samples = end - begin;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    auto& node = nodes_.back();
    node.samples = samples;
    node.class_probs.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c)
      node.class_probs[c] = total > 0 ? counts[c] / total : 0.0;
  }

  const bool pure =
      std::count_if(counts.begin(), counts.end(),
                    [](double c) { return c > 0.0; }) <= 1;
  if (pure || depth >= config_.max_depth ||
      samples < 2 * config_.min_samples_leaf) {
    return node_index;  // leaf (feature stays kLeaf)
  }

  const auto split = best_split(grower, begin, end, counts, total);
  if (split.feature < 0 || split.gain < config_.min_gain)
    return node_index;

  // A stable partition keeps both children's ranges ascending.
  const auto feature = static_cast<std::size_t>(split.feature);
  const auto first = grower.positions.begin();
  const auto mid = static_cast<std::size_t>(
      std::stable_partition(first + begin, first + end,
                            [&](std::uint32_t p) {
                              return grower.value(p, feature) <=
                                     split.threshold;
                            }) -
      first);
  if (mid - begin < config_.min_samples_leaf ||
      end - mid < config_.min_samples_leaf) {
    return node_index;
  }

  // Recurse; the vector may reallocate, so set fields via index.
  nodes_[static_cast<std::size_t>(node_index)].feature = split.feature;
  nodes_[static_cast<std::size_t>(node_index)].threshold = split.threshold;
  const int left = build(grower, begin, mid, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  const int right = build(grower, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

DecisionTree::SplitDecision DecisionTree::best_split(
    Grower& grower, std::size_t begin, std::size_t end,
    const std::vector<double>& parent_counts, double total_weight) const {
  const std::size_t n_features = grower.data.n_features();

  // Candidate features: all, or a random subset of size
  // features_per_split (random forest mode).
  std::vector<std::size_t> features(n_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t consider = n_features;
  if (config_.features_per_split > 0 &&
      config_.features_per_split < n_features && grower.rng != nullptr) {
    for (std::size_t i = 0; i < config_.features_per_split; ++i) {
      const auto j = i + grower.rng->below(n_features - i);
      std::swap(features[i], features[j]);
    }
    consider = config_.features_per_split;
  }

  const double parent_gini = gini(parent_counts, total_weight);
  const std::span<const std::uint32_t> node(grower.positions.data() + begin,
                                            end - begin);
  const auto& labels = grower.labels;
  const auto& weights = grower.weights;

  SplitDecision best;
  std::vector<double> left_counts(static_cast<std::size_t>(n_classes_));

  for (std::size_t fi = 0; fi < consider; ++fi) {
    const std::size_t f = features[fi];
    const auto sorted = grower.sorter.sort(grower.ranks, f, grower.rows,
                                           node);  // (rank, position)
    if (sorted.front().rank == sorted.back().rank) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_weight = 0.0;
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
      const auto p = sorted[k].position;
      left_counts[labels[p]] += weights[p];
      left_weight += weights[p];
      // Valid threshold only between distinct values.
      if (sorted[k].rank == sorted[k + 1].rank) continue;
      const double right_weight = total_weight - left_weight;
      if (left_weight <= 0.0 || right_weight <= 0.0) continue;

      double right_gini_sum = 0.0;
      {
        double sum_sq = 0.0;
        for (std::size_t c = 0; c < left_counts.size(); ++c) {
          const double rc = parent_counts[c] - left_counts[c];
          const double p_right = rc / right_weight;
          sum_sq += p_right * p_right;
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
        // Midpoint threshold generalizes better than the left value. It
        // comes from the two rows' own values, not their ranks, so its
        // bits are exactly those a sort of the values would give.
        best.threshold = 0.5 * (grower.value(p, f) +
                                grower.value(sorted[k + 1].position, f));
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
