#include "campuslab/ml/dataset.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <ostream>

namespace campuslab::ml {

void Dataset::add(std::span<const double> x, int y) {
  assert(x.size() == n_features());
  assert(y >= 0 && y < n_classes());
  x_.insert(x_.end(), x.begin(), x.end());
  y_.push_back(y);
}

void Dataset::append(const Dataset& other) {
  assert(other.n_features() == n_features());
  assert(other.n_classes() == n_classes());
  x_.insert(x_.end(), other.x_.begin(), other.x_.end());
  y_.insert(y_.end(), other.y_.begin(), other.y_.end());
}

Dataset Dataset::sample(std::size_t n, Rng& rng) const {
  std::vector<std::size_t> indices(n_rows());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // Partial Fisher-Yates: the first n slots become the sample.
  const auto take = std::min(n, indices.size());
  for (std::size_t i = 0; i < take; ++i)
    std::swap(indices[i], indices[i + rng.below(indices.size() - i)]);
  indices.resize(take);
  return subset(indices);
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(n_classes()), 0);
  for (const auto y : y_) ++counts[static_cast<std::size_t>(y)];
  return counts;
}

std::pair<Dataset, Dataset> Dataset::stratified_split(double test_fraction,
                                                      Rng& rng) const {
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(n_classes()));
  for (std::size_t i = 0; i < n_rows(); ++i)
    by_class[static_cast<std::size_t>(y_[i])].push_back(i);

  std::vector<std::size_t> train_idx, test_idx;
  for (auto& indices : by_class) {
    // Fisher-Yates with our deterministic generator.
    for (std::size_t i = indices.size(); i > 1; --i)
      std::swap(indices[i - 1], indices[rng.below(i)]);
    const auto test_count =
        static_cast<std::size_t>(test_fraction *
                                 static_cast<double>(indices.size()));
    for (std::size_t i = 0; i < indices.size(); ++i)
      (i < test_count ? test_idx : train_idx).push_back(indices[i]);
  }
  for (std::size_t i = train_idx.size(); i > 1; --i)
    std::swap(train_idx[i - 1], train_idx[rng.below(i)]);
  for (std::size_t i = test_idx.size(); i > 1; --i)
    std::swap(test_idx[i - 1], test_idx[rng.below(i)]);
  return {subset(train_idx), subset(test_idx)};
}

std::vector<std::uint32_t> Dataset::bootstrap(Rng& rng) const {
  assert(n_rows() <= UINT32_MAX);
  std::vector<std::uint32_t> indices(n_rows());
  for (auto& idx : indices)
    idx = static_cast<std::uint32_t>(rng.below(n_rows()));
  return indices;
}

std::vector<std::pair<double, double>> Dataset::feature_ranges() const {
  std::vector<std::pair<double, double>> ranges(
      n_features(), {0.0, 0.0});
  if (n_rows() == 0) return ranges;
  for (std::size_t f = 0; f < n_features(); ++f)
    ranges[f] = {row(0)[f], row(0)[f]};
  for (std::size_t i = 1; i < n_rows(); ++i) {
    const auto r = row(i);
    for (std::size_t f = 0; f < n_features(); ++f) {
      ranges[f].first = std::min(ranges[f].first, r[f]);
      ranges[f].second = std::max(ranges[f].second, r[f]);
    }
  }
  return ranges;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(feature_names_, class_names_);
  const std::size_t width = n_features();
  out.x_.resize(indices.size() * width);
  out.y_.resize(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const auto src = row(indices[k]);
    std::copy(src.begin(), src.end(), out.x_.data() + k * width);
    out.y_[k] = y_[indices[k]];
  }
  return out;
}

void Dataset::to_csv(std::ostream& out) const {
  for (std::size_t f = 0; f < feature_names_.size(); ++f)
    out << feature_names_[f] << ',';
  out << "label\n";
  out.precision(12);
  for (std::size_t i = 0; i < n_rows(); ++i) {
    const auto r = row(i);
    for (const auto v : r) out << v << ',';
    out << class_names_[static_cast<std::size_t>(y_[i])] << '\n';
  }
}

int Classifier::predict(std::span<const double> x) const {
  const auto probs = predict_proba(x);
  return static_cast<int>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double Classifier::confidence(std::span<const double> x) const {
  const auto probs = predict_proba(x);
  return *std::max_element(probs.begin(), probs.end());
}

}  // namespace campuslab::ml
