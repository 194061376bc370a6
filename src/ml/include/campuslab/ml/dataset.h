// Dataset — labelled feature matrix for the learning substrate.
//
// Row-major, dense, double-valued. Feature and class names travel with
// the data because the XAI layer's whole purpose is to render decisions
// in operator language ("udp_fraction > 0.93"), which requires names to
// survive from extraction through training to explanation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campuslab/util/rng.h"

namespace campuslab::ml {

class Dataset {
 public:
  Dataset(std::vector<std::string> feature_names,
          std::vector<std::string> class_names)
      : feature_names_(std::move(feature_names)),
        class_names_(std::move(class_names)) {}

  /// Append one labelled example. Precondition: x.size() == n_features,
  /// 0 <= y < n_classes.
  void add(std::span<const double> x, int y);

  /// Append every row of `other` (the continual-learning reservoir
  /// merge). Precondition: identical feature count and class count.
  void append(const Dataset& other);

  /// Uniform random sample of `n` rows without replacement (all rows
  /// when n >= n_rows). Deterministic in `rng`.
  Dataset sample(std::size_t n, Rng& rng) const;

  std::size_t n_rows() const noexcept { return y_.size(); }
  std::size_t n_features() const noexcept { return feature_names_.size(); }
  int n_classes() const noexcept {
    return static_cast<int>(class_names_.size());
  }

  std::span<const double> row(std::size_t i) const noexcept {
    return std::span(x_).subspan(i * n_features(), n_features());
  }
  int label(std::size_t i) const noexcept { return y_[i]; }

  const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }
  const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }

  std::vector<std::size_t> class_counts() const;

  /// Stratified split: each class is split test_fraction/rest
  /// independently, then rows are shuffled. Deterministic in `rng`.
  std::pair<Dataset, Dataset> stratified_split(double test_fraction,
                                               Rng& rng) const;

  /// Bootstrap draw of the same size (bagging): n_rows() row indices,
  /// each rng.below(n_rows()), in draw order. Deterministic in `rng`.
  std::vector<std::uint32_t> bootstrap(Rng& rng) const;

  /// Per-feature observed [min, max] — the sampling box for the
  /// XAI extractor's synthetic queries.
  std::vector<std::pair<double, double>> feature_ranges() const;

  /// Subset by row indices.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// CSV export (header row of feature names + "label"; label written
  /// as the class name) — the hand-off format for researchers working
  /// outside CampusLab.
  void to_csv(std::ostream& out) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::string> class_names_;
  std::vector<double> x_;  // row-major
  std::vector<int> y_;
};

/// Interface every CampusLab model implements; the XAI extractor and
/// the road-test harness are written against it.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Class-probability vector of size n_classes().
  virtual std::vector<double> predict_proba(
      std::span<const double> x) const = 0;

  virtual int n_classes() const noexcept = 0;

  /// Arg-max convenience.
  int predict(std::span<const double> x) const;

  /// Probability of the winning class (the "confidence" the paper's
  /// automation rule thresholds at 90%).
  double confidence(std::span<const double> x) const;
};

}  // namespace campuslab::ml
