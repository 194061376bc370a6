#include "campuslab/dataplane/quantize.h"

#include <algorithm>
#include <cmath>

namespace campuslab::dataplane {

Quantizer Quantizer::fit(const ml::Dataset& data) {
  auto ranges = data.feature_ranges();
  for (auto& [lo, hi] : ranges) {
    const double headroom = (hi - lo) * 0.01;
    lo -= headroom;
    hi += headroom;
  }
  return from_ranges(std::move(ranges));
}

Quantizer Quantizer::from_ranges(
    std::vector<std::pair<double, double>> ranges) {
  Quantizer q;
  q.lo_.reserve(ranges.size());
  q.step_.reserve(ranges.size());
  for (const auto& [lo, hi] : ranges) {
    q.lo_.push_back(lo);
    const double span = hi - lo;
    q.step_.push_back(span > 0 ? span / static_cast<double>(kMaxQ + 1)
                               : 0.0);
  }
  return q;
}

Quantizer Quantizer::identity(std::size_t n_features) {
  return from_ranges(std::vector<std::pair<double, double>>(
      n_features, {0.0, static_cast<double>(kMaxQ) + 1.0}));
}

Quantizer Quantizer::from_levels(std::vector<double> lo,
                                 std::vector<double> step) {
  Quantizer q;
  q.lo_ = std::move(lo);
  q.step_ = std::move(step);
  q.step_.resize(q.lo_.size(), 0.0);
  return q;
}

std::uint32_t Quantizer::quantize(std::size_t feature,
                                  double v) const noexcept {
  if (step_[feature] <= 0.0) return 0;
  const double scaled = (v - lo_[feature]) / step_[feature];
  if (scaled <= 0.0) return 0;
  if (scaled >= static_cast<double>(kMaxQ)) return kMaxQ;
  return static_cast<std::uint32_t>(scaled);
}

std::vector<std::uint32_t> Quantizer::quantize_row(
    std::span<const double> x) const {
  std::vector<std::uint32_t> q(x.size());
  for (std::size_t f = 0; f < x.size(); ++f) q[f] = quantize(f, x[f]);
  return q;
}

std::uint32_t Quantizer::quantize_threshold(
    std::size_t feature, double threshold) const noexcept {
  return quantize(feature, threshold);
}

double Quantizer::dequantize(std::size_t feature,
                             std::uint32_t q) const noexcept {
  // Bucket center.
  return lo_[feature] + (static_cast<double>(q) + 0.5) * step_[feature];
}

ml::Dataset Quantizer::quantize_dataset(const ml::Dataset& data) const {
  ml::Dataset out(data.feature_names(), data.class_names());
  std::vector<double> x(data.n_features());
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < x.size(); ++f)
      x[f] = static_cast<double>(quantize(f, row[f]));
    out.add(x, data.label(i));
  }
  return out;
}

}  // namespace campuslab::dataplane
