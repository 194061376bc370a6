// Quantizer — maps double-valued features to the 16-bit integers a
// switch pipeline actually carries in metadata.
//
// Per-feature affine quantization q(v) = clamp(floor((v - lo) / step)).
// The mapping is monotone, so tree threshold comparisons survive:
// v <= t implies q(v) <= q(t). Equality at the boundary can flip for
// values strictly between quantization levels — models intended for
// exact dataplane equivalence are trained on pre-quantized features
// (see the T-P4 bench and dataplane tests).
#pragma once

#include <cstdint>
#include <vector>

#include "campuslab/ml/dataset.h"

namespace campuslab::dataplane {

class Quantizer {
 public:
  static constexpr std::uint32_t kMaxQ = 0xFFFF;  // 16-bit metadata

  /// Fit per-feature ranges from data (with 1% headroom).
  static Quantizer fit(const ml::Dataset& data);
  /// Explicit ranges (lo == hi marks a constant feature -> q = 0).
  static Quantizer from_ranges(
      std::vector<std::pair<double, double>> ranges);
  /// The identity mapping over the quantized grid (q(v) = v for v in
  /// 0..kMaxQ): how a model trained on already-quantized values runs.
  static Quantizer identity(std::size_t n_features);
  /// Exact reconstruction from persisted per-feature (lo, step) pairs —
  /// the model-registry round trip must be bit-identical, which a
  /// lo/hi re-derivation of step cannot guarantee in floating point.
  static Quantizer from_levels(std::vector<double> lo,
                               std::vector<double> step);

  std::size_t n_features() const noexcept { return lo_.size(); }

  /// Persisted-form accessors (see from_levels).
  double lo(std::size_t feature) const noexcept { return lo_[feature]; }
  double step(std::size_t feature) const noexcept {
    return step_[feature];
  }

  std::uint32_t quantize(std::size_t feature, double v) const noexcept;
  std::vector<std::uint32_t> quantize_row(
      std::span<const double> x) const;

  /// Quantize a split threshold: the largest q such that any value v
  /// with q(v) <= q satisfies the intent of (v <= threshold).
  std::uint32_t quantize_threshold(std::size_t feature,
                                   double threshold) const noexcept;

  /// Map a dataset onto its quantized grid (each value replaced by the
  /// center of its bucket) — train on this for exact dataplane
  /// equivalence.
  ml::Dataset quantize_dataset(const ml::Dataset& data) const;

  double dequantize(std::size_t feature, std::uint32_t q) const noexcept;

 private:
  std::vector<double> lo_;
  std::vector<double> step_;
};

}  // namespace campuslab::dataplane
