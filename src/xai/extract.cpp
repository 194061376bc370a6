#include "campuslab/xai/extract.h"

#include <algorithm>
#include <cassert>

#include "campuslab/ml/metrics.h"

namespace campuslab::xai {

ExtractionResult ModelExtractor::extract(const ml::Classifier& teacher,
                                         const ml::Dataset& base) const {
  assert(base.n_rows() > 0);
  Rng rng(config_.seed);

  // Teacher-labelled corpus: base rows first, then synthetic jitters.
  ml::Dataset corpus(base.feature_names(), base.class_names());
  const auto ranges = base.feature_ranges();
  std::vector<double> x(base.n_features());

  for (std::size_t i = 0; i < base.n_rows(); ++i) {
    const auto row = base.row(i);
    corpus.add(row, teacher.predict(row));
  }
  for (std::size_t s = 0; s < config_.synthetic_samples; ++s) {
    const auto anchor = base.row(rng.below(base.n_rows()));
    for (std::size_t f = 0; f < x.size(); ++f) {
      const double span = ranges[f].second - ranges[f].first;
      if (span <= 0.0) {
        x[f] = anchor[f];
        continue;
      }
      const bool boolean_like =
          ranges[f].first == 0.0 && ranges[f].second == 1.0;
      if (boolean_like) {
        // Flip occasionally rather than jitter into meaningless 0.37s.
        x[f] = rng.chance(0.1) ? 1.0 - anchor[f] : anchor[f];
        continue;
      }
      double v = anchor[f] + rng.normal(0.0, config_.jitter * span);
      v = std::clamp(v, ranges[f].first, ranges[f].second);
      x[f] = v;
    }
    corpus.add(x, teacher.predict(x));
  }

  ml::TreeConfig tc;
  tc.max_depth = config_.student_max_depth;
  tc.min_samples_leaf = config_.min_samples_leaf;
  ExtractionResult result;
  result.student = ml::DecisionTree(tc);
  result.student.fit(corpus);
  // The corpus labels are the teacher's answers, so the student's
  // accuracy on them is its fidelity, without a second teacher pass.
  result.train_fidelity = ml::evaluate(result.student, corpus).accuracy();
  result.samples_used = corpus.n_rows();
  return result;
}

double fidelity(const ml::Classifier& student,
                const ml::Classifier& teacher, const ml::Dataset& probe) {
  if (probe.n_rows() == 0) return 0.0;
  std::size_t agree = 0;
  for (std::size_t i = 0; i < probe.n_rows(); ++i) {
    if (student.predict(probe.row(i)) == teacher.predict(probe.row(i)))
      ++agree;
  }
  return static_cast<double>(agree) /
         static_cast<double>(probe.n_rows());
}

}  // namespace campuslab::xai
