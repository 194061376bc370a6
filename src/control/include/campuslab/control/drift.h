// DriftDetector — windowed distribution-shift detection over the live
// verdict stream, the trigger of the continuous automation loop.
//
// The deployed model emits a score (confidence of the event class) and
// a predicted class for every inspected packet. The detector buckets
// scores into a small histogram per window of `window` verdicts and
// compares each completed window against a reference window captured
// just after the last (re)deploy:
//
//   score signal  — total-variation distance between the window's score
//                   histogram and the reference histogram;
//   rate signal   — absolute shift of the predicted-positive rate.
//
// The drift score is the max of the two. Hysteresis keeps the trigger
// honest: `trigger_windows` consecutive windows over
// `trigger_threshold` arm it, and once armed it stays armed until a
// window falls to `clear_threshold` (strictly below the trigger) or
// the loop rebase()s after deploying a fresh model — a score
// oscillating at the threshold can neither flap the state nor
// re-trigger mid-cycle.
//
// Signals are published as gauges (control.drift_score_ppm,
// control.drift_rate_delta_ppm, control.drift_state) so an operator
// watches drift build before the loop acts on it.
//
// Concurrency: observe()/evaluate_window()/rebase() belong to the one
// thread that runs the packet path and the loop (in the testbed, the
// simulation thread). state() and the last-signal reads are atomic and
// safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace campuslab::obs {
class Counter;
class Gauge;
}  // namespace campuslab::obs

namespace campuslab::control {

struct DriftConfig {
  /// Verdicts per evaluation window.
  std::size_t window = 2048;
  /// Score-histogram resolution.
  std::size_t bins = 16;
  /// Drift score at or above this marks a window as drifted. 0 marks
  /// every judged window as drifted, so the loop retrains on its check
  /// cadence.
  double trigger_threshold = 0.25;
  /// Hysteresis low-water: an armed detector disarms only when a
  /// window's drift score falls to or below this. Must be below
  /// trigger_threshold.
  double clear_threshold = 0.12;
  /// Consecutive drifted windows required to arm the trigger.
  std::size_t trigger_windows = 2;
  /// Windows with fewer verdicts than this are not judged (a quiet
  /// interval is not evidence of drift).
  std::size_t min_samples = 256;
};

enum class DriftState : int { kCalm = 0, kDrifted = 1 };

class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig config = {});

  /// Feed one verdict from the live stream: `score` is the model's
  /// confidence of the event class in [0, 1], `positive` its predicted
  /// class. Evaluates automatically whenever a window fills.
  void observe(double score, bool positive) noexcept;

  /// Judge whatever the current partial window holds and start a new
  /// window. Windows below min_samples are discarded unjudged; the
  /// first judgeable window after start/rebase becomes the reference.
  void evaluate_window() noexcept;

  /// Re-baseline after a deploy: drop the reference and the partial
  /// window and disarm. The next full window becomes the reference.
  void rebase() noexcept;

  DriftState state() const noexcept {
    return static_cast<DriftState>(state_.load(std::memory_order_acquire));
  }
  bool triggered() const noexcept { return state() == DriftState::kDrifted; }

  /// Last judged window's signals (0 before the first judged window).
  double last_score_distance() const noexcept {
    return ppm_to_fraction(last_score_ppm_.load(std::memory_order_relaxed));
  }
  double last_rate_delta() const noexcept {
    return ppm_to_fraction(last_rate_ppm_.load(std::memory_order_relaxed));
  }
  bool has_reference() const noexcept { return !reference_.empty(); }

  std::uint64_t windows_judged() const noexcept { return windows_judged_; }
  std::uint64_t triggers() const noexcept { return triggers_; }
  /// Calm<->drifted state changes — the no-flap property is this
  /// staying small while the drift score oscillates at the threshold.
  std::uint64_t transitions() const noexcept { return transitions_; }

 private:
  static double ppm_to_fraction(std::int64_t ppm) noexcept {
    return static_cast<double>(ppm) * 1e-6;
  }
  void reset_window() noexcept;
  void set_state(DriftState next) noexcept;

  DriftConfig config_;
  // Current (partial) window, owned by the observing thread.
  std::vector<std::uint64_t> counts_;
  std::uint64_t positives_ = 0;
  std::uint64_t samples_ = 0;
  // Reference distribution (fractions); empty until the first judged
  // window after start/rebase.
  std::vector<double> reference_;
  double reference_positive_rate_ = 0.0;
  std::size_t hot_streak_ = 0;
  std::uint64_t windows_judged_ = 0;
  std::uint64_t triggers_ = 0;
  std::uint64_t transitions_ = 0;
  // Cross-thread-readable signals.
  std::atomic<int> state_{0};
  std::atomic<std::int64_t> last_score_ppm_{0};
  std::atomic<std::int64_t> last_rate_ppm_{0};
  // obs
  obs::Gauge* obs_state_ = nullptr;
  obs::Gauge* obs_score_ = nullptr;
  obs::Gauge* obs_rate_ = nullptr;
  obs::Counter* obs_windows_ = nullptr;
  obs::Counter* obs_triggers_ = nullptr;
};

}  // namespace campuslab::control
