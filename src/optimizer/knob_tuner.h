#ifndef CRE_OPTIMIZER_KNOB_TUNER_H_
#define CRE_OPTIMIZER_KNOB_TUNER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/mutex.h"
#include "exec/footprint.h"

namespace cre {

/// Feedback calibration knobs (see KnobTuner).
struct KnobTunerOptions {
  /// Master switch. Disabled, every read returns its engine baseline and
  /// observations are dropped at a branch.
  bool enabled = true;
  /// Clamps for the refit index reuse horizon.
  double min_reuse_horizon = 1.0;
  double max_reuse_horizon = 16.0;
  /// A refit publishes only when it moves a knob by more than this
  /// relative fraction of its current effective value — adjacent queries
  /// see stable knobs, not a twitching control loop.
  double hysteresis = 0.25;
  /// Smoothing factor for the footprint calibrator's bytes/row EWMAs.
  double ewma_alpha = 0.2;
  /// IndexManager lookups required before the first horizon refit.
  std::uint64_t min_samples = 8;
};

/// Baseline knob values the tuner starts from (and returns while
/// disabled/unconverged). The engine fills these from its configured
/// OptimizerOptions.
struct KnobBaselines {
  double index_reuse_horizon = 1.0;
};

/// The engine's feedback calibration: execution paths push observations
/// and the tuner re-fits what only a running workload can tell.
///
///  - index_reuse_horizon: observed IndexManager lookups per distinct
///    key — the measured form of "how many queries amortize one build",
///    clamped and published through a hysteresis band; the engine reads
///    it into per-query OptimizerOptions (and the plan-cache knob
///    signature);
///  - governor bytes/row: the FootprintCalibrator, fed by the operators
///    at the big charge sites (hash-join build, sort, aggregation state).
///
/// Morsel size and the hash-vs-radix aggregation crossover are not
/// tuned: the parallel driver derives morsel geometry from (rows, dop,
/// EngineOptions::morsel_rows) and reads the crossover from
/// OptimizerOptions, so they stay fixed for a fixed configuration.
///
/// Publication is lock-free (relaxed atomics); readers on any thread pay
/// one load. A refit takes a small mutex.
class KnobTuner {
 public:
  KnobTuner(KnobTunerOptions options, KnobBaselines baselines);

  /// IndexManager reuse so far: cumulative lookups over distinct keys.
  /// No-op when disabled.
  void ObserveIndexReuse(std::uint64_t lookups, std::uint64_t distinct_keys);

  /// Tuned read (lock-free; baseline until a refit published).
  double index_reuse_horizon() const;

  /// Bytes/row calibrations for the governor charge sites, fed directly
  /// by the operators (hash-join build, sort, aggregation state).
  FootprintCalibrator* footprints() { return &footprints_; }
  const FootprintCalibrator* footprints() const { return &footprints_; }

  /// Point-in-time view for metrics/docs/tests.
  struct Snapshot {
    double index_reuse_horizon = 0;
    std::uint64_t refits = 0;  ///< published knob changes
  };
  Snapshot snapshot() const;

  const KnobTunerOptions& options() const { return options_; }
  const KnobBaselines& baselines() const { return baselines_; }

 private:
  KnobTunerOptions options_;
  KnobBaselines baselines_;
  FootprintCalibrator footprints_;

  Mutex mu_;  // serializes refits (read-compare-publish)
  std::atomic<double> tuned_horizon_;
  std::atomic<std::uint64_t> refits_{0};
};

}  // namespace cre

#endif  // CRE_OPTIMIZER_KNOB_TUNER_H_
