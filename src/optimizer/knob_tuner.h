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
  /// Target wall time of one morsel pipeline. Morsel sizing aims each
  /// task at this length: long enough to amortize per-task scheduling,
  /// short enough that one morsel never delays a high-priority query by
  /// more than ~a couple of ms (scheduler preemption granularity).
  double morsel_target_seconds = 0.002;
  /// Floor for shrunk morsels. There is no separate ceiling: morsels
  /// never grow past the configured baseline (KnobBaselines::morsel_rows).
  std::size_t min_morsel_rows = 1024;
  /// Clamps for the refit radix-aggregation crossover.
  std::size_t min_radix_groups = 256;
  std::size_t max_radix_groups = 1 << 20;
  /// Clamps for the refit index reuse horizon.
  double min_reuse_horizon = 1.0;
  double max_reuse_horizon = 16.0;
  /// A refit publishes only when it moves a knob by more than this
  /// relative fraction of its current effective value — adjacent queries
  /// see stable knobs, not a twitching control loop.
  double hysteresis = 0.25;
  /// Smoothing factor for every observation EWMA.
  double ewma_alpha = 0.2;
  /// Observations of a signal required before its first refit.
  std::uint64_t min_samples = 8;
};

/// Baseline knob values the tuner starts from (and returns while
/// disabled/unconverged). The engine fills these from its configured
/// EngineOptions / OptimizerOptions.
struct KnobBaselines {
  std::size_t morsel_rows = 8 * 1024;
  std::size_t radix_agg_min_groups = 4096;
  double index_reuse_horizon = 1.0;
};

/// The engine's knob control loop: turns the stats/telemetry plumbing
/// from a dashboard into feedback. Execution paths push observations
/// (per-morsel wall time, aggregate mode timings, IndexManager per-key
/// hit rates, operator footprints); the tuner re-fits three execution
/// knobs with EWMA smoothing, hysteresis, and hard clamps; the engine
/// reads the tuned values when building per-query OptimizerOptions and
/// the parallel driver:
///
///  - morsel_rows: rows/morsel = morsel_target_seconds / observed
///    seconds-per-row, clamped to [min_morsel_rows, baseline], so slow
///    rows shrink tasks toward the target length. Cheap rows never grow
///    a morsel past the configured size: every morsel is a copied table
///    slice, and larger slices buy memory, not speed;
///  - radix_agg_min_groups: the hash-vs-radix crossover where the hash
///    scheme's serial merge (groups x observed merge-cost/group) starts
///    losing to the radix scheme's routing overhead (rows x observed
///    extra accumulate-cost/row). Needs both modes observed;
///  - index_reuse_horizon: observed IndexManager lookups per distinct
///    key — the measured form of "how many queries amortize one build".
///
/// Publication is lock-free (relaxed atomics); readers on any thread pay
/// one load. Observation folding takes a small mutex — all observation
/// sites are per-morsel/per-operator, not per-row.
class KnobTuner {
 public:
  KnobTuner(KnobTunerOptions options, KnobBaselines baselines);

  // ---- observations (no-ops when disabled) ----

  /// One completed morsel pipeline: `rows` input rows in `seconds`.
  void ObserveMorsel(std::size_t rows, double seconds);

  /// One completed parallel grouped aggregation: which mode ran, its
  /// input rows / output groups, and the phase timings the driver split.
  void ObserveAggregate(bool radix, std::size_t input_rows,
                        std::size_t groups, double accumulate_seconds,
                        double merge_seconds);

  /// IndexManager reuse so far: cumulative lookups over distinct keys.
  void ObserveIndexReuse(std::uint64_t lookups, std::uint64_t distinct_keys);

  // ---- tuned reads (lock-free; baseline until a refit published) ----

  std::size_t morsel_rows() const;
  std::size_t radix_agg_min_groups() const;
  double index_reuse_horizon() const;

  /// Bytes/row calibrations for the governor charge sites, fed directly
  /// by the operators (hash-join build, sort, aggregation state).
  FootprintCalibrator* footprints() { return &footprints_; }
  const FootprintCalibrator* footprints() const { return &footprints_; }

  /// Point-in-time view for metrics/docs/tests.
  struct Snapshot {
    std::size_t morsel_rows = 0;
    std::size_t radix_agg_min_groups = 0;
    double index_reuse_horizon = 0;
    std::uint64_t refits = 0;          ///< published knob changes
    std::uint64_t morsel_samples = 0;
    double morsel_row_seconds = 0;     ///< EWMA seconds/row
  };
  Snapshot snapshot() const;

  const KnobTunerOptions& options() const { return options_; }
  const KnobBaselines& baselines() const { return baselines_; }

 private:
  /// Publishes `candidate` into `knob` iff it clears the hysteresis band
  /// around the current effective value.
  template <typename T>
  void PublishLocked(std::atomic<T>* knob, T current, T candidate)
      CRE_REQUIRES(mu_);

  KnobTunerOptions options_;
  KnobBaselines baselines_;
  FootprintCalibrator footprints_;

  mutable Mutex mu_;  // guards the EWMA fitting state below
  double morsel_row_seconds_ CRE_GUARDED_BY(mu_) = 0;
  std::uint64_t morsel_samples_ CRE_GUARDED_BY(mu_) = 0;
  /// hash mode: merge s / group
  double hash_merge_per_group_ CRE_GUARDED_BY(mu_) = 0;
  std::uint64_t hash_samples_ CRE_GUARDED_BY(mu_) = 0;
  /// hash mode: accumulate s / row
  double hash_accum_per_row_ CRE_GUARDED_BY(mu_) = 0;
  /// radix mode: accumulate s / row
  double radix_accum_per_row_ CRE_GUARDED_BY(mu_) = 0;
  std::uint64_t radix_samples_ CRE_GUARDED_BY(mu_) = 0;

  // Published knobs (atomics read from any thread).
  std::atomic<std::size_t> tuned_morsel_rows_;
  std::atomic<std::size_t> tuned_radix_groups_;
  std::atomic<double> tuned_horizon_;
  std::atomic<std::uint64_t> refits_{0};
};

}  // namespace cre

#endif  // CRE_OPTIMIZER_KNOB_TUNER_H_
