#include "optimizer/knob_tuner.h"

#include <algorithm>
#include <cmath>

namespace cre {

KnobTuner::KnobTuner(KnobTunerOptions options, KnobBaselines baselines)
    : options_(options),
      baselines_(baselines),
      footprints_(options.ewma_alpha),
      tuned_horizon_(baselines.index_reuse_horizon) {}

void KnobTuner::ObserveIndexReuse(std::uint64_t lookups,
                                  std::uint64_t distinct_keys) {
  if (!options_.enabled || distinct_keys == 0 ||
      lookups < options_.min_samples) {
    return;
  }
  const double fit =
      static_cast<double>(lookups) / static_cast<double>(distinct_keys);
  const double candidate = std::min(
      options_.max_reuse_horizon, std::max(options_.min_reuse_horizon, fit));
  MutexLock lock(mu_);
  // Publish only when the refit clears the hysteresis band around the
  // current effective value.
  const double current = tuned_horizon_.load(std::memory_order_relaxed);
  if (current > 0 &&
      std::abs(candidate - current) / current <= options_.hysteresis) {
    return;
  }
  tuned_horizon_.store(candidate, std::memory_order_relaxed);
  refits_.fetch_add(1, std::memory_order_relaxed);
}

double KnobTuner::index_reuse_horizon() const {
  if (!options_.enabled) return baselines_.index_reuse_horizon;
  return tuned_horizon_.load(std::memory_order_relaxed);
}

KnobTuner::Snapshot KnobTuner::snapshot() const {
  Snapshot out;
  out.index_reuse_horizon = index_reuse_horizon();
  out.refits = refits_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cre
