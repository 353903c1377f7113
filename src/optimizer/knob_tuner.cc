#include "optimizer/knob_tuner.h"

#include <algorithm>
#include <cmath>

namespace cre {

namespace {

double Ewma(double current, double sample, double alpha) {
  return current <= 0 ? sample : current + alpha * (sample - current);
}

}  // namespace

KnobTuner::KnobTuner(KnobTunerOptions options, KnobBaselines baselines)
    : options_(options),
      baselines_(baselines),
      footprints_(options.ewma_alpha),
      tuned_morsel_rows_(baselines.morsel_rows),
      tuned_radix_groups_(baselines.radix_agg_min_groups),
      tuned_horizon_(baselines.index_reuse_horizon) {}

template <typename T>
void KnobTuner::PublishLocked(std::atomic<T>* knob, T current, T candidate) {
  const double cur = static_cast<double>(current);
  const double cand = static_cast<double>(candidate);
  if (cur > 0 && std::abs(cand - cur) / cur <= options_.hysteresis) return;
  knob->store(candidate, std::memory_order_relaxed);
  refits_.fetch_add(1, std::memory_order_relaxed);
}

void KnobTuner::ObserveMorsel(std::size_t rows, double seconds) {
  if (!options_.enabled || rows == 0 || seconds <= 0) return;
  MutexLock lock(mu_);
  morsel_row_seconds_ = Ewma(morsel_row_seconds_,
                             seconds / static_cast<double>(rows),
                             options_.ewma_alpha);
  if (++morsel_samples_ < options_.min_samples) return;
  if (morsel_row_seconds_ <= 0) return;
  const double fit = options_.morsel_target_seconds / morsel_row_seconds_;
  const std::size_t candidate = std::min(
      baselines_.morsel_rows,
      std::max(options_.min_morsel_rows, static_cast<std::size_t>(fit)));
  PublishLocked(&tuned_morsel_rows_,
                tuned_morsel_rows_.load(std::memory_order_relaxed),
                candidate);
}

void KnobTuner::ObserveAggregate(bool radix, std::size_t input_rows,
                                 std::size_t groups,
                                 double accumulate_seconds,
                                 double merge_seconds) {
  if (!options_.enabled || input_rows == 0) return;
  MutexLock lock(mu_);
  if (radix) {
    radix_accum_per_row_ =
        Ewma(radix_accum_per_row_,
             accumulate_seconds / static_cast<double>(input_rows),
             options_.ewma_alpha);
    ++radix_samples_;
  } else {
    hash_accum_per_row_ =
        Ewma(hash_accum_per_row_,
             accumulate_seconds / static_cast<double>(input_rows),
             options_.ewma_alpha);
    if (groups > 0) {
      hash_merge_per_group_ =
          Ewma(hash_merge_per_group_,
               merge_seconds / static_cast<double>(groups),
               options_.ewma_alpha);
    }
    ++hash_samples_;
  }
  // The crossover needs both modes measured: radix wins once the hash
  // scheme's serial merge (groups * merge_s/group) exceeds the routing
  // overhead radix adds during accumulation (rows * extra accum_s/row).
  // With est_groups ~ rows at the crossover scale, groups* solves
  //   groups * hash_merge_per_group = groups * extra_accum_per_row * k
  // conservatively as extra_total / merge_per_group using the observed
  // per-row delta — i.e. the group count whose serial merge just pays
  // for the partition pass.
  if (hash_samples_ < options_.min_samples ||
      radix_samples_ < options_.min_samples) {
    return;
  }
  if (hash_merge_per_group_ <= 0) return;
  const double extra_per_row =
      std::max(0.0, radix_accum_per_row_ - hash_accum_per_row_);
  // rows-per-group at the decision point is unknown; use the observed
  // input size as the scale: the radix form pays extra_per_row over
  // `input_rows` rows, the hash form pays merge_per_group over the
  // estimated groups — they break even at:
  const double breakeven =
      extra_per_row * static_cast<double>(input_rows) / hash_merge_per_group_;
  const std::size_t candidate = std::min(
      options_.max_radix_groups,
      std::max(options_.min_radix_groups,
               static_cast<std::size_t>(breakeven)));
  PublishLocked(&tuned_radix_groups_,
                tuned_radix_groups_.load(std::memory_order_relaxed),
                candidate);
}

void KnobTuner::ObserveIndexReuse(std::uint64_t lookups,
                                  std::uint64_t distinct_keys) {
  if (!options_.enabled || distinct_keys == 0 ||
      lookups < options_.min_samples) {
    return;
  }
  MutexLock lock(mu_);
  const double fit =
      static_cast<double>(lookups) / static_cast<double>(distinct_keys);
  const double candidate = std::min(
      options_.max_reuse_horizon, std::max(options_.min_reuse_horizon, fit));
  PublishLocked(&tuned_horizon_,
                tuned_horizon_.load(std::memory_order_relaxed), candidate);
}

std::size_t KnobTuner::morsel_rows() const {
  if (!options_.enabled) return baselines_.morsel_rows;
  return tuned_morsel_rows_.load(std::memory_order_relaxed);
}

std::size_t KnobTuner::radix_agg_min_groups() const {
  if (!options_.enabled) return baselines_.radix_agg_min_groups;
  return tuned_radix_groups_.load(std::memory_order_relaxed);
}

double KnobTuner::index_reuse_horizon() const {
  if (!options_.enabled) return baselines_.index_reuse_horizon;
  return tuned_horizon_.load(std::memory_order_relaxed);
}

KnobTuner::Snapshot KnobTuner::snapshot() const {
  Snapshot out;
  out.morsel_rows = morsel_rows();
  out.radix_agg_min_groups = radix_agg_min_groups();
  out.index_reuse_horizon = index_reuse_horizon();
  out.refits = refits_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  out.morsel_samples = morsel_samples_;
  out.morsel_row_seconds = morsel_row_seconds_;
  return out;
}

}  // namespace cre
