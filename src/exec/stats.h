#ifndef CRE_EXEC_STATS_H_
#define CRE_EXEC_STATS_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "exec/operator.h"

namespace cre {

/// Lock-free add for pre-C++20 atomic doubles.
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Execution counters for one operator (or one shared slot covering every
/// per-morsel instance of a plan node). Counters are atomics so concurrent
/// morsel pipelines can update one slot without tearing.
struct OperatorStats {
  std::string name;
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> rows{0};
  std::atomic<double> open_seconds{0};
  std::atomic<double> next_seconds{0};  ///< cumulative time inside Next()

  void AddOpenSeconds(double s) { AtomicAddDouble(open_seconds, s); }
  void AddBatch(std::size_t batch_rows, double seconds) {
    batches.fetch_add(1, std::memory_order_relaxed);
    rows.fetch_add(batch_rows, std::memory_order_relaxed);
    AtomicAddDouble(next_seconds, seconds);
  }
};

/// Collects stats from a tree of instrumented operators. AddSlot creates a
/// fresh slot per call (the engine's scheduling summary lines); SlotFor
/// returns one shared slot per plan-node identity, which
/// is how the parallel driver aggregates every per-morsel operator
/// instance of one plan node into a single line while keeping distinct
/// same-named nodes (two Filters, two HashJoins) on separate lines. Both
/// are thread-safe.
class StatsCollector {
 public:
  OperatorStats* AddSlot(std::string name) {
    MutexLock lock(mu_);
    return AddSlotLocked(std::move(name));
  }

  /// Shared slot keyed by an opaque identity (the driver passes the plan
  /// node pointer); created with `name` on first use.
  OperatorStats* SlotFor(const void* key, const std::string& name) {
    return SlotFor(key, /*phase=*/0, name);
  }

  /// Per-stage slot of one plan node: the driver records where a parallel
  /// breaker spends its time (e.g. Sort's local-sort vs merge phase,
  /// radix aggregation's partition vs merge phase) under distinct phase
  /// ids, so EXPLAIN ANALYZE and the benches can report the breakdown.
  OperatorStats* SlotFor(const void* key, int phase,
                         const std::string& name) {
    MutexLock lock(mu_);
    auto it = by_key_.find({key, phase});
    if (it != by_key_.end()) return it->second;
    OperatorStats* slot = AddSlotLocked(name);
    by_key_.emplace(std::make_pair(key, phase), slot);
    return slot;
  }

  /// The phase-0 slot registered for `key`, or nullptr when the node was
  /// never keyed (EXPLAIN ANALYZE looks plan nodes up by identity).
  OperatorStats* FindSlot(const void* key, int phase = 0) const {
    MutexLock lock(mu_);
    auto it = by_key_.find({key, phase});
    return it == by_key_.end() ? nullptr : it->second;
  }

  /// All (phase, slot) pairs registered for `key`, sorted by phase —
  /// phase 0 is the node's whole-operator slot, higher phases are the
  /// breaker-internal stages recorded by the parallel driver.
  std::vector<std::pair<int, OperatorStats*>> PhasesFor(
      const void* key) const {
    MutexLock lock(mu_);
    std::vector<std::pair<int, OperatorStats*>> out;
    for (auto it = by_key_.lower_bound({key, 0});
         it != by_key_.end() && it->first.first == key; ++it) {
      out.emplace_back(it->first.second, it->second);
    }
    return out;
  }

  /// Per-operator rows/time rendering (EXPLAIN ANALYZE output).
  std::string ToString() const;

  /// Registered slots in creation order, copied under the lock. Slot
  /// pointers stay valid for the collector's lifetime (slots are never
  /// removed); the counters themselves are atomics, so reading them while
  /// an execution is still running is safe, just racy.
  std::vector<OperatorStats*> slots() const {
    MutexLock lock(mu_);
    std::vector<OperatorStats*> out;
    out.reserve(slots_.size());
    for (const auto& slot : slots_) out.push_back(slot.get());
    return out;
  }

 private:
  OperatorStats* AddSlotLocked(std::string name) CRE_REQUIRES(mu_) {
    slots_.push_back(std::make_unique<OperatorStats>());
    OperatorStats* slot = slots_.back().get();
    slot->name = std::move(name);
    return slot;
  }

  mutable Mutex mu_;
  std::vector<std::unique_ptr<OperatorStats>> slots_ CRE_GUARDED_BY(mu_);
  std::map<std::pair<const void*, int>, OperatorStats*> by_key_
      CRE_GUARDED_BY(mu_);
};

/// Decorator measuring a child operator's Open/Next time and output rows.
/// The engine wraps every lowered operator with one of these when a
/// query runs under ExecuteWithStats; the parallel driver wraps every
/// per-morsel operator instance with a slot shared across morsels.
class InstrumentedOperator : public PhysicalOperator {
 public:
  InstrumentedOperator(OperatorPtr child, OperatorStats* stats)
      : child_(std::move(child)), stats_(stats) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override { return child_->name(); }

 private:
  OperatorPtr child_;
  OperatorStats* stats_;
};

}  // namespace cre

#endif  // CRE_EXEC_STATS_H_
