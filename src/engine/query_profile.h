#ifndef CRE_ENGINE_QUERY_PROFILE_H_
#define CRE_ENGINE_QUERY_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/scheduler.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace cre {

/// What one plan node did during one query. The streaming counters are
/// atomics because every per-morsel operator instance of the node, on
/// every worker, adds into the same record; the breaker phase fields are
/// written once by the driver thread after the node's tasks joined.
struct NodeProfile {
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> batches{0};
  /// Inclusive CPU time summed over workers: time inside the node's
  /// Open/Next (for an Aggregate: its accumulate tasks and merge), which
  /// includes `inner`'s time when the node pulls `inner` in the same
  /// pipeline.
  std::atomic<std::int64_t> cpu_ns{0};
  /// Driver-thread wall time of an internally parallel breaker (Sort,
  /// SemanticJoin, DetectScan), whose workers the driver cannot time.
  /// Such a node has no CPU figure.
  std::atomic<std::int64_t> wall_ns{0};
  /// The node this one pulls inside the same pipeline (its chain input),
  /// or null; set by the driver before the pipeline's tasks start.
  const NodeProfile* inner = nullptr;

  // Breaker phases (wall seconds on the driver thread).
  double sort_local_seconds = 0;
  double sort_merge_seconds = 0;
  std::size_t sort_runs = 0;
  std::size_t sort_merge_partitions = 0;
  const char* agg_mode = nullptr;  ///< "hash" or "radix" once aggregated
  std::size_t agg_chunks = 0;
  std::size_t agg_partitions = 0;
  double agg_accumulate_seconds = 0;
  double agg_merge_seconds = 0;
  double join_build_seconds = 0;     ///< hash-join build table
  double embed_queries_seconds = 0;  ///< scanning select's query embed
  std::size_t embed_queries = 0;
  std::size_t limit_morsels_run = 0;  ///< shared-row-budget LIMIT
  std::size_t limit_morsels_total = 0;

  void AddCpu(std::int64_t ns) {
    cpu_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddOutput(std::size_t out_rows) {
    rows.fetch_add(out_rows, std::memory_order_relaxed);
    batches.fetch_add(1, std::memory_order_relaxed);
  }
  /// Inclusive CPU minus `inner`'s inclusive CPU (seconds).
  double SelfSeconds() const;
  double InclusiveSeconds() const {
    return static_cast<double>(cpu_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  double WallSeconds() const {
    return static_cast<double>(wall_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

/// Monotonic nanoseconds, for the profile's interval arithmetic.
std::int64_t ProfileNowNs();

/// Decorator timing one per-morsel operator instance into its plan node's
/// record: output rows and batches, plus the time inside Open/Next added
/// to the node's CPU (or, for an internally parallel operator run on the
/// driver thread, to its wall).
class ProfiledOperator : public PhysicalOperator {
 public:
  ProfiledOperator(OperatorPtr child, NodeProfile* node, bool wall)
      : child_(std::move(child)),
        node_(node),
        target_(wall ? &node->wall_ns : &node->cpu_ns) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override { return child_->name(); }

 private:
  OperatorPtr child_;
  NodeProfile* node_;
  std::atomic<std::int64_t>* target_;
};

/// One query's profile, keyed by plan node: what EXPLAIN ANALYZE, the
/// slow-query log and the recent-queries ring (Engine::traces()) render.
/// The engine creates it for sampled queries (ObsOptions::
/// trace_sample_every; EXPLAIN ANALYZE always), binds it to the physical
/// plan before execution, and the parallel driver fills it in.
class QueryProfile {
 public:
  QueryProfile(std::uint64_t query_id, std::string kind)
      : query_id_(query_id), kind_(std::move(kind)) {}

  /// One driver step that ran work: a morsel pipeline up to its sink, a
  /// hash-join build, a sort, or a materializing operator. Steps are
  /// disjoint intervals on the driver thread.
  struct Step {
    std::string name;
    double wall_seconds = 0;
  };

  /// Creates one record per node of `plan` (call once, before execution;
  /// lookups are lock-free afterwards).
  void Bind(PlanPtr plan);
  /// The record of `node`, or null when `node` is not in the bound plan.
  NodeProfile* node(const PlanNode* node) const;
  /// Appends a driver step (driver thread only).
  void AddStep(std::string name, double wall_seconds) {
    steps_.push_back({std::move(name), wall_seconds});
  }

  std::uint64_t query_id() const { return query_id_; }
  const std::string& kind() const { return kind_; }
  const PlanPtr& plan() const { return plan_; }
  const std::vector<Step>& steps() const { return steps_; }

  // Query-level figures, set by the engine.
  std::string plan_origin;  ///< "optimized" or "cached(stamp=N)"
  double optimize_seconds = 0;
  double execute_seconds = 0;  ///< wall of the whole execution
  std::size_t dop = 1;         ///< the engine's degree of parallelism
  SchedulingCounters scheduling;

  /// The measured plan tree, one line per node with its breaker phases
  /// as sub-lines, then the driver steps and the scheduling counters.
  std::string ToString() const;
  /// Single line for the slow-query log:
  ///   optimize=0.210ms execute=12.345ms [Scan(items) -> Filter=3.100ms,...]
  std::string ToCompactString() const;

 private:
  void RenderNode(const PlanNode& node, int depth, std::string* out) const;

  std::uint64_t query_id_;
  std::string kind_;
  PlanPtr plan_;
  std::map<const PlanNode*, std::unique_ptr<NodeProfile>> nodes_;
  std::vector<Step> steps_;
};

}  // namespace cre

#endif  // CRE_ENGINE_QUERY_PROFILE_H_
