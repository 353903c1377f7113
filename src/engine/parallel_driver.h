#ifndef CRE_ENGINE_PARALLEL_DRIVER_H_
#define CRE_ENGINE_PARALLEL_DRIVER_H_

#include <map>
#include <memory>

#include "core/thread_pool.h"
#include "engine/engine.h"
#include "engine/query_context.h"
#include "engine/query_profile.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/pipeline.h"

namespace cre {

/// Morsel-driven, pipeline-aware physical plan driver. A plan is cut into
/// pipeline segments (exec/pipeline.h); each segment's base table is split
/// into morsels and the segment's operator chain is instantiated once per
/// morsel on the worker pool, with results concatenated in morsel order —
/// so parallel output row order equals serial output row order.
///
/// One driver instance drives one query, entirely against that query's
/// QueryContext: tables resolve from the pinned catalog snapshot, tasks
/// submit through the query's scheduler group (so concurrent queries
/// interleave fairly and barriers never couple across queries), the
/// cancellation flag is polled at every morsel boundary, and a profiled
/// query's measurements go to its QueryProfile, keyed by plan node.
///
/// Breakers around the segments:
///  - hash Join: the build side is executed (recursively, in parallel),
///    hashed once into a shared read-only HashJoinTable, and probed from
///    every morsel pipeline concurrently;
///  - Aggregate: each worker chunk accumulates private state over a run
///    of morsels cut by the morsel-size rule below. At low group
///    cardinality that is one GroupedAggregationState per chunk whose
///    partials merge at the barrier in chunk-index order; above
///    OptimizerOptions::radix_agg_min_groups estimated groups the chunks
///    instead partition by group-key hash radix
///    (RadixAggregationState) and the merge fans out over the pool, one
///    task per partition — removing the serial merge tail. Either way
///    results are exact (all five aggregate kinds merge associatively)
///    and the output row order is deterministic for a fixed thread count;
///  - Sort: the input materializes in parallel, then SortTable runs
///    per-run local sorts feeding a range-partitioned k-way loser-tree
///    merge on the pool (exec/parallel_sort.h) — the output permutation
///    is the serial stable-sort order;
///  - Limit: the subtree's streamable segment runs through the morsel
///    scheduler under a shared atomic row budget with an exact
///    prefix-complete cutoff (MorselParallelMapLimited), so limit plans
///    get both parallelism and early termination; Limit directly over
///    Sort additionally turns into a parallel top-k sort;
///  - SemanticGroupBy / SemanticJoin / DetectScan: inputs are
///    materialized in parallel, the operator itself runs on the driver
///    thread (SemanticJoin and DetectScan parallelize internally over the
///    pool);
///  - an index-backed SemanticSelect whose managed index cannot serve
///    this query (background build in flight, or built against a
///    different version than the query's snapshot) is re-routed through
///    the morsel scheduler as a scanning segment, so the brute-force
///    fallback still runs parallel.
///
/// Morsel geometry is a rule, not a tuned knob: a morsel map over `n`
/// rows at dop > 1 cuts morsels of min(EngineOptions::morsel_rows,
/// max(1024, ceil(n / (4 * dop)))) rows — about four morsels per
/// worker, never above the configured size — and configured-size
/// morsels at dop 1. Morsel maps and aggregate chunk layouts use the same
/// rule, and the same (rows, dop, morsel_rows) always gives the same
/// morsels.
///
/// All scheduling happens on the driver (caller) thread; worker tasks
/// never block on the pool themselves, which keeps the fixed-size pool
/// deadlock-free. The driver is the engine's only executor: with a
/// single-worker runner every morsel map, sort and aggregate runs inline
/// on the driver thread, with the same operators and budget charges.
class ParallelPlanDriver {
 public:
  /// `profile` (null when the query is not profiled) must be bound to the
  /// plan passed to Run.
  ParallelPlanDriver(Engine* engine, QueryContext* ctx, QueryProfile* profile);

  /// Executes the plan tree and returns the materialized result.
  Result<TablePtr> Run(const PlanNode& root);

 private:
  /// Shared build-side hash tables, one per kJoin node in a segment.
  using JoinStates =
      std::map<const PlanNode*, std::shared_ptr<HashJoinTable>>;
  /// One select state per scanning kSemanticSelect node in a segment,
  /// shared by every per-morsel instance: the query constant(s) embed
  /// once per query, and the match memo lets each distinct column value
  /// embed once per worker instead of once per morsel.
  using SelectStates = std::map<const PlanNode*, SemanticSelectStatePtr>;

  Result<TablePtr> RunSegment(const PipelineSegment& segment);
  Result<TablePtr> MaterializeSource(const PlanNode& source);
  /// Runs a materializing source's operator on the driver thread as one
  /// profiled driver step that began at `start_ns`.
  Result<TablePtr> RunOperator(const PlanNode& node, OperatorPtr op,
                               std::int64_t start_ns);
  Result<TablePtr> RunAggregate(const PlanNode& agg);
  /// Materializes the sort input (in parallel) and sorts it on the pool;
  /// `limit_hint` > 0 = top-k for a Limit parent.
  Result<TablePtr> RunSort(const PlanNode& sort, std::size_t limit_hint);
  /// Runs the limit's child segment through the morsel scheduler under a
  /// shared row budget (or as a parallel top-k sort for Limit over Sort).
  Result<TablePtr> RunLimit(const PlanNode& limit);
  Result<JoinStates> BuildJoinStates(const PipelineSegment& segment);
  Result<SelectStates> BuildSelectStates(const PipelineSegment& segment);

  /// Options for a morsel map over `rows`: the morsel-size rule (see the
  /// class comment), this query's runner and cancellation flag.
  MorselOptions MorselMapOptions(std::size_t rows) const;

  /// Instantiates the segment's operator chain over one morsel slice.
  /// Called concurrently from worker threads; everything it touches is
  /// read-only or freshly constructed.
  Result<OperatorPtr> BuildChain(const PipelineSegment& segment,
                                 const TablePtr& slice,
                                 const JoinStates& joins,
                                 const SelectStates& selects);

  /// The profile record of `node`, or null when this query is not
  /// profiled.
  NodeProfile* Profile(const PlanNode* node) const {
    return profile_ == nullptr ? nullptr : profile_->node(node);
  }
  /// Wraps `op` so it times itself into `node`'s record: CPU for an
  /// operator that runs on one thread, wall for one that parallelizes
  /// internally on the pool. Returns `op` unchanged when not profiling.
  OperatorPtr Instrument(const PlanNode* node, OperatorPtr op,
                         bool wall = false);
  /// Records which node each chain operator of `segment` (and `sink`, an
  /// aggregate consuming the chain) pulls, so self time can subtract it.
  void LinkChain(const PipelineSegment& segment, NodeProfile* sink) const;
  /// Appends a driver step named `name` that began at `start_ns`.
  void AddStep(const std::string& name, std::int64_t start_ns) const;

  Engine* engine_;
  QueryContext* ctx_;
  TaskRunner* runner_;
  /// EngineOptions::morsel_rows: the scan batch size and the morsel-size
  /// ceiling.
  std::size_t morsel_rows_;
  /// Null unless this query is profiled.
  QueryProfile* profile_;
};

}  // namespace cre

#endif  // CRE_ENGINE_PARALLEL_DRIVER_H_
