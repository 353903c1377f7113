#ifndef CRE_EXEC_PIPELINE_H_
#define CRE_EXEC_PIPELINE_H_

#include <string>
#include <vector>

#include "plan/plan_node.h"

namespace cre {

/// Pipeline decomposition over physical plans (morsel-driven execution,
/// Leis et al. style, adapted to the context-rich engine): a plan tree is
/// cut at pipeline breakers — operators that must see their whole input
/// (or a whole side of it) before producing output — and everything
/// between two cuts forms a *pipeline segment* that can run per-morsel on
/// the worker pool with deterministic morsel-order concatenation.
///
/// Streamable (ride inside a segment, row-parallel):
///   Filter, Project, scanning SemanticSelect / SemanticMultiSelect, and
///   the PROBE side of a hash Join once its build side has been
///   materialized into a shared read-only hash table. (An index-backed
///   SemanticSelect instead probes a whole-table managed index and acts
///   as a segment source.)
/// Breakers (segment sources, materialized before the segment above them
/// starts):
///   Scan (the segment's base table), DetectScan (parallelized internally
///   over images), Aggregate (per-worker partial states merged at the
///   barrier), Sort, Limit, SemanticJoin (parallelizes its probe loop
///   internally), SemanticGroupBy (order-sensitive online clustering —
///   inherently serial consumption, parallel below).

/// True when `node` can execute inside a morsel-parallel segment above its
/// first child (for kJoin: the probe/left child).
bool IsMorselStreamable(const PlanNode& node);

/// True when `node` terminates the segment below it (must materialize).
bool IsPipelineBreaker(const PlanNode& node);

/// One maximal streamable segment: `source` is the breaker/leaf feeding the
/// segment, `ops` the streamable operators above it in bottom-up order
/// (ops.front() consumes the source, ops.back() produces `root`'s output).
struct PipelineSegment {
  const PlanNode* source = nullptr;
  std::vector<const PlanNode*> ops;
};

/// Walks down from `root` through streamable operators (descending into
/// the probe side of joins) and returns the segment rooted at `root`.
/// Recursion over the remaining tree (breaker inputs, join build sides)
/// is the driver's job.
PipelineSegment DecomposePipeline(const PlanNode& root);

/// "Scan(t) -> Filter -> Join": a segment's source and streamable ops, as
/// the pipeline routing below and the query profile's driver steps name
/// it.
std::string SegmentName(const PipelineSegment& segment);

/// EXPLAIN rendering of the parallel driver's routing for `plan`: one
/// line per pipeline, each annotated with its degree of parallelism and
/// how it is scheduled — through the morsel scheduler (with a shared row
/// budget for LIMIT subtrees), as a parallel sort / top-k sort, through
/// an internally parallel operator, or (dop <= 1) inline on the calling
/// thread. `radix_agg_min_groups` mirrors the driver's aggregate-form
/// choice so the annotation matches what would execute. Appended to
/// Engine::Explain output.
std::string DescribePipelines(const PlanNode& plan, std::size_t dop,
                              std::size_t radix_agg_min_groups);

}  // namespace cre

#endif  // CRE_EXEC_PIPELINE_H_
