#include "engine/parallel_driver.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/timer.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/morsel.h"
#include "exec/parallel_sort.h"
#include "exec/scan.h"

namespace cre {

namespace {

/// Over-decomposition factor: the morsel maps aim at this many morsels
/// per worker, and a hash aggregate at this many chunks per worker —
/// enough slack to balance uneven rows across workers.
constexpr std::size_t kMorselsPerWorker = 4;
/// Floor on the rule's morsel size, so small inputs do not shatter into
/// morsels whose per-task overhead outweighs their rows.
constexpr std::size_t kMinMorselRows = 1024;

}  // namespace

ParallelPlanDriver::ParallelPlanDriver(Engine* engine, QueryContext* ctx,
                                       QueryProfile* profile)
    : engine_(engine),
      ctx_(ctx),
      runner_(ctx->runner()),
      morsel_rows_(std::max<std::size_t>(1, engine->options().morsel_rows)),
      profile_(profile) {}

MorselOptions ParallelPlanDriver::MorselMapOptions(std::size_t rows) const {
  MorselOptions options;
  options.morsel_rows = morsel_rows_;
  const std::size_t dop = runner_->num_threads();
  if (dop > 1) {
    const std::size_t per_morsel =
        (rows + kMorselsPerWorker * dop - 1) / (kMorselsPerWorker * dop);
    options.morsel_rows =
        std::min(morsel_rows_, std::max(kMinMorselRows, per_morsel));
  }
  options.pool = runner_;
  options.cancel = ctx_->cancel_flag();
  return options;
}

Result<TablePtr> ParallelPlanDriver::Run(const PlanNode& root) {
  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  return RunSegment(DecomposePipeline(root));
}

OperatorPtr ParallelPlanDriver::Instrument(const PlanNode* node,
                                           OperatorPtr op, bool wall) {
  NodeProfile* record = Profile(node);
  if (record == nullptr) return op;
  return std::make_unique<ProfiledOperator>(std::move(op), record, wall);
}

void ParallelPlanDriver::LinkChain(const PipelineSegment& segment,
                                   NodeProfile* sink) const {
  if (profile_ == nullptr) return;
  // BuildChain instruments a Scan source and every op; each pulls the one
  // below it.
  NodeProfile* below = segment.source->kind == PlanKind::kScan
                           ? Profile(segment.source)
                           : nullptr;
  for (const PlanNode* op : segment.ops) {
    NodeProfile* record = Profile(op);
    record->inner = below;
    below = record;
  }
  if (sink != nullptr) sink->inner = below;
}

void ParallelPlanDriver::AddStep(const std::string& name,
                                 std::int64_t start_ns) const {
  profile_->AddStep(name,
                    static_cast<double>(ProfileNowNs() - start_ns) * 1e-9);
}

Result<TablePtr> ParallelPlanDriver::RunOperator(const PlanNode& node,
                                                 OperatorPtr op,
                                                 std::int64_t start_ns) {
  // DetectScan and SemanticJoin parallelize internally: the driver sees
  // their wall, not their workers' CPU.
  op = Instrument(&node, std::move(op),
                  /*wall=*/node.kind == PlanKind::kDetectScan ||
                      node.kind == PlanKind::kSemanticJoin);
  CRE_ASSIGN_OR_RETURN(TablePtr out, ExecuteToTable(op.get()));
  if (profile_ != nullptr) AddStep(SegmentName({&node, {}}), start_ns);
  return out;
}

Result<TablePtr> ParallelPlanDriver::MaterializeSource(
    const PlanNode& source) {
  switch (source.kind) {
    case PlanKind::kScan:
      // The snapshot table is the morsel base; a pushed-down predicate is
      // applied inside each morsel pipeline (see BuildChain).
      return ctx_->snapshot().Get(source.table_name);
    case PlanKind::kAggregate:
      return RunAggregate(source);
    case PlanKind::kLimit:
      return RunLimit(source);
    case PlanKind::kSort:
      return RunSort(source, /*limit_hint=*/0);
    case PlanKind::kDetectScan: {
      // The operator parallelizes detection over images internally.
      const std::int64_t start = ProfileNowNs();
      CRE_ASSIGN_OR_RETURN(OperatorPtr op,
                           engine_->LowerNodeOver(ctx_, source, {}));
      return RunOperator(source, std::move(op), start);
    }
    case PlanKind::kSemanticSelect: {
      // Only the index-backed form reaches here (the scanning form is
      // morsel-streamable). When a ready managed index pairs with this
      // query's snapshot: one range search, gathered on the driver
      // thread. Otherwise (background build in flight, or a version
      // mismatch against the snapshot) the brute-force fallback runs as
      // a scanning segment through the morsel scheduler — a cold query
      // is served parallel and never blocks on the build.
      const std::int64_t start = ProfileNowNs();
      CRE_ASSIGN_OR_RETURN(OperatorPtr op,
                           engine_->TryLowerIndexSelect(ctx_, source));
      if (op != nullptr) return RunOperator(source, std::move(op), start);
      PipelineSegment fallback;
      fallback.source = source.children[0].get();
      fallback.ops.push_back(&source);
      return RunSegment(fallback);
    }
    case PlanKind::kSemanticGroupBy: {
      // Materialize the input in parallel, then run the (order-sensitive)
      // operator serially over it. Feeding morsels in order keeps the
      // output identical at every dop.
      CRE_ASSIGN_OR_RETURN(TablePtr input, Run(*source.children[0]));
      const std::int64_t start = ProfileNowNs();
      std::vector<OperatorPtr> children;
      children.push_back(
          std::make_unique<TableScanOperator>(std::move(input), morsel_rows_));
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->LowerNodeOver(ctx_, source, std::move(children)));
      return RunOperator(source, std::move(op), start);
    }
    case PlanKind::kSemanticJoin: {
      // Both inputs materialize in parallel; the join's probe loop then
      // spreads over the pool internally (vecsim splits the probe side).
      CRE_ASSIGN_OR_RETURN(TablePtr left, Run(*source.children[0]));
      CRE_ASSIGN_OR_RETURN(TablePtr right, Run(*source.children[1]));
      const std::int64_t start = ProfileNowNs();
      std::vector<OperatorPtr> children;
      children.push_back(
          std::make_unique<TableScanOperator>(std::move(left), morsel_rows_));
      children.push_back(
          std::make_unique<TableScanOperator>(std::move(right), morsel_rows_));
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->LowerNodeOver(ctx_, source, std::move(children)));
      return RunOperator(source, std::move(op), start);
    }
    default:
      return Status::Internal("unexpected pipeline source kind '" +
                              std::string(PlanKindName(source.kind)) + "'");
  }
}

Result<ParallelPlanDriver::JoinStates> ParallelPlanDriver::BuildJoinStates(
    const PipelineSegment& segment) {
  JoinStates joins;
  for (const PlanNode* op : segment.ops) {
    if (op->kind != PlanKind::kJoin) continue;
    CRE_ASSIGN_OR_RETURN(TablePtr build, Run(*op->children[1]));
    const std::int64_t start = ProfileNowNs();
    CRE_ASSIGN_OR_RETURN(
        std::shared_ptr<HashJoinTable> table,
        HashJoinTable::Build(std::move(build), op->right_key,
                             ctx_->budget_handle(),
                             engine_->knob_tuner()->footprints()));
    joins.emplace(op, std::move(table));
    if (NodeProfile* record = Profile(op)) {
      record->join_build_seconds +=
          static_cast<double>(ProfileNowNs() - start) * 1e-9;
      AddStep("HashJoin build", start);
    }
  }
  return joins;
}

Result<ParallelPlanDriver::SelectStates> ParallelPlanDriver::BuildSelectStates(
    const PipelineSegment& segment) {
  SelectStates selects;
  for (const PlanNode* op : segment.ops) {
    if (op->kind != PlanKind::kSemanticSelect) continue;
    CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model,
                         engine_->models().Get(op->model_name));
    const std::vector<std::string> queries = op->SelectQueries();
    const std::int64_t start = ProfileNowNs();
    CRE_RETURN_NOT_OK(CRE_INJECT_FAULT("embed.query"));
    // The shared state outlives this scope (every per-morsel operator
    // instance holds it), so charge the query matrix without a scoped
    // release; the query budget returns the remainder when the query
    // finishes. The memo charges its own entries as it grows.
    if (ctx_->budget() != nullptr) {
      const std::size_t bytes = queries.size() * model->dim() * sizeof(float);
      CRE_RETURN_NOT_OK(ctx_->budget()->Charge(bytes, "query embed matrix"));
    }
    selects.emplace(op, MakeSemanticSelectState(*model, queries,
                                                ctx_->budget_handle()));
    if (NodeProfile* record = Profile(op)) {
      record->embed_queries += queries.size();
      record->embed_queries_seconds +=
          static_cast<double>(ProfileNowNs() - start) * 1e-9;
    }
  }
  return selects;
}

Result<OperatorPtr> ParallelPlanDriver::BuildChain(
    const PipelineSegment& segment, const TablePtr& slice,
    const JoinStates& joins, const SelectStates& selects) {
  const PlanNode& source = *segment.source;
  OperatorPtr cur = std::make_unique<TableScanOperator>(slice, morsel_rows_);
  if (source.kind == PlanKind::kScan) {
    // A pushed-down predicate shares the Scan's profile record: one
    // Filter-over-Scan operator per morsel, one EXPLAIN ANALYZE node.
    if (source.predicate != nullptr) {
      cur = std::make_unique<FilterOperator>(std::move(cur),
                                             source.predicate);
    }
    cur = Instrument(&source, std::move(cur));
  }
  for (const PlanNode* op : segment.ops) {
    if (op->kind == PlanKind::kJoin) {
      cur = std::make_unique<HashJoinOperator>(
          std::move(cur), joins.at(op), op->left_key, op->right_key);
    } else if (op->kind == PlanKind::kSemanticSelect) {
      CRE_ASSIGN_OR_RETURN(cur, engine_->LowerSemanticSelectOver(
                                    *op, std::move(cur), selects.at(op)));
    } else {
      std::vector<OperatorPtr> children;
      children.push_back(std::move(cur));
      CRE_ASSIGN_OR_RETURN(
          cur, engine_->LowerNodeOver(ctx_, *op, std::move(children)));
    }
    cur = Instrument(op, std::move(cur));
  }
  return cur;
}

Result<TablePtr> ParallelPlanDriver::RunSegment(
    const PipelineSegment& segment) {
  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*segment.source));
  // Breaker outputs are freshly materialized tables the caller may own
  // outright. A bare Scan must still flow through the morsel map: it
  // copies (the snapshot table must not alias into query results) and it
  // records the Scan's profile.
  if (segment.ops.empty() && segment.source->kind != PlanKind::kScan) {
    return base;
  }

  CRE_ASSIGN_OR_RETURN(JoinStates joins, BuildJoinStates(segment));
  const std::int64_t start = ProfileNowNs();
  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(segment));
  LinkChain(segment, /*sink=*/nullptr);
  CRE_ASSIGN_OR_RETURN(
      TablePtr out,
      MorselParallelMap(
          base,
          [&](std::size_t, const TablePtr& slice) {
            return BuildChain(segment, slice, joins, selects);
          },
          MorselMapOptions(base->num_rows())));
  if (profile_ != nullptr) AddStep(SegmentName(segment), start);
  return out;
}

Result<TablePtr> ParallelPlanDriver::RunSort(const PlanNode& sort,
                                             std::size_t limit_hint) {
  CRE_ASSIGN_OR_RETURN(TablePtr input, Run(*sort.children[0]));
  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  const std::int64_t start = ProfileNowNs();
  SortPhaseTimings timings;
  CRE_ASSIGN_OR_RETURN(
      TablePtr out,
      SortTable(input, sort.sort_key, sort.sort_ascending, runner_,
                limit_hint, &timings, ctx_->budget(),
                engine_->knob_tuner()->footprints()));
  if (NodeProfile* record = Profile(&sort)) {
    // The sort parallelizes internally, so the driver sees its wall.
    record->wall_ns.fetch_add(ProfileNowNs() - start,
                              std::memory_order_relaxed);
    record->AddOutput(out->num_rows());
    record->sort_local_seconds = timings.local_sort_seconds;
    record->sort_merge_seconds = timings.merge_seconds;
    record->sort_runs = timings.runs;
    record->sort_merge_partitions = timings.merge_partitions;
    AddStep(SegmentName({&sort, {}}), start);
  }
  return out;
}

Result<TablePtr> ParallelPlanDriver::RunLimit(const PlanNode& limit) {
  const PlanNode& child = *limit.children[0];
  NodeProfile* record = Profile(&limit);
  if (child.kind == PlanKind::kSort && limit.limit == 0) {
    // LIMIT 0 needs only the schema; skip the sort (order of zero rows
    // is moot), not just its gather.
    CRE_ASSIGN_OR_RETURN(TablePtr input, Run(*child.children[0]));
    if (record != nullptr) record->AddOutput(0);
    return input->Slice(0, 0);
  }
  if (child.kind == PlanKind::kSort) {
    // Sort feeding a LIMIT = top-k: per-run partial sorts + a merge that
    // stops at the shared budget, instead of a full sort then a cut.
    CRE_ASSIGN_OR_RETURN(TablePtr sorted, RunSort(child, limit.limit));
    if (sorted->num_rows() > limit.limit) {
      sorted = sorted->Slice(0, limit.limit);
    }
    if (record != nullptr) record->AddOutput(sorted->num_rows());
    return sorted;
  }

  // The child's streamable segment runs through the morsel scheduler
  // under a shared row budget; breakers beneath it materialize as usual.
  PipelineSegment segment = DecomposePipeline(child);
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*segment.source));
  CRE_ASSIGN_OR_RETURN(JoinStates joins, BuildJoinStates(segment));
  const std::int64_t start = ProfileNowNs();
  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(segment));
  LinkChain(segment, /*sink=*/nullptr);
  MorselBudgetStats budget;
  CRE_ASSIGN_OR_RETURN(
      TablePtr out,
      MorselParallelMapLimited(
          base,
          [&](std::size_t, const TablePtr& slice) {
            return BuildChain(segment, slice, joins, selects);
          },
          limit.limit, MorselMapOptions(base->num_rows()), &budget));
  if (record != nullptr) {
    record->AddOutput(out->num_rows());
    record->limit_morsels_run = budget.morsels_run;
    record->limit_morsels_total = budget.morsels_total;
    AddStep(SegmentName(segment) + " => Limit", start);
  }
  return out;
}

Result<TablePtr> ParallelPlanDriver::RunAggregate(const PlanNode& agg) {
  PipelineSegment segment = DecomposePipeline(*agg.children[0]);
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*segment.source));
  CRE_ASSIGN_OR_RETURN(JoinStates joins, BuildJoinStates(segment));
  const std::int64_t step_start = ProfileNowNs();
  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(segment));
  NodeProfile* record = Profile(&agg);
  LinkChain(segment, record);
  // The aggregate's CPU covers everything it does on any thread: the
  // prototype below, every accumulate task (which pulls the chain) and
  // the merge.
  auto add_cpu = [record](std::int64_t start) {
    if (record != nullptr) record->AddCpu(ProfileNowNs() - start);
  };

  // Learn the input schema of the aggregate from a zero-row prototype of
  // the child chain (also surfaces lowering errors before fan-out).
  const std::int64_t prototype_start = ProfileNowNs();
  CRE_ASSIGN_OR_RETURN(OperatorPtr prototype,
                       BuildChain(segment, base->Slice(0, 0), joins, selects));
  CRE_RETURN_NOT_OK(prototype->Open());
  add_cpu(prototype_start);
  const Schema input_schema = prototype->output_schema();

  const std::size_t n = base->num_rows();
  // Chunks are runs of whole morsels cut by the driver's morsel-size
  // rule, so the group-merge insertion order (and the output row order)
  // is fixed by (rows, dop, EngineOptions::morsel_rows).
  const std::size_t morsel = MorselMapOptions(n).morsel_rows;
  const std::size_t num_morsels = (n + morsel - 1) / morsel;
  const bool parallel =
      num_morsels > 1 && runner_ != nullptr && runner_->num_threads() > 1;
  // High estimated group cardinality flips accumulation to the two-phase
  // radix scheme: the serial whole-map merge would otherwise dominate.
  // Unoptimized plans carry no estimate (est_rows < 0); then a threshold
  // of 0 explicitly forces the radix form for keyed aggregates. The
  // threshold is the one the optimizer costs with.
  const std::size_t radix_threshold =
      engine_->EffectiveOptimizerOptions().radix_agg_min_groups;
  const bool use_radix =
      parallel && !agg.group_keys.empty() &&
      (agg.est_rows >= 0
           ? agg.est_rows >= static_cast<double>(radix_threshold)
           : radix_threshold == 0);

  // Fixed chunk layout with per-chunk slots: workers race only on their
  // own slot, and the deterministic merge orders below (chunk index, or
  // partition-then-chunk index for radix) make the final group map — and
  // thus the output row order — deterministic run-to-run for a given
  // thread count. The radix form uses exactly one chunk per worker:
  // phase 2 merges every chunk's copy of every partition, so its work
  // grows with chunks x groups, and per-row hash work is uniform enough
  // that finer chunks buy no balance. The serial form is one chunk.
  std::size_t per_chunk = num_morsels;
  std::size_t num_chunks = 1;
  if (parallel) {
    const std::size_t chunks = std::min<std::size_t>(
        num_morsels,
        std::max<std::size_t>(1, use_radix ? runner_->num_threads()
                                           : runner_->num_threads() *
                                                 kMorselsPerWorker));
    per_chunk = (num_morsels + chunks - 1) / chunks;
    num_chunks = (num_morsels + per_chunk - 1) / per_chunk;
  }

  // Charge the accumulation's private state: every chunk keeps its own
  // hash (or radix-partitioned) aggregation state, sized by the group
  // cardinality estimate; plans without an estimate fall back to the
  // input row count (a keyed aggregate can never exceed it). The
  // calibrator replaces the static 64 bytes/group prior with the
  // observed bytes/group of past aggregations.
  ScopedCharge agg_charge;
  if (ctx_->budget() != nullptr) {
    const std::size_t est_groups =
        agg.est_rows >= 0 ? static_cast<std::size_t>(agg.est_rows) : n;
    const std::size_t per_chunk_bytes =
        engine_->knob_tuner()->footprints()->EstimateBytes(
            FootprintSite::kAggState, est_groups, est_groups * 64);
    const std::size_t state_bytes = per_chunk_bytes * num_chunks;
    CRE_RETURN_NOT_OK(
        ctx_->budget()->Charge(state_bytes, "aggregation state"));
    agg_charge = ScopedCharge(ctx_->budget_handle(), state_bytes);
  }
  // Measured before a merge or finalize consumes the state: the observed
  // bytes/group calibrates future aggregation-state charges.
  auto observe_state = [this](std::size_t groups, std::size_t bytes) {
    if (groups > 0) {
      engine_->knob_tuner()->footprints()->Observe(FootprintSite::kAggState,
                                                   groups, bytes);
    }
  };

  // Records the output and the phases once the aggregate is done.
  auto finish = [&](const TablePtr& out, std::size_t chunks,
                    std::size_t partitions, double accumulate_seconds,
                    double merge_seconds) {
    if (record == nullptr) return;
    record->AddOutput(out->num_rows());
    record->agg_mode = use_radix ? "radix" : "hash";
    record->agg_chunks = chunks;
    record->agg_partitions = partitions;
    record->agg_accumulate_seconds = accumulate_seconds;
    record->agg_merge_seconds = merge_seconds;
    AddStep(SegmentName(segment) + " => Aggregate", step_start);
  };

  if (!parallel) {
    const std::int64_t accumulate_start = ProfileNowNs();
    GroupedAggregationState total;
    CRE_RETURN_NOT_OK(total.Init(input_schema, agg.group_keys, agg.aggs));
    CRE_ASSIGN_OR_RETURN(OperatorPtr chain,
                         BuildChain(segment, base, joins, selects));
    CRE_RETURN_NOT_OK(chain->Open());
    for (;;) {
      CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
      CRE_ASSIGN_OR_RETURN(TablePtr batch, chain->Next());
      if (batch == nullptr) break;
      CRE_RETURN_NOT_OK(total.Consume(*batch));
    }
    observe_state(total.num_groups(), total.MemoryBytes());
    const std::int64_t merge_start = ProfileNowNs();
    CRE_ASSIGN_OR_RETURN(TablePtr out, total.Finalize());
    add_cpu(accumulate_start);
    finish(out, 1, 0,
           static_cast<double>(merge_start - accumulate_start) * 1e-9,
           static_cast<double>(ProfileNowNs() - merge_start) * 1e-9);
    return out;
  }

  // Drives chunk `c`'s morsel chains into `consume`, polling the
  // cancellation flag between morsels; within the chunk, rows stream in
  // order in morsel-sized slices. Each chunk adds its time to the
  // aggregate's CPU.
  auto run_chunk = [&](std::size_t c,
                       const std::function<Status(const Table&)>& consume)
      -> Status {
    const std::int64_t start = ProfileNowNs();
    const std::size_t begin_row = c * per_chunk * morsel;
    const std::size_t end_row = std::min(n, begin_row + per_chunk * morsel);
    for (std::size_t r = begin_row; r < end_row; r += morsel) {
      CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
      TablePtr slice = base->Slice(r, std::min(morsel, end_row - r));
      CRE_ASSIGN_OR_RETURN(OperatorPtr chain,
                           BuildChain(segment, slice, joins, selects));
      CRE_RETURN_NOT_OK(chain->Open());
      for (;;) {
        CRE_ASSIGN_OR_RETURN(TablePtr batch, chain->Next());
        if (batch == nullptr) break;
        CRE_RETURN_NOT_OK(consume(*batch));
      }
    }
    add_cpu(start);
    return Status::OK();
  };

  TablePtr out;
  double accumulate_seconds = 0;
  double merge_seconds = 0;
  std::size_t partitions_used = 0;
  if (!use_radix) {
    // Phase 1: one private hash state per chunk. Phase 2: serial
    // chunk-order merge (the tail the radix form removes).
    Timer accumulate_timer;
    std::vector<GroupedAggregationState> partials(num_chunks);
    std::vector<Status> statuses(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      runner_->Submit([&, c] {
        GroupedAggregationState& local = partials[c];
        statuses[c] = [&]() -> Status {
          CRE_RETURN_NOT_OK(
              local.Init(input_schema, agg.group_keys, agg.aggs));
          return run_chunk(
              c, [&](const Table& batch) { return local.Consume(batch); });
        }();
      });
    }
    runner_->Wait();
    for (const Status& status : statuses) CRE_RETURN_NOT_OK(status);
    accumulate_seconds = accumulate_timer.Seconds();

    std::size_t state_groups = 0;
    std::size_t state_bytes = 0;
    for (const auto& partial : partials) {
      state_groups += partial.num_groups();
      state_bytes += partial.MemoryBytes();
    }
    observe_state(state_groups, state_bytes);

    const std::int64_t merge_start = ProfileNowNs();
    GroupedAggregationState total;
    CRE_RETURN_NOT_OK(total.Init(input_schema, agg.group_keys, agg.aggs));
    for (auto& partial : partials) total.Merge(std::move(partial));
    CRE_ASSIGN_OR_RETURN(out, total.Finalize());
    merge_seconds = static_cast<double>(ProfileNowNs() - merge_start) * 1e-9;
    add_cpu(merge_start);
  } else {
    // Phase 1: every chunk partitions its rows by group-key hash radix
    // into a private set of partition states.
    const std::size_t num_partitions = std::min<std::size_t>(
        64, std::max<std::size_t>(2, runner_->num_threads() * 4));
    Timer accumulate_timer;
    std::vector<RadixAggregationState> partials(num_chunks);
    std::vector<Status> statuses(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      runner_->Submit([&, c] {
        RadixAggregationState& local = partials[c];
        statuses[c] = [&]() -> Status {
          CRE_RETURN_NOT_OK(local.Init(input_schema, agg.group_keys,
                                       agg.aggs, num_partitions));
          return run_chunk(
              c, [&](const Table& batch) { return local.Consume(batch); });
        }();
      });
    }
    runner_->Wait();
    for (const Status& status : statuses) CRE_RETURN_NOT_OK(status);
    accumulate_seconds = accumulate_timer.Seconds();
    partitions_used = partials.front().num_partitions();

    std::size_t state_groups = 0;
    std::size_t state_bytes = 0;
    for (auto& partial : partials) {
      for (std::size_t p = 0; p < partial.num_partitions(); ++p) {
        state_groups += partial.partition(p).num_groups();
        state_bytes += partial.partition(p).MemoryBytes();
      }
    }
    observe_state(state_groups, state_bytes);

    // Phase 2: all occurrences of a group share a partition index, so
    // partitions merge and finalize independently — one task each, no
    // serial tail. Chunk-order merges within a partition plus
    // partition-order concatenation keep the output deterministic.
    Timer merge_timer;
    std::vector<Result<TablePtr>> merged(
        partitions_used,
        Result<TablePtr>(Status::Internal("partition not merged")));
    runner_->ParallelFor(
        partitions_used,
        [&](std::size_t begin, std::size_t end) {
          const std::int64_t start = ProfileNowNs();
          for (std::size_t p = begin; p < end; ++p) {
            GroupedAggregationState& acc = partials[0].partition(p);
            for (std::size_t c = 1; c < num_chunks; ++c) {
              acc.Merge(std::move(partials[c].partition(p)));
            }
            merged[p] = acc.Finalize();
          }
          add_cpu(start);
        },
        /*min_chunk=*/1);
    const std::int64_t concat_start = ProfileNowNs();
    for (auto& part : merged) {
      if (!part.ok()) return part.status();
      TablePtr table = std::move(part).ValueUnsafe();
      if (out == nullptr) {
        out = Table::Make(table->schema());
      }
      CRE_RETURN_NOT_OK(out->AppendTable(*table));
    }
    add_cpu(concat_start);
    merge_seconds = merge_timer.Seconds();
  }

  finish(out, num_chunks, partitions_used, accumulate_seconds, merge_seconds);
  return out;
}

}  // namespace cre
