#ifndef CRE_ENGINE_ENGINE_H_
#define CRE_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/mutex.h"
#include "core/resource_governor.h"
#include "core/thread_pool.h"
#include "core/timer.h"
#include "embed/model_registry.h"
#include "engine/query_context.h"
#include "engine/query_profile.h"
#include "engine/scheduler.h"
#include "exec/operator.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "optimizer/knob_tuner.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "plan/plan_node.h"
#include "semantic/semantic_select.h"
#include "storage/catalog.h"
#include "vision/detection_scan.h"

namespace cre {

/// Telemetry knobs: the metrics registry, per-query profile sampling,
/// and the slow-query log.
struct ObsOptions {
  /// Master switch for the metrics registry. Disabled, every instrument
  /// update is a relaxed load + branch and snapshots are empty.
  bool metrics_enabled = true;
  /// Profile every Nth admitted query (1 = all, 0 = profiling off; EXPLAIN
  /// ANALYZE always profiles). An unprofiled query wraps no operator in a
  /// timer.
  std::uint64_t trace_sample_every = 1;
  /// Finished profiles retained in the in-memory ring (Engine::traces()).
  std::size_t trace_ring_capacity = 64;
  /// Queries slower than this emit a structured `event=slow_query` log
  /// line (with the compact profile when sampled). 0 disables.
  double slow_query_seconds = 1.0;
};

/// Top-level engine options.
struct EngineOptions {
  OptimizerOptions optimizer;
  /// Worker threads for parallel operators (0 = hardware concurrency,
  /// 1 = single-threaded).
  std::size_t num_threads = 0;
  /// Rows per morsel for the parallel pipeline driver: the scan batch
  /// size and the ceiling of the driver's morsel-size rule, which cuts
  /// both morsel maps and aggregate chunks (see ParallelPlanDriver).
  std::size_t morsel_rows = 8 * 1024;
  /// Persistent vector-index subsystem: cache/eviction budget, build
  /// parameters, and async (background) build policy for managed indexes
  /// shared across queries.
  IndexManagerOptions index;
  /// Engine telemetry: metrics registry, tracing, slow-query log.
  ObsOptions obs;
  /// Default per-query deadline, seconds from admission, applied when
  /// QueryOptions::timeout_seconds is 0. 0 = queries run unbounded.
  double default_query_timeout_seconds = 0;
  /// Tracked-memory ceilings (engine-wide and default per-query) enforced
  /// by the resource governor at the big allocation points: hash-join
  /// builds, sort runs, aggregation state, index-build embed matrices,
  /// query embed batches. Breach unwinds with kResourceExhausted through
  /// the normal Status path — never std::bad_alloc.
  ResourceGovernorOptions governor;
  /// Bounded admission: cap on concurrently active user queries, with
  /// per-priority-class load shedding (see AdmissionOptions).
  AdmissionOptions admission;
  /// Parameterized plan cache: repeat plan shapes skip the optimizer and
  /// rebind literals into the cached optimized plan (stamp- and
  /// residency-validated at every lookup).
  PlanCacheOptions plan_cache;
  /// Feedback calibration: refit the index reuse horizon and the
  /// governor's bytes/row charge estimates from observed execution.
  KnobTunerOptions tuning;
};

/// The context-rich analytical engine: a catalog of relational tables, a
/// registry of representation models, detector bindings for image stores,
/// a holistic optimizer over all of them, and a morsel-driven parallel
/// executor behind a concurrent serving layer. Users state what to
/// compute (a logical plan, usually via QueryBuilder) and the engine
/// decides how — including how to spread it across cores and how to
/// multiplex it against concurrently admitted queries.
///
/// Serving architecture: Execute (and friends) are re-entrant and
/// thread-safe. Each call admits a QueryContext — a pinned catalog
/// snapshot plus a QueryScheduler group — then optimizes, lowers, and
/// drives the plan entirely against that context. Concurrent queries
/// interleave their morsel tasks fairly on the shared pool (round-robin
/// within a priority class, strict across classes) and produce
/// byte-identical results to running them serially; background index
/// builds run at the lowest priority and never block a query.
class Engine {
 public:
  Engine();
  explicit Engine(EngineOptions options);
  ~Engine();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  ModelRegistry& models() { return models_; }
  const ModelRegistry& models() const { return models_; }
  DetectorRegistry& detectors() { return detectors_; }
  const DetectorRegistry& detectors() const { return detectors_; }

  ThreadPool* pool() { return pool_.get(); }
  /// The fair multi-query task scheduler all admitted queries run on.
  QueryScheduler* scheduler() { return scheduler_.get(); }
  /// The engine's persistent vector-index subsystem (never null; its use
  /// is gated by options().index.enabled).
  IndexManager* index_manager() { return index_manager_.get(); }
  const IndexManager* index_manager() const { return index_manager_.get(); }

  /// Engine-wide memory accountant (never null; limits of 0 = unlimited).
  ResourceGovernor* governor() { return governor_.get(); }
  const ResourceGovernor* governor() const { return governor_.get(); }
  /// Deadline enforcement thread (never null; idle until a query with a
  /// timeout is admitted).
  DeadlineReaper* reaper() { return reaper_.get(); }
  const DeadlineReaper* reaper() const { return reaper_.get(); }

  /// The engine-wide metrics registry (never null). Snapshot() exports
  /// the unified namespace — engine-owned latency histograms and query
  /// counters plus collector-pulled scheduler / index-manager /
  /// governor / plan-cache / embed-cache state — as JSON or Prometheus
  /// text.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  /// Profiles of recently finished sampled queries, newest first (at
  /// most ObsOptions::trace_ring_capacity).
  std::vector<std::shared_ptr<const QueryProfile>> traces() const;

  /// The parameterized plan cache (never null; gated by
  /// options().plan_cache.enabled).
  PlanCache* plan_cache() { return plan_cache_.get(); }
  const PlanCache* plan_cache() const { return plan_cache_.get(); }
  /// The feedback knob tuner (never null; returns configured baselines
  /// while options().tuning.enabled is false).
  KnobTuner* knob_tuner() { return knob_tuner_.get(); }
  const KnobTuner* knob_tuner() const { return knob_tuner_.get(); }

  const EngineOptions& options() const { return options_; }
  void set_optimizer_options(const OptimizerOptions& o) {
    options_.optimizer = o;
  }

  /// Optimizes and executes a logical plan. With more than one worker
  /// thread, streamable pipeline segments run per-morsel on the pool.
  /// Safe to call from many threads at once; each call is admitted as an
  /// independent query.
  Result<TablePtr> Execute(const PlanPtr& plan);
  /// As above with per-call admission knobs: priority class and an
  /// optional cooperative cancellation handle.
  Result<TablePtr> Execute(const PlanPtr& plan, const QueryOptions& query);

  /// Executes the plan exactly as written (the "analyst's hand-rolled
  /// pipeline") — the baseline side of E3/E8. Uses the same parallel
  /// driver as Execute, just without the optimizer pass.
  Result<TablePtr> ExecuteUnoptimized(const PlanPtr& plan);
  Result<TablePtr> ExecuteUnoptimized(const PlanPtr& plan,
                                      const QueryOptions& query);

  /// Optimized plan rendering with cardinality and cost annotations,
  /// pipeline routing, and the serving-layer state (scheduler load,
  /// background builds) the query would be admitted into.
  Result<std::string> Explain(const PlanPtr& plan);

  /// EXPLAIN ANALYZE: optimizes and *executes* the plan (always
  /// profiled), then renders its QueryProfile: the plan tree with each
  /// node's rows, batches, dop and time — `self=`/`incl=` CPU summed over
  /// workers, or `wall=` for an internally parallel breaker — with
  /// breaker phases (wall) as sub-lines, the driver steps' wall, and the
  /// scheduling counters. Then deadline slack, governor bytes, the
  /// managed-index residency transitions observed across the execution
  /// and the pipeline routing.
  Result<std::string> ExplainAnalyze(const PlanPtr& plan);
  Result<std::string> ExplainAnalyze(const PlanPtr& plan,
                                     const QueryOptions& query);

  /// Constructs the physical operator the parallel driver runs for a
  /// DetectScan, Filter, Project, SemanticJoin or SemanticGroupBy `node`
  /// over already-lowered children (for leaves pass an empty vector);
  /// the driver substitutes materialized tables for breaker inputs.
  /// Operators may capture ctx's task runner; the context must outlive
  /// the returned operator. Every other kind is executed by the driver
  /// itself and returns kInternal here.
  Result<OperatorPtr> LowerNodeOver(QueryContext* ctx, const PlanNode& node,
                                    std::vector<OperatorPtr> children);

  /// Lowers a scanning kSemanticSelect over `child` with its per-query
  /// select state (embedded query constant(s) plus the match memo). The
  /// parallel driver builds one state per select node and hands it to
  /// every per-morsel instance, so the query embeds once and each
  /// distinct column value embeds at most once per worker.
  Result<OperatorPtr> LowerSemanticSelectOver(const PlanNode& node,
                                              OperatorPtr child,
                                              SemanticSelectStatePtr state);

  /// Resolves an index-backed kSemanticSelect against ctx's snapshot and
  /// the (possibly asynchronous) IndexManager. Returns the index-probing
  /// operator when a ready index pairs exactly with the snapshot's
  /// version of the table; returns null (OK status) when the caller must
  /// use the scanning brute-force fallback instead — because a
  /// background build is still in flight, or the resident index was
  /// built against a different table version than this query's snapshot.
  Result<OperatorPtr> TryLowerIndexSelect(QueryContext* ctx,
                                          const PlanNode& node);

  /// An optimizer bound to this engine's catalog/models/detectors, with
  /// subplan execution enabled for data-induced predicates and the cost
  /// model aware of the engine's degree of parallelism. Reads the live
  /// catalog; per-query optimizers (pinned snapshot + in-context subplan
  /// execution) are built internally by Execute.
  Optimizer MakeOptimizer() const;

  /// Engine-level optimizer options with the pool's dop and the tuned
  /// index reuse horizon filled in. Every optimizer, EXPLAIN and the
  /// parallel driver read the same values, so EXPLAIN and Execute agree
  /// on plans and aggregate forms.
  OptimizerOptions EffectiveOptimizerOptions() const;

 private:
  /// Admits one query: pins the catalog snapshot, joins the scheduler at
  /// `query.priority` under the bounded-admission policy (may shed with
  /// kResourceExhausted), arms the deadline token, and attaches the
  /// query's memory budget.
  Result<QueryContext> MakeContext(const QueryOptions& query);
  /// Registers the pull-style metric collectors (scheduler, index
  /// manager, governor, plan cache, knob tuner, embed caches) on
  /// metrics_.
  void RegisterCollectors();
  /// Allocates the query id and, when this query is sampled (or `force`),
  /// its profile (null otherwise).
  std::shared_ptr<QueryProfile> AdmitForObs(QueryContext* ctx,
                                            const char* kind,
                                            bool force_profile = false);
  /// Telemetry tail of every query: latency/queue-wait histograms, status
  /// counters, profile ring push, slow-query log.
  void FinishQuery(QueryContext* ctx, const char* kind, double seconds,
                   const Status& status, std::size_t rows,
                   std::shared_ptr<QueryProfile> profile);
  /// Shared optimize → execute path with profiling + telemetry around it.
  Result<TablePtr> RunTracked(QueryContext* ctx, const PlanPtr& plan,
                              bool optimize, const char* kind);
  /// The execute tail every query entry point (RunTracked, EXPLAIN
  /// ANALYZE) shares: runs `physical` (or reports its planning error)
  /// with `profile` bound to it, surfaces a deadline-tripped cancel as
  /// kDeadlineExceeded, and records the query via FinishQuery with the
  /// wall `timer` has measured.
  Result<TablePtr> ExecuteTracked(QueryContext* ctx,
                                  const Result<PlanPtr>& physical,
                                  const char* kind, const Timer& timer,
                                  std::shared_ptr<QueryProfile> profile);
  /// The planning front door shared by Execute and EXPLAIN ANALYZE:
  /// plan-cache lookup (when enabled) with single-flight population,
  /// falling back to a full optimizer pass. A non-null `profile` records
  /// the optimize time and the plan origin ("cached(stamp=N)" or
  /// "optimized").
  Result<PlanPtr> OptimizePlan(QueryContext* ctx, const PlanPtr& plan,
                               QueryProfile* profile);
  /// Serialized effective optimizer knobs — part of every plan-cache key,
  /// so a knob refit (or reconfiguration) re-plans instead of serving a
  /// plan chosen under different costs.
  std::string KnobSignature() const;
  /// Plan-cache freshness probes: table stamps against `ctx`'s pinned
  /// snapshot (or the live catalog when ctx is null, for EXPLAIN), and
  /// managed-index absent-class against the IndexManager.
  PlanCache::VersionProbe PlanCacheVersionProbe(QueryContext* ctx) const;
  PlanCache::AbsentProbe PlanCacheAbsentProbe() const;
  /// Per-query optimizer over ctx's pinned snapshot.
  Optimizer MakeOptimizerFor(QueryContext* ctx) const;
  /// Cost constants mirroring the managed index builds' configuration
  /// (IndexManagerOptions), the base every engine optimizer costs with:
  /// the IVF-PQ subspace count, and the background build discount (0.25
  /// with async builds, else 1).
  CostParams IndexCostParams() const;
  /// The IndexManager residency signal the optimizers and the plan
  /// cache's absent-class probe read; null with the manager off.
  IndexResidencyProbe ResidencyProbe() const;
  /// Executes a (possibly optimized) plan through the morsel-driven
  /// parallel driver; with one worker thread it runs inline on the
  /// calling thread. `profile`, when given, must be bound to `plan`.
  Result<TablePtr> RunPhysical(QueryContext* ctx, const PlanPtr& plan,
                               QueryProfile* profile = nullptr);

  EngineOptions options_;
  Catalog catalog_;
  ModelRegistry models_;
  DetectorRegistry detectors_;
  /// Destruction order matters: ~Engine drains pool_ first, so scheduler
  /// pumps and background index builds finish while everything they
  /// touch (scheduler_, index_manager_, catalog_, models_) is alive.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<QueryScheduler> scheduler_;
  /// Long-lived background-priority group for IndexManager builds.
  std::shared_ptr<QueryScheduler::Group> background_group_;
  std::unique_ptr<IndexManager> index_manager_;
  std::unique_ptr<MetricsRegistry> metrics_;
  mutable Mutex profiles_mu_;
  /// Newest at the back.
  std::deque<std::shared_ptr<const QueryProfile>> profiles_
      CRE_GUARDED_BY(profiles_mu_);
  /// Engine-wide memory accounting; IndexManager and per-query budgets
  /// charge against it (safe at destruction: ~Engine drains pool_ first,
  /// so no build task outlives the governor).
  std::unique_ptr<ResourceGovernor> governor_;
  std::unique_ptr<DeadlineReaper> reaper_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<KnobTuner> knob_tuner_;
  std::atomic<std::uint64_t> next_query_id_{0};
};

}  // namespace cre

#endif  // CRE_ENGINE_ENGINE_H_
