#include "engine/engine.h"

#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "core/logging.h"
#include "core/timer.h"
#include "embed/embedding_cache.h"
#include "engine/parallel_driver.h"
#include "exec/filter.h"
#include "exec/pipeline.h"
#include "exec/project.h"
#include "semantic/semantic_group_by.h"
#include "semantic/semantic_join.h"
#include "semantic/semantic_select.h"

namespace cre {

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(EngineOptions options) : options_(options) {
  std::size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  scheduler_ =
      std::make_unique<QueryScheduler>(pool_.get(), options_.admission);
  background_group_ = scheduler_->Admit(QueryPriority::kBackground);
  governor_ = std::make_unique<ResourceGovernor>(options_.governor);
  reaper_ = std::make_unique<DeadlineReaper>();
  // Index builds charge their transient embed matrices against the
  // engine-wide accountant (resident index bytes are already bounded by
  // the manager's own LRU budget).
  options_.index.governor = governor_.get();
  // Cold managed HNSW builds requested synchronously (GetOrBuild from a
  // driver thread) fan their canonical batched construction out through
  // the background group: group-scoped Wait keeps concurrent queries'
  // barriers independent (a raw pool Wait would couple every admitted
  // query), and background priority keeps build tasks behind query
  // morsels. Asynchronous background builds override this to a serial
  // build inside their single task (see IndexManager::BuildIndex).
  if (options_.index.hnsw.build_pool == nullptr && threads > 1) {
    options_.index.hnsw.build_pool = background_group_.get();
  }
  index_manager_ =
      std::make_unique<IndexManager>(&catalog_, &models_, options_.index);
  index_manager_->EnableAsyncBuilds(background_group_.get());
  metrics_ = std::make_unique<MetricsRegistry>(options_.obs.metrics_enabled);
  plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache);
  KnobBaselines baselines;
  baselines.index_reuse_horizon = options_.optimizer.index_reuse_horizon;
  knob_tuner_ = std::make_unique<KnobTuner>(options_.tuning, baselines);
  RegisterCollectors();
}

void Engine::RegisterCollectors() {
  // Pull-style migration of the scattered subsystem ledgers into the one
  // cre_* namespace: the subsystems keep their internal structs; the
  // registry reads them at snapshot time.
  metrics_->AddCollector([this](MetricsRegistry::Emitter* e) {
    // Serving layer. The engine's permanent background group is not a
    // query.
    e->Gauge("cre_scheduler_active_queries", {},
             static_cast<double>(scheduler_->active_queries() - 1));
    e->Gauge("cre_scheduler_pending_tasks", {},
             static_cast<double>(scheduler_->pending_tasks()));

    // Index manager.
    const IndexManager::Stats s = index_manager_->stats();
    e->Counter("cre_index_lookups_total", {{"outcome", "hit"}}, s.hits);
    e->Counter("cre_index_lookups_total", {{"outcome", "miss"}}, s.misses);
    e->Counter("cre_index_builds_total", {}, s.builds);
    e->Counter("cre_index_build_failures_total", {}, s.build_failures);
    e->Counter("cre_index_refreshes_total", {}, s.refreshes);
    e->Counter("cre_index_evictions_total", {}, s.evictions);
    e->Counter("cre_index_invalidations_total", {}, s.invalidations);
    e->Counter("cre_index_background_builds_total", {}, s.background_builds);
    e->Counter("cre_index_async_fallbacks_total", {}, s.async_fallbacks);
    e->Counter("cre_index_disk_loads_total", {}, s.disk_loads);
    e->Counter("cre_index_disk_writes_total", {}, s.disk_writes);
    e->Counter("cre_index_disk_rejects_total", {}, s.disk_rejects);
    e->Counter("cre_index_disk_gc_total", {}, s.disk_gc);
    e->Counter("cre_index_disk_retry_total", {}, s.disk_retries);
    e->Gauge("cre_index_resident_count", {},
             static_cast<double>(s.resident_count));
    e->Gauge("cre_index_resident_bytes", {},
             static_cast<double>(s.resident_bytes));

    // Admission control.
    const AdmissionStats adm = scheduler_->admission_stats();
    for (int c = 0; c < 3; ++c) {
      const char* cls = QueryPriorityName(static_cast<QueryPriority>(c));
      e->Counter("cre_admission_admitted_total", {{"class", cls}},
                 adm.admitted[static_cast<std::size_t>(c)]);
      e->Counter("cre_admission_shed_total", {{"class", cls}},
                 adm.shed[static_cast<std::size_t>(c)]);
    }
    e->Gauge("cre_admission_active_queries", {},
             static_cast<double>(adm.active_admitted));

    // Deadlines.
    e->Counter("cre_deadline_expired_total", {}, reaper_->expired_total());
    e->Gauge("cre_deadline_watched", {},
             static_cast<double>(reaper_->watched()));

    // Resource governor.
    e->Gauge("cre_governor_charged_bytes", {},
             static_cast<double>(governor_->charged_bytes()));
    e->Gauge("cre_governor_peak_bytes", {},
             static_cast<double>(governor_->peak_bytes()));
    e->Counter("cre_governor_breaches_total", {}, governor_->breaches());
    // Calibrated charge estimates the governor uses at the big
    // allocation sites (0 until the site has been observed).
    const FootprintCalibrator* fp = knob_tuner_->footprints();
    for (int site = 0; site < kNumFootprintSites; ++site) {
      e->Gauge("cre_governor_bytes_per_row",
               {{"site", FootprintSiteName(static_cast<FootprintSite>(site))}},
               fp->bytes_per_row(static_cast<FootprintSite>(site)));
    }

    // Plan cache.
    const PlanCache::Stats pc = plan_cache_->stats();
    e->Counter("cre_plan_cache_hits_total", {}, pc.hits);
    e->Counter("cre_plan_cache_misses_total", {}, pc.misses);
    e->Counter("cre_plan_cache_invalidations_total", {}, pc.invalidations);
    e->Counter("cre_plan_cache_evictions_total", {}, pc.evictions);
    e->Counter("cre_plan_cache_uncacheable_total", {}, pc.uncacheable);
    e->Counter("cre_plan_cache_single_flight_waits_total", {},
               pc.single_flight_waits);
    e->Gauge("cre_plan_cache_entries", {}, static_cast<double>(pc.entries));

    // Knob tuner: the currently published index reuse horizon.
    const KnobTuner::Snapshot kt = knob_tuner_->snapshot();
    e->Gauge("cre_knob_index_reuse_horizon", {}, kt.index_reuse_horizon);
    e->Counter("cre_knob_refits_total", {}, kt.refits);

    // Embedding caches (every registered model wrapped in the LRU
    // decorator).
    for (const std::string& name : models_.ListModels()) {
      auto model = models_.Get(name);
      if (!model.ok()) continue;
      const auto* cache =
          dynamic_cast<const CachingEmbeddingModel*>(model.ValueUnsafe().get());
      if (cache == nullptr) continue;
      e->Counter("cre_embed_cache_hits_total", {{"model", name}},
                 cache->hits());
      e->Counter("cre_embed_cache_misses_total", {{"model", name}},
                 cache->misses());
      e->Gauge("cre_embed_cache_entries", {{"model", name}},
               static_cast<double>(cache->size()));
    }
  });
}

Engine::~Engine() {
  // Drain the pool before any member it feeds is destroyed: queued
  // scheduler pumps and background index builds touch scheduler_,
  // index_manager_, catalog_, and models_.
  pool_.reset();
}

Result<QueryContext> Engine::MakeContext(const QueryOptions& query) {
  // Bounded admission first: a shed query never pins a snapshot, arms a
  // deadline, or reserves budget. With max_active_queries == 0 TryAdmit
  // never sheds (pre-admission behavior).
  auto admitted = scheduler_->TryAdmit(query.priority);
  if (!admitted.ok()) {
    if (metrics_->enabled()) {
      metrics_->counter("cre_queries_total", {{"status", "shed"}})
          ->Increment();
    }
    return admitted.status();
  }

  // Deadline: the caller's timeout, else the engine default. The token is
  // the caller's handle when one was passed (so external Cancel() and the
  // deadline share one flag); otherwise the engine creates one so the
  // reaper has something to trip.
  const double timeout = query.timeout_seconds > 0
                             ? query.timeout_seconds
                             : options_.default_query_timeout_seconds;
  CancelFlagPtr cancel = query.cancel;
  if (timeout > 0) {
    if (cancel == nullptr) cancel = std::make_shared<CancelFlag>();
    cancel->SetTimeout(timeout);
    reaper_->Watch(cancel);
  }

  QueryContext ctx(catalog_.Snapshot(), std::move(admitted).ValueUnsafe(),
                   std::move(cancel));

  // Memory budget: attached only when some ceiling exists, so the
  // unlimited default keeps every charge site a null check.
  const std::size_t per_query = query.memory_budget_bytes != 0
                                    ? query.memory_budget_bytes
                                    : options_.governor.per_query_memory_bytes;
  if (per_query != 0 || options_.governor.engine_memory_bytes != 0) {
    ctx.set_budget(std::make_shared<QueryBudget>(governor_.get(), per_query));
  }
  return ctx;
}

OptimizerOptions Engine::EffectiveOptimizerOptions() const {
  OptimizerOptions options = options_.optimizer;
  if (options.degree_of_parallelism == 0) {
    options.degree_of_parallelism = pool_->num_threads();
  }
  if (knob_tuner_ != nullptr) {
    // The refit reuse horizon overrides the configured baseline (it
    // equals the baseline until the tuner has published a refit).
    options.index_reuse_horizon = knob_tuner_->index_reuse_horizon();
  }
  return options;
}

CostParams Engine::IndexCostParams() const {
  // IVF-PQ feasibility (CostModel::StrategyBuildable) must test the
  // subspace count the managed build will actually use.
  CostParams params;
  params.ivfpq_m = static_cast<double>(options_.index.ivfpq.pq_m);
  // Backgrounded builds cost the query stream pool cycles, not latency;
  // charge a quarter of the synchronous build so the optimizer starts
  // investing in indexes earlier.
  params.background_build_discount = options_.index.async_builds ? 0.25 : 1.0;
  return params;
}

IndexResidencyProbe Engine::ResidencyProbe() const {
  if (!options_.index.enabled) return nullptr;
  IndexManager* manager = index_manager_.get();
  return [manager](const std::string& table, const std::string& column,
                   const std::string& model, SemanticJoinStrategy kind) {
    return manager->Residency({table, column, model, kind});
  };
}

Optimizer Engine::MakeOptimizer() const {
  auto* self = const_cast<Engine*>(this);
  SubplanExecutor executor = [self](const PlanPtr& subplan) {
    return self->ExecuteUnoptimized(subplan);
  };
  return Optimizer(&catalog_, &models_, &detectors_,
                   EffectiveOptimizerOptions(), std::move(executor),
                   ResidencyProbe(), IndexCostParams());
}

Optimizer Engine::MakeOptimizerFor(QueryContext* ctx) const {
  auto* self = const_cast<Engine*>(this);
  // DIP subplans execute inside the requesting query: same snapshot,
  // same scheduler group, same cancellation flag.
  SubplanExecutor executor = [self, ctx](const PlanPtr& subplan) {
    return self->RunPhysical(ctx, subplan);
  };
  // Cardinality estimation and schema-dependent rules resolve names
  // against the query's pinned snapshot, so planning and execution see
  // the same tables even under concurrent catalog writes.
  return Optimizer(&ctx->snapshot(), &models_, &detectors_,
                   EffectiveOptimizerOptions(), std::move(executor),
                   ResidencyProbe(), IndexCostParams());
}

std::string Engine::KnobSignature() const {
  const OptimizerOptions o = EffectiveOptimizerOptions();
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%d%d%d%d%d%d%d|%zu|%zu|%zu|%.9g|%.9g",
                o.enable_filter_pushdown, o.enable_join_reorder,
                o.enable_data_induced_predicates, o.enable_index_selection,
                o.enable_column_pruning, o.allow_approximate_similarity,
                options_.index.enabled, o.dip_max_inducing_rows,
                o.degree_of_parallelism, o.radix_agg_min_groups,
                o.index_reuse_horizon,
                IndexCostParams().background_build_discount);
  return buf;
}

PlanCache::VersionProbe Engine::PlanCacheVersionProbe(
    QueryContext* ctx) const {
  if (ctx != nullptr) {
    const Catalog* snapshot = &ctx->snapshot();
    return [snapshot](const std::string& table) {
      return snapshot->Version(table);
    };
  }
  const Catalog* live = &catalog_;
  return [live](const std::string& table) { return live->Version(table); };
}

PlanCache::AbsentProbe Engine::PlanCacheAbsentProbe() const {
  IndexResidencyProbe residency = ResidencyProbe();
  if (residency == nullptr) {
    // Manager off: every candidate is permanently "absent"; the class
    // can never flip, so residency never invalidates.
    return [](const PlanCache::IndexCandidate&) { return true; };
  }
  return [residency](const PlanCache::IndexCandidate& c) {
    return residency(c.table, c.column, c.model, c.strategy) ==
           IndexResidency::kAbsent;
  };
}

Result<PlanPtr> Engine::OptimizePlan(QueryContext* ctx, const PlanPtr& plan,
                                     QueryProfile* profile) {
  const Timer optimize_timer;
  auto annotate = [&](const std::string& origin) {
    if (profile == nullptr) return;
    profile->plan_origin = origin;
    profile->optimize_seconds = optimize_timer.Seconds();
  };
  if (!options_.plan_cache.enabled) {
    Optimizer optimizer = MakeOptimizerFor(ctx);
    CRE_ASSIGN_OR_RETURN(PlanPtr physical, optimizer.Optimize(plan));
    annotate("optimized");
    return physical;
  }
  const PlanCache::Shape shape =
      PlanCache::Normalize(*plan, KnobSignature());
  const PlanCache::VersionProbe version = PlanCacheVersionProbe(ctx);
  const PlanCache::AbsentProbe absent = PlanCacheAbsentProbe();
  PlanCache::Lookup lookup =
      plan_cache_->AcquireOrPlan(shape, version, absent);
  if (lookup.plan != nullptr) {
    annotate("cached(stamp=" + std::to_string(lookup.stamp) + ")");
    return std::move(lookup.plan);
  }
  Timer timer;
  Optimizer optimizer = MakeOptimizerFor(ctx);
  Result<PlanPtr> optimized = optimizer.Optimize(plan);
  if (!optimized.ok()) {
    if (lookup.ticket) plan_cache_->Abort(shape);
    return optimized.status();
  }
  // Ticketed misses install for the waiters; ambiguous-rebind misses
  // refresh the entry with their own binding.
  plan_cache_->Install(shape, optimized.ValueUnsafe(), timer.Seconds(),
                       version, absent);
  annotate("optimized");
  return optimized;
}

Result<OperatorPtr> Engine::TryLowerIndexSelect(QueryContext* ctx,
                                                const PlanNode& node) {
  if (!node.IndexBackedSelect() || !options_.index.enabled) {
    return OperatorPtr();
  }
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_.Get(node.model_name));
  const std::string& table_name = node.children[0]->table_name;
  // The operator must pair the index with the exact table snapshot this
  // query pinned at plan time; version stamps (not row counts) rule out
  // a same-cardinality replacement racing the query.
  CRE_ASSIGN_OR_RETURN(Catalog::VersionedTable vt,
                       ctx->snapshot().GetVersioned(table_name));
  const IndexKey key{table_name, node.column, node.model_name, node.strategy};
  auto lookup = index_manager_->GetOrBuildAsync(key);
  if (!lookup.ok()) {
    // Correctness never depends on the cache: a failed lookup/build
    // (e.g. the live table was dropped after this query's snapshot)
    // just means the scanning fallback serves the pinned rows.
    return OperatorPtr();
  }
  IndexManager::AsyncIndex ready = std::move(lookup).ValueUnsafe();
  if (ready.index != nullptr && ready.built_version == vt.version) {
    return OperatorPtr(std::make_unique<SemanticIndexSelectOperator>(
        std::move(vt.table), node.column, node.query, std::move(model),
        node.threshold, std::move(ready.index)));
  }
  // Build in flight (the background task will serve future queries), or
  // the ready index was built against a different version than this
  // query's snapshot: serve this query via the scanning fallback.
  return OperatorPtr();
}

Result<OperatorPtr> Engine::LowerNodeOver(QueryContext* ctx,
                                          const PlanNode& node,
                                          std::vector<OperatorPtr> children) {
  switch (node.kind) {
    case PlanKind::kDetectScan: {
      CRE_ASSIGN_OR_RETURN(DetectorBinding binding,
                           detectors_.Get(node.table_name));
      return OperatorPtr(std::make_unique<DetectionScanOperator>(
          binding.store, binding.detector, node.predicate,
          /*images_per_batch=*/256, ctx->runner(), ctx->cancel_flag()));
    }
    case PlanKind::kFilter:
      return OperatorPtr(std::make_unique<FilterOperator>(
          std::move(children[0]), node.predicate));
    case PlanKind::kProject:
      return OperatorPtr(std::make_unique<ProjectOperator>(
          std::move(children[0]), node.projections));
    case PlanKind::kSemanticJoin: {
      CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model,
                           models_.Get(node.model_name));
      SemanticJoinOptions options;
      options.threshold = node.threshold;
      options.strategy = node.strategy;
      options.top_k = node.top_k;
      options.pool = ctx->runner();
      // Cancellation reaches the operator's probe loops and local index
      // builds, not just the driver's morsel/segment polls.
      options.cancel = ctx->cancel_flag();
      if (options_.index.enabled &&
          node.strategy != SemanticJoinStrategy::kBruteForce) {
        if (const PlanNode* scan = node.IndexableBuildScan()) {
          auto lookup = index_manager_->GetOrBuildAsync(
              {scan->table_name, node.right_key, node.model_name,
               node.strategy});
          // Adopt only when the index stamp matches this query's pinned
          // snapshot stamp for the build-side table — the build side's
          // rows are materialized from the same snapshot, so index and
          // rows can never mix versions (a same-cardinality racing
          // replacement would slip past the operator's own row-count
          // check). Any failure or mismatch falls back to a
          // per-execution local build; an in-flight background build
          // falls back to brute force so the query never blocks and
          // never duplicates the build.
          if (lookup.ok()) {
            IndexManager::AsyncIndex ready = std::move(lookup).ValueUnsafe();
            if (ready.index != nullptr &&
                ctx->snapshot().Version(scan->table_name) ==
                    ready.built_version) {
              options.shared_index = std::move(ready.index);
            } else if (ready.build_in_flight) {
              options.strategy = SemanticJoinStrategy::kBruteForce;
            }
          } else if (lookup.status().IsResourceExhausted()) {
            // Governor breach inside the managed build: a per-execution
            // local index build would chase the same memory that just ran
            // out, so degrade this query to brute force instead — slower,
            // same answer.
            options.strategy = SemanticJoinStrategy::kBruteForce;
          }
        }
      }
      return OperatorPtr(std::make_unique<SemanticJoinOperator>(
          std::move(children[0]), std::move(children[1]), node.left_key,
          node.right_key, std::move(model), std::move(options)));
    }
    case PlanKind::kSemanticGroupBy: {
      CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model,
                           models_.Get(node.model_name));
      return OperatorPtr(std::make_unique<SemanticGroupByOperator>(
          std::move(children[0]), node.column, std::move(model),
          node.threshold));
    }
    default:
      // Scan, Join, SemanticSelect, Aggregate, Sort and Limit are
      // executed by the parallel driver itself.
      break;
  }
  return Status::Internal("LowerNodeOver cannot lower plan kind '" +
                          std::string(PlanKindName(node.kind)) + "'");
}

Result<OperatorPtr> Engine::LowerSemanticSelectOver(
    const PlanNode& node, OperatorPtr child, SemanticSelectStatePtr state) {
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_.Get(node.model_name));
  if (!node.queries.empty()) {
    return OperatorPtr(std::make_unique<SemanticMultiSelectOperator>(
        std::move(child), node.column, node.queries, std::move(model),
        node.threshold, std::move(state)));
  }
  return OperatorPtr(std::make_unique<SemanticSelectOperator>(
      std::move(child), node.column, node.query, std::move(model),
      node.threshold, std::move(state)));
}

Result<TablePtr> Engine::RunPhysical(QueryContext* ctx, const PlanPtr& plan,
                                     QueryProfile* profile) {
  // One executor at every dop: with a single worker the driver's morsel
  // maps, sort and aggregate run inline on this thread.
  ParallelPlanDriver driver(this, ctx, profile);
  return driver.Run(*plan);
}

std::shared_ptr<QueryProfile> Engine::AdmitForObs(QueryContext* ctx,
                                                  const char* kind,
                                                  bool force_profile) {
  const std::uint64_t id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  ctx->set_query_id(id);
  const std::uint64_t every = options_.obs.trace_sample_every;
  if (!force_profile && (every == 0 || (id - 1) % every != 0)) return nullptr;
  if (metrics_->enabled()) {
    metrics_->counter("cre_traces_sampled_total")->Increment();
  }
  auto profile = std::make_shared<QueryProfile>(id, kind);
  profile->dop = pool_->num_threads();
  return profile;
}

std::vector<std::shared_ptr<const QueryProfile>> Engine::traces() const {
  MutexLock lock(profiles_mu_);
  return {profiles_.rbegin(), profiles_.rend()};
}

void Engine::FinishQuery(QueryContext* ctx, const char* kind, double seconds,
                         const Status& status, std::size_t rows,
                         std::shared_ptr<QueryProfile> profile) {
  const SchedulingCounters sched = ctx->scheduling();
  if (metrics_->enabled()) {
    metrics_->histogram("cre_query_seconds", {{"kind", kind}})
        ->Observe(seconds);
    if (sched.tasks_dispatched > 0) {
      metrics_->histogram("cre_query_queue_wait_seconds")
          ->Observe(sched.queue_wait_seconds);
      metrics_->histogram("cre_query_admission_seconds")
          ->Observe(sched.admission_seconds);
      metrics_->counter("cre_tasks_dispatched_total")
          ->Increment(sched.tasks_dispatched);
    }
    const char* outcome = "error";
    if (status.ok()) {
      outcome = "ok";
    } else if (status.IsDeadlineExceeded()) {
      outcome = "deadline";
    } else if (status.IsCancelled()) {
      outcome = "cancelled";
    } else if (status.IsResourceExhausted()) {
      outcome = "resource_exhausted";
    }
    metrics_->counter("cre_queries_total", {{"status", outcome}})->Increment();
    if (status.ok()) {
      metrics_->counter("cre_query_rows_total")->Increment(rows);
    }
  }
  if (profile != nullptr) {
    profile->scheduling = sched;
    MutexLock lock(profiles_mu_);
    profiles_.push_back(profile);
    const std::size_t capacity =
        std::max<std::size_t>(1, options_.obs.trace_ring_capacity);
    while (profiles_.size() > capacity) profiles_.pop_front();
  }
  // Feed the tuner the manager's cumulative reuse rate (lookups per
  // distinct key) — the measured form of index_reuse_horizon.
  if (options_.index.enabled) {
    const IndexManager::Stats reuse = index_manager_->stats();
    knob_tuner_->ObserveIndexReuse(reuse.hits + reuse.misses,
                                   reuse.distinct_lookup_keys);
  }
  const double slow = options_.obs.slow_query_seconds;
  if (slow > 0 && seconds >= slow) {
    if (metrics_->enabled()) {
      metrics_->counter("cre_slow_queries_total")->Increment();
    }
    std::vector<LogField> fields;
    fields.emplace_back("query_id", ctx->query_id());
    fields.emplace_back("kind", kind);
    fields.emplace_back("seconds", seconds);
    fields.emplace_back("rows", static_cast<std::uint64_t>(rows));
    fields.emplace_back("queue_wait_seconds", sched.queue_wait_seconds);
    fields.emplace_back("status", status.ok() ? "ok" : status.message());
    if (profile != nullptr) {
      fields.emplace_back("profile", profile->ToCompactString());
    }
    LogStructured(LogLevel::kWarning, "slow_query", fields);
  }
}

Result<TablePtr> Engine::RunTracked(QueryContext* ctx, const PlanPtr& plan,
                                    bool optimize, const char* kind) {
  std::shared_ptr<QueryProfile> profile = AdmitForObs(ctx, kind);
  const Timer timer;
  const Result<PlanPtr> physical =
      optimize ? OptimizePlan(ctx, plan, profile.get())
               : Result<PlanPtr>(plan);
  return ExecuteTracked(ctx, physical, kind, timer, std::move(profile));
}

Result<TablePtr> Engine::ExecuteTracked(QueryContext* ctx,
                                        const Result<PlanPtr>& physical,
                                        const char* kind, const Timer& timer,
                                        std::shared_ptr<QueryProfile> profile) {
  std::size_t rows = 0;
  Result<TablePtr> result = [&]() -> Result<TablePtr> {
    CRE_RETURN_NOT_OK(physical.status());
    if (profile != nullptr) profile->Bind(physical.ValueUnsafe());
    const Timer execute_timer;
    auto r = RunPhysical(ctx, physical.ValueUnsafe(), profile.get());
    if (profile != nullptr) profile->execute_seconds = execute_timer.Seconds();
    if (r.ok()) rows = r.ValueUnsafe()->num_rows();
    return r;
  }();
  // Deep poll sites only watch the token's boolean and report kCancelled;
  // when the token actually tripped on its deadline, surface the precise
  // code at the engine boundary.
  if (!result.ok() && result.status().IsCancelled() &&
      ctx->cancel_flag() != nullptr &&
      ctx->cancel_flag()->deadline_exceeded()) {
    result = Status::DeadlineExceeded("query deadline exceeded");
  }
  FinishQuery(ctx, kind, timer.Seconds(), result.status(), rows,
              std::move(profile));
  return result;
}

Result<TablePtr> Engine::ExecuteUnoptimized(const PlanPtr& plan) {
  return ExecuteUnoptimized(plan, QueryOptions{});
}

Result<TablePtr> Engine::ExecuteUnoptimized(const PlanPtr& plan,
                                            const QueryOptions& query) {
  CRE_ASSIGN_OR_RETURN(QueryContext ctx, MakeContext(query));
  return RunTracked(&ctx, plan, /*optimize=*/false, "unoptimized");
}

Result<TablePtr> Engine::Execute(const PlanPtr& plan) {
  return Execute(plan, QueryOptions{});
}

Result<TablePtr> Engine::Execute(const PlanPtr& plan,
                                 const QueryOptions& query) {
  CRE_ASSIGN_OR_RETURN(QueryContext ctx, MakeContext(query));
  return RunTracked(&ctx, plan, /*optimize=*/true, "execute");
}

Result<std::string> Engine::Explain(const PlanPtr& plan) {
  Optimizer optimizer = MakeOptimizer();
  CRE_ASSIGN_OR_RETURN(PlanPtr optimized, optimizer.Optimize(plan));
  // Whether an Execute of this plan right now would skip the optimizer:
  // a read-only probe (EXPLAIN itself never populates the cache — it
  // plans against the live catalog, not an admitted snapshot).
  std::string plan_origin = "optimized";
  if (options_.plan_cache.enabled) {
    const PlanCache::Shape shape =
        PlanCache::Normalize(*plan, KnobSignature());
    std::uint64_t stamp = 0;
    if (plan_cache_->Peek(shape, PlanCacheVersionProbe(nullptr),
                          PlanCacheAbsentProbe(), &stamp)) {
      plan_origin = "cached(stamp=" + std::to_string(stamp) + ")";
    }
  }
  // Append the parallel driver's routing (per-pipeline degree of
  // parallelism and scheduling mode) plus the serving-layer state the
  // query would be admitted into.
  const std::size_t dop = pool_->num_threads();
  const IndexManager::Stats index_stats = index_manager_->stats();
  std::string out =
      optimized->ToString() + "plan: " + plan_origin + "\n\n" +
      DescribePipelines(*optimized, dop,
                        EffectiveOptimizerOptions().radix_agg_min_groups);
  // The engine's own permanent background group is not a query.
  const std::size_t active = scheduler_->active_queries() - 1;
  out += "serving: scheduler dop=" + std::to_string(dop) +
         ", active queries=" + std::to_string(active) +
         ", pending tasks=" + std::to_string(scheduler_->pending_tasks()) +
         ", background index builds=" +
         std::to_string(index_stats.background_builds) +
         (options_.index.async_builds ? " (async on)" : " (async off)");
  if (!options_.index.persist_dir.empty()) {
    out += ", index persistence: dir=" + options_.index.persist_dir +
           ", disk loads=" + std::to_string(index_stats.disk_loads) +
           ", disk writes=" + std::to_string(index_stats.disk_writes) +
           ", refreshes=" + std::to_string(index_stats.refreshes);
  }
  out += "\n";
  return out;
}

namespace {

/// Managed-index keys a plan consults: index-backed semantic selects and
/// semantic joins whose build side is an indexable scan.
void CollectIndexKeys(const PlanNode& node, std::vector<IndexKey>* out) {
  if (node.IndexBackedSelect()) {
    out->push_back({node.children[0]->table_name, node.column, node.model_name,
                    node.strategy});
  }
  if (node.kind == PlanKind::kSemanticJoin &&
      node.strategy != SemanticJoinStrategy::kBruteForce) {
    if (const PlanNode* scan = node.IndexableBuildScan()) {
      out->push_back(
          {scan->table_name, node.right_key, node.model_name, node.strategy});
    }
  }
  for (const PlanPtr& child : node.children) CollectIndexKeys(*child, out);
}

}  // namespace

Result<std::string> Engine::ExplainAnalyze(const PlanPtr& plan) {
  return ExplainAnalyze(plan, QueryOptions{});
}

Result<std::string> Engine::ExplainAnalyze(const PlanPtr& plan,
                                           const QueryOptions& query) {
  CRE_ASSIGN_OR_RETURN(QueryContext ctx, MakeContext(query));
  std::shared_ptr<QueryProfile> profile =
      AdmitForObs(&ctx, "explain_analyze", /*force_profile=*/true);
  const Timer timer;
  const Result<PlanPtr> planned = OptimizePlan(&ctx, plan, profile.get());

  // Residency of every managed index the plan consults, probed before and
  // after execution — the rendering shows the transition the execution
  // itself caused (on-disk -> resident for a warm start, absent ->
  // building for a kicked-off background build, ...).
  std::vector<IndexKey> index_keys;
  if (planned.ok() && options_.index.enabled) {
    CollectIndexKeys(*planned.ValueUnsafe(), &index_keys);
  }
  std::vector<IndexResidency> residency_before;
  residency_before.reserve(index_keys.size());
  for (const IndexKey& key : index_keys) {
    residency_before.push_back(index_manager_->Residency(key));
  }

  CRE_ASSIGN_OR_RETURN(
      TablePtr table,
      ExecuteTracked(&ctx, planned, "explain_analyze", timer, profile));
  const PlanPtr& optimized = planned.ValueUnsafe();

  const std::size_t dop = pool_->num_threads();
  std::string out;
  char head[160];
  std::snprintf(head, sizeof(head),
                "EXPLAIN ANALYZE  wall=%.3fms rows=%zu dop=%zu\n"
                "plan: %s  optimize wall=%.3fms\n",
                profile->execute_seconds * 1e3, table->num_rows(), dop,
                profile->plan_origin.c_str(), profile->optimize_seconds * 1e3);
  out += head;
  out += profile->ToString();

  if (ctx.cancel_flag() != nullptr && ctx.cancel_flag()->deadline_ns() != 0) {
    char deadline_line[96];
    std::snprintf(deadline_line, sizeof(deadline_line),
                  "deadline: slack at finish=%.3fms\n",
                  ctx.cancel_flag()->SlackSeconds() * 1e3);
    out += deadline_line;
  }
  if (ctx.budget() != nullptr) {
    char governor_line[160];
    std::snprintf(governor_line, sizeof(governor_line),
                  "governor: query peak=%zu bytes (limit=%zu), "
                  "engine charged=%zu bytes\n",
                  ctx.budget()->peak_bytes(), ctx.budget()->limit_bytes(),
                  governor_->charged_bytes());
    out += governor_line;
  }

  if (!index_keys.empty()) {
    out += "index residency:\n";
    for (std::size_t i = 0; i < index_keys.size(); ++i) {
      const IndexResidency after = index_manager_->Residency(index_keys[i]);
      out += "  " + index_keys[i].ToString() + ": " +
             IndexResidencyName(residency_before[i]);
      if (after != residency_before[i]) {
        out += std::string(" -> ") + IndexResidencyName(after);
      } else {
        out += " (unchanged)";
      }
      out += "\n";
    }
  }

  out += DescribePipelines(*optimized, dop,
                           EffectiveOptimizerOptions().radix_agg_min_groups);
  return out;
}

}  // namespace cre
