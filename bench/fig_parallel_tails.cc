// Scale-up table for the four serial tails this engine eliminated:
//
//   sort   - ORDER BY over a large table: per-run local sorts + a
//            range-partitioned k-way loser-tree merge (exec/parallel_sort)
//   limit  - LIMIT over a filtered scan: morsel pipelines under a shared
//            atomic row budget with an exact prefix cutoff (exec/morsel)
//   agg    - high-cardinality GROUP BY: two-phase radix-partitioned
//            aggregation, per-partition parallel merges (exec/aggregate)
//   hnsw   - cold HNSW index construction: canonical batched inserts,
//            frozen-snapshot candidate searches in parallel
//            (vecsim/hnsw_index)
//
// Each workload runs at 1/2/4/8 worker threads and reports wall time and
// speedup vs the 1-thread run, plus the phase breakdown (local sort vs
// merge, partition vs merge) at the highest thread count. The table
// prints on any machine; the speedups are only meaningful on a
// multi-core runner (single-core machines print ~1.0x).
//
// The last section fits cost-model constants from the measurements:
// CostParams::parallel_fraction via Amdahl inversion of the observed
// speedups, and the HNSW build constants from the measured per-row build
// cost. Fitted values are recorded next to the constants in
// optimizer/cost_model.h.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "core/timer.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "exec/aggregate.h"
#include "plan/plan_node.h"
#include "vecsim/hnsw_index.h"

namespace cre {
namespace {

struct Workload {
  std::string name;
  // seconds[i] = wall time at thread_counts[i].
  std::vector<double> seconds;
};

TablePtr MakeRows(std::size_t n, std::size_t groups) {
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                               {"key", DataType::kInt64, 0},
                               {"num", DataType::kFloat64, 0},
                               {"pay", DataType::kFloat64, 0}}));
  t->Reserve(n);
  Rng rng(2024);
  for (std::size_t i = 0; i < n; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
    t->column(1).AppendInt64(static_cast<std::int64_t>(rng.Uniform(groups)));
    t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000000)));
    t->column(3).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
  }
  return t;
}

/// Best-of-3 wall time of one engine execution (first run warms caches).
double TimeExecute(Engine* engine, const PlanPtr& plan) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    auto result = engine->Execute(plan);
    result.ValueOrDie();
    best = std::min(best, t.Seconds());
  }
  return best;
}

void PrintTable(const std::vector<std::size_t>& threads,
                const std::vector<Workload>& workloads) {
  std::printf("\n%-28s", "workload \\ threads");
  for (const std::size_t t : threads) std::printf(" %8zu", t);
  std::printf("   %s\n", "speedup@max");
  for (const auto& w : workloads) {
    std::printf("%-28s", w.name.c_str());
    for (const double s : w.seconds) std::printf(" %8.4f", s);
    std::printf("   %8.2fx\n", w.seconds.front() / w.seconds.back());
  }
  std::printf("\n%-28s", "(speedup vs 1 thread)");
  for (std::size_t i = 0; i < threads.size(); ++i) std::printf(" %8s", "");
  std::printf("\n");
  for (const auto& w : workloads) {
    std::printf("%-28s", w.name.c_str());
    for (const double s : w.seconds) {
      std::printf(" %7.2fx", w.seconds.front() / s);
    }
    std::printf("\n");
  }
}

void RunParallelTails(bench::JsonReport* json) {
  const std::size_t n_rows = bench::EnvSize("CRE_TAILS_ROWS", 200000);
  const std::size_t n_groups = bench::EnvSize("CRE_TAILS_GROUPS", 50000);
  const std::size_t n_vecs = bench::EnvSize("CRE_TAILS_VECS", 20000);
  const std::size_t dim = bench::EnvSize("CRE_TAILS_DIM", 64);
  const std::size_t limit_k = std::max<std::size_t>(1, n_rows / 100);

  bench::PrintHeader(
      "fig_parallel_tails - scale-up of the former serial tails\n"
      "rows=" + std::to_string(n_rows) + ", groups~" +
      std::to_string(n_groups) + ", hnsw vectors=" + std::to_string(n_vecs) +
      " (dim " + std::to_string(dim) + "), limit k=" +
      std::to_string(limit_k) + ", hardware threads=" +
      std::to_string(std::thread::hardware_concurrency()));

  TablePtr rows = MakeRows(n_rows, n_groups);

  // HNSW input: one embedding per distinct synthetic word.
  HashEmbeddingModel::Options mo;
  mo.dim = dim;
  HashEmbeddingModel model(mo);
  std::vector<float> matrix(n_vecs * dim);
  for (std::size_t i = 0; i < n_vecs; ++i) {
    model.Embed("entity_" + std::to_string(i), matrix.data() + i * dim);
  }

  PlanPtr sort_plan = PlanNode::Sort(PlanNode::Scan("rows"), "num", true);
  // ~1% of rows pass the filter, so the budget's prefix cutoff still has
  // to drive most morsels through the pool before it trips — the case
  // the old serial pull loop made single-threaded.
  PlanPtr limit_plan = PlanNode::Limit(
      PlanNode::Filter(PlanNode::Scan("rows"), Gt(Col("pay"), Lit(990.0))),
      limit_k);
  PlanPtr agg_plan = PlanNode::Aggregate(
      PlanNode::Scan("rows"), {"key"},
      {{AggKind::kCount, "", "n"},
       {AggKind::kSum, "num", "total"},
       {AggKind::kMax, "pay", "top_pay"}});
  PlanPtr topk_plan = PlanNode::Limit(
      PlanNode::Sort(PlanNode::Scan("rows"), "num", false), 100);

  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Workload> workloads = {{"ORDER BY (sort)", {}},
                                     {"LIMIT (row budget)", {}},
                                     {"GROUP BY high-card (agg)", {}},
                                     {"ORDER BY + LIMIT (top-k)", {}},
                                     {"cold HNSW build", {}}};

  for (const std::size_t threads : thread_counts) {
    EngineOptions eo;
    eo.num_threads = threads;
    Engine engine(eo);
    engine.catalog().Put("rows", rows);
    workloads[0].seconds.push_back(TimeExecute(&engine, sort_plan));
    workloads[1].seconds.push_back(TimeExecute(&engine, limit_plan));
    workloads[2].seconds.push_back(TimeExecute(&engine, agg_plan));
    workloads[3].seconds.push_back(TimeExecute(&engine, topk_plan));

    ThreadPool pool(threads);
    HnswOptions ho;
    if (threads > 1) ho.build_pool = &pool;
    double best = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      HnswIndex index(ho);
      Timer t;
      index.Build(matrix.data(), n_vecs, dim).Check();
      best = std::min(best, t.Seconds());
    }
    workloads[4].seconds.push_back(best);
  }

  PrintTable(thread_counts, workloads);

  for (const auto& w : workloads) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      json->Add(w.name, {{"threads", static_cast<double>(thread_counts[i])},
                         {"seconds", w.seconds[i]},
                         {"speedup", w.seconds.front() / w.seconds[i]}});
    }
  }

  // ---- phase breakdown at the highest thread count ----
  {
    EngineOptions eo;
    eo.num_threads = thread_counts.back();
    Engine engine(eo);
    engine.catalog().Put("rows", rows);
    std::printf("\n--- phase breakdown at %zu threads ---\n",
                thread_counts.back());
    for (const PlanPtr& plan : {sort_plan, agg_plan}) {
      engine.Execute(plan).ValueOrDie();
      const auto profile = engine.traces().front();
      const PlanNode& node = *profile->plan();
      const NodeProfile& p = *profile->node(&node);
      if (node.kind == PlanKind::kSort) {
        std::printf("Sort: local sort (%zu runs) %10.3f ms\n", p.sort_runs,
                    p.sort_local_seconds * 1e3);
        std::printf("Sort: merge (%zu partitions) %10.3f ms\n",
                    p.sort_merge_partitions, p.sort_merge_seconds * 1e3);
      } else if (p.agg_mode != nullptr) {
        std::printf("Aggregate: accumulate (%s, %zu chunks) %10.3f ms\n",
                    p.agg_mode, p.agg_chunks, p.agg_accumulate_seconds * 1e3);
        std::printf("Aggregate: merge %10.3f ms\n",
                    p.agg_merge_seconds * 1e3);
      }
    }
  }

  // ---- fitted cost-model constants ----
  std::printf("\n--- fitted cost-model constants ---\n");
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // Amdahl inversion at p threads: T_p/T_1 = (1-f) + f/p.
  bool any_fit = false;
  double fit_sum = 0;
  int fit_count = 0;
  for (const auto& w : workloads) {
    for (std::size_t i = 1; i < thread_counts.size(); ++i) {
      const std::size_t p = thread_counts[i];
      if (p > hw) continue;  // oversubscribed points fit nothing
      const double ratio = w.seconds[i] / w.seconds[0];
      const double f = (1.0 - ratio) / (1.0 - 1.0 / static_cast<double>(p));
      if (f > 0.0 && f <= 1.0) {
        std::printf("parallel_fraction[%s @ %zu threads] = %.3f\n",
                    w.name.c_str(), p, f);
        any_fit = true;
        fit_sum += f;
        ++fit_count;
      }
    }
  }
  if (any_fit) {
    std::printf("parallel_fraction (mean over fits) = %.3f\n",
                fit_sum / fit_count);
  } else {
    std::printf(
        "parallel_fraction: not fittable on this machine (%zu hardware "
        "thread%s); needs a multi-core runner\n",
        static_cast<std::size_t>(hw), hw == 1 ? "" : "s");
  }
  // HNSW build constants: measured serial build cost per row =
  // ef_construction * expansion_factor * build_cost_multiplier * dim *
  // dot_per_dim (cost model's SemanticIndexBuildCost form). The
  // measurement alone only pins the product expansion * multiplier;
  // fix expansion from a probe measurement (or the current CostParams
  // value) and this prints the implied build multiplier.
  const double build_ns_per_row = workloads[4].seconds[0] * 1e9 /
                                  static_cast<double>(n_vecs);
  const double dot_ns = static_cast<double>(dim) * 0.35;
  const double fitted_product = build_ns_per_row / (128.0 * dot_ns);
  std::printf("hnsw build: %.0f ns/row serial -> fitted expansion_factor * "
              "build_cost_multiplier = %.2f (at ef_construction=128, "
              "dot_per_dim=0.35); at hnsw_expansion_factor=28 that implies "
              "hnsw_build_cost_multiplier = %.2f\n",
              build_ns_per_row, fitted_product, fitted_product / 28.0);
}

}  // namespace
}  // namespace cre

int main(int argc, char** argv) {
  cre::bench::JsonReport json("fig_parallel_tails",
                              cre::bench::JsonPathFromArgs(argc, argv));
  cre::RunParallelTails(&json);
  return json.Write() ? 0 : 1;
}
