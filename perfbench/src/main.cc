// The repository benchmark: runs one seeded workload against the cre
// library's public API for a fixed time, checks every answer against a
// reference computed with ExecuteUnoptimized, and prints a JSON result as
// its last line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>] [--tiny]
//   perfbench --list-metrics
//
// Each workload's input sizes are constants of the workload; --tiny cuts
// them to a few thousand rows for the benchmark's own tests.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the same untraced loop (engine counter diffs, class latencies),
// then a traced loop that records spans around each layer call and
// embedding calls, then layer probes, and prints the per-layer metrics,
// including the traced-minus-untraced latency difference.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "expr/evaluator.h"
#include "harness.h"
#include "runner.h"
#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/kernels.h"
#include "vecsim/lsh_index.h"
#include "workloads.h"

namespace perfbench {
namespace {

// ------------------------------------------------------------- probes

double ProbeOptimize(Workload* w, cre::Engine* engine, Traces* traces) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < w->pool().size() && ms.size() < 8; ++i) {
    const Op& op = w->pool()[i];
    if (op.cls == "append") continue;
    auto plan = PlanOf(op);
    if (!plan.ok()) continue;
    auto trace = std::make_shared<cre::QueryTrace>(0, "probe");
    traces->push_back(trace);
    const Clock::time_point t0 = Clock::now();
    auto optimized = [&] {
      cre::ScopedSpan span(trace.get(), nullptr, "optimizer.optimize");
      return engine->MakeOptimizer().Optimize(plan.ValueUnsafe());
    }();
    ms.push_back(SecondsSince(t0) * 1e3);
    trace->Finish();
    if (!optimized.ok()) {
      std::fprintf(stderr, "perfbench: optimize failed: %s\n",
                   optimized.status().ToString().c_str());
    }
  }
  return ms.empty() ? 0 : Median(ms);
}

double ProbeFilter(const Probes& p) {
  if (p.filter_table == nullptr || p.filter_predicates.empty()) return 0;
  double ns = 0;
  double rows = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& pred : p.filter_predicates) {
      const Clock::time_point t0 = Clock::now();
      auto sel = cre::FilterIndices(*p.filter_table, *pred);
      ns += SecondsSince(t0) * 1e9;
      rows += static_cast<double>(p.filter_table->num_rows());
      if (!sel.ok()) return 0;
    }
  }
  return ns / rows;
}

std::vector<float> EmbedAll(const cre::EmbeddingModel& model,
                            const std::vector<std::string>& texts) {
  std::vector<float> out(texts.size() * model.dim());
  model.EmbedBatch(texts, out.data());
  return out;
}

/// ns per row of the runtime-chosen batch kernel over morsel-sized blocks.
double ProbeDotBatch(const Workload& w) {
  const cre::EmbeddingModel& model = *w.model();
  const std::size_t dim = model.dim();
  const auto& values = w.probes().index_values;
  if (values.empty()) return 0;
  const std::size_t block = 8192;
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < block; ++i) {
    texts.push_back(values[i % values.size()]);
  }
  const std::vector<float> base = EmbedAll(model, texts);
  const std::vector<float> query = model.EmbedToVector(values[0]);
  const cre::DotBatchFn kernel =
      cre::GetDotBatchKernel(cre::BestKernelVariant());
  std::vector<float> out(block);
  std::vector<double> per_row;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 20; ++i) {
      kernel(query.data(), base.data(), block, dim, out.data());
    }
    per_row.push_back(SecondsSince(t0) * 1e9 / (20.0 * block));
  }
  volatile float sink = out[0];
  (void)sink;
  return Median(per_row);
}

/// The strategy the optimizer picks for the workload's first semantic
/// operator.
cre::SemanticJoinStrategy ChosenFamily(Workload* w, cre::Engine* engine) {
  auto plan = PlanOf(w->family_op());
  if (!plan.ok()) return cre::SemanticJoinStrategy::kBruteForce;
  auto optimized = engine->MakeOptimizer().Optimize(plan.ValueUnsafe());
  if (!optimized.ok()) return cre::SemanticJoinStrategy::kBruteForce;
  std::vector<const cre::PlanNode*> stack = {optimized.ValueUnsafe().get()};
  while (!stack.empty()) {
    const cre::PlanNode* n = stack.back();
    stack.pop_back();
    if (n->kind == cre::PlanKind::kSemanticSelect ||
        n->kind == cre::PlanKind::kSemanticJoin) {
      return n->strategy;
    }
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  return cre::SemanticJoinStrategy::kBruteForce;
}

std::unique_ptr<cre::VectorIndex> MakeIndex(cre::SemanticJoinStrategy s) {
  switch (s) {
    case cre::SemanticJoinStrategy::kBruteForce:
      return std::make_unique<cre::FlatIndex>();
    case cre::SemanticJoinStrategy::kLsh:
      return std::make_unique<cre::LshIndex>();
    case cre::SemanticJoinStrategy::kIvf:
      return std::make_unique<cre::IvfIndex>();
    case cre::SemanticJoinStrategy::kHnsw:
      return std::make_unique<cre::HnswIndex>();
    case cre::SemanticJoinStrategy::kIvfPq:
      return std::make_unique<cre::IvfPqIndex>();
  }
  return nullptr;
}

/// µs per VectorIndex::RangeSearch on the chosen family, built over the
/// workload's distinct values.
double ProbeIndex(Workload* w, cre::Engine* engine, std::string* family) {
  const Probes& p = w->probes();
  if (p.index_values.empty() || p.index_queries.empty()) return 0;
  const cre::SemanticJoinStrategy s = ChosenFamily(w, engine);
  *family = cre::SemanticJoinStrategyName(s);
  const cre::EmbeddingModel& model = *w->model();
  const std::vector<float> base = EmbedAll(model, p.index_values);
  const std::vector<float> queries = EmbedAll(model, p.index_queries);
  std::unique_ptr<cre::VectorIndex> index = MakeIndex(s);
  const cre::Status built =
      index->Build(base.data(), p.index_values.size(), model.dim());
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: %s probe index build failed: %s\n",
                 family->c_str(), built.ToString().c_str());
    return 0;
  }
  std::vector<double> us;
  std::vector<cre::ScoredId> hits;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t q = 0; q < p.index_queries.size(); ++q) {
      hits.clear();
      index->RangeSearch(queries.data() + q * model.dim(), p.threshold, &hits);
    }
    us.push_back(SecondsSince(t0) * 1e6 /
                 static_cast<double>(p.index_queries.size()));
  }
  return Median(us);
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  bool list_metrics = false;
  std::string spans_out;
};

/// Parses the flags; false on an unknown flag, a malformed value, or a
/// missing required flag.
bool ParseArgs(int argc, char** argv, Args* a) {
  bool seed = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--list-metrics") {
      a->list_metrics = true;
      continue;
    }
    if (f == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (f == "--workload") {
      a->workload = v;
    } else if (f == "--seed") {
      if (v.empty() || v[0] == '-') return false;
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
      seed = true;
    } else if (f == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (f == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
      trace = true;
    } else if (f == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return a->list_metrics ||
         (!a->workload.empty() && seed && a->seconds > 0 && trace);
}

void PrintNames(const std::vector<MetricDecl>& decls) {
  for (const MetricDecl& d : decls) std::printf("%s %s\n", d.name, d.unit);
}

double PerQuery(double value, std::size_t queries) {
  return queries == 0 ? 0 : value / static_cast<double>(queries);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> [--spans-out <path>] "
                         "[--tiny]\n");
    return 2;
  }
  if (args.list_metrics) {
    PrintNames(EndToEndMetrics());
    PrintNames(PerLayerMetrics());
    return 0;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.tiny);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", MachineLine().c_str());

  const Clock::time_point gen_start = Clock::now();
  w->Generate(args.seed);
  std::printf("workload: %s seed=%llu clients=%zu %s\n", w->name().c_str(),
              static_cast<unsigned long long>(args.seed), w->clients(),
              w->describe().c_str());
  std::printf("inputs: generated in %.3f s, repeated-string share %.4f\n",
              SecondsSince(gen_start), w->repeat_share());

  // Set-up, several times; the last engine serves the run.
  const std::size_t repeats = args.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<cre::Engine> engine;
  SetupTimes times;
  for (std::size_t i = 0; i < repeats; ++i) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = w->Setup(&times);
    setup_s.push_back(SecondsSince(t0));
  }
  std::printf("setup: %zu runs, median %.4f s, engine dop=%zu\n",
              setup_s.size(), Median(setup_s),
              engine->pool() ? engine->pool()->num_threads() : 0);

  LoopResult a = RunLoop(w.get(), engine.get(), args.seconds);

  std::map<std::string, double> values;
  LoopResult b;
  TraceLog log;
  std::string family = "none";
  double optimize_ms = 0;
  // What the traced loop embedded, read before the probes embed more.
  double strings = 0;
  double distinct = 0;
  double embed_ns = 0;
  if (args.trace) {
    auto counting = std::make_shared<CountingModel>(w->model());
    engine->models().Put(w->model_name(), counting);
    log.model = counting.get();
    b = RunLoop(w.get(), engine.get(), args.seconds, &log);
    strings = static_cast<double>(counting->strings());
    distinct = static_cast<double>(counting->distinct_per_query());
    embed_ns = static_cast<double>(counting->busy_ns());
    optimize_ms = ProbeOptimize(w.get(), engine.get(), &log.traces);
  }
  // Before the reference engine runs: the peak belongs to the engine
  // under test.
  const double peak_rss_mb = PeakRssMb();

  // Answer checks, outside every timed region.
  std::set<std::size_t> used;
  for (const Answer& x : a.answers) used.insert(x.op);
  for (const Answer& x : b.answers) used.insert(x.op);
  const Clock::time_point ref_start = Clock::now();
  const auto refs = ComputeReferences(w.get(), used);
  const CheckTotals ca = CheckAnswers(w.get(), &a, refs);
  const CheckTotals cb = CheckAnswers(w.get(), &b, refs);
  std::printf("references: %zu distinct queries in %.3f s\n", refs.size(),
              SecondsSince(ref_start));

  const std::size_t windows = w->windows();
  const LoopSummary sa =
      Summarize(a.samples, a.busy_seconds, w->tail_pct(), windows);
  const std::size_t attempted =
      a.samples.size() + b.samples.size() + a.append_seconds.size() +
      b.append_seconds.size();
  const LoopSummary sb =
      Summarize(b.samples, b.busy_seconds, w->tail_pct(), windows);
  const std::size_t failed =
      sa.failed + sb.failed + a.append_failed + b.append_failed;
  const double recall = MeanRecall({&ca, &cb});
  std::printf(
      "samples: %zu queries in %.3f s, p50 %.3f ms, p%g %.3f ms (highest "
      "percentile with >= 10 samples beyond: p%g), errors %zu, wrong %zu, "
      "error_rate %.6f, recall %.6f over %zu index-backed queries\n",
      sa.attempted, a.busy_seconds, sa.p50_ms, sa.tail_pct, sa.tail_ms,
      sa.supported_pct, ca.errors, ca.wrong,
      sa.attempted == 0 ? 0.0
                        : static_cast<double>(sa.failed) /
                              static_cast<double>(sa.attempted),
      recall, ca.recall_by_op.size());
  std::printf("windows: %zu, p50 ms", windows);
  for (const double v : sa.window_p50_ms) std::printf(" %.3f", v);
  std::printf(", qps");
  for (const double v : sa.window_qps) std::printf(" %.2f", v);
  std::printf("\n");
  if (sa.supported_pct < sa.tail_pct) {
    std::fprintf(stderr,
                 "perfbench: too few samples; p%g has fewer than 10 beyond "
                 "it\n",
                 sa.tail_pct);
  }
  if (sa.attempted == 0) {
    std::fprintf(stderr, "perfbench: no query completed\n");
    return 1;
  }

  if (!args.trace) {
    values["setup_s"] = Median(setup_s);
    values["latency_p50_ms"] = sa.p50_ms;
    values["latency_tail_ms"] = sa.tail_ms;
    values["throughput_qps"] = sa.throughput_qps;
    values["ok_ratio"] = 1.0 - static_cast<double>(sa.failed) /
                                   static_cast<double>(sa.attempted);
    values["recall"] = recall;
    values["peak_rss_mb"] = peak_rss_mb;
  } else {
    const std::size_t qa = a.samples.size();
    const std::size_t qb = b.samples.size();
    const auto totals = TotalsByName(log.traces);
    auto span_mean_ms = [&](const char* name, bool self) {
      auto it = totals.find(name);
      if (it == totals.end() || it->second.count == 0) return 0.0;
      return (self ? it->second.self_ms : it->second.total_ms) /
             static_cast<double>(it->second.count);
    };
    auto cls_ms = [&](const char* cls) {
      auto it = sa.class_p50_ms.find(cls);
      return it == sa.class_p50_ms.end() ? 0.0 : it->second;
    };
    const CounterDiff& d = a.counters;
    const double pc_hits = d.Get("cre_plan_cache_hits_total");
    const double pc_misses = d.Get("cre_plan_cache_misses_total");
    values["sql.parse_us"] = span_mean_ms("sql.parse", false) * 1e3;
    values["optimizer.optimize_ms"] = optimize_ms;
    values["optimizer.plan_cache_hit_ratio"] =
        pc_hits + pc_misses == 0 ? 0 : pc_hits / (pc_hits + pc_misses);
    values["optimizer.plan_cache_invalidations"] =
        PerQuery(d.Get("cre_plan_cache_invalidations_total"), qa);
    values["engine.tasks_per_query"] =
        PerQuery(d.Get("cre_tasks_dispatched_total"), qa);
    values["engine.queue_wait_task_ms"] =
        PerQuery(d.Get("cre_query_queue_wait_seconds.sum") * 1e3, qa);
    values["engine.shed"] = d.Get("cre_admission_shed_total");
    values["engine.execute_self_ms"] = span_mean_ms("engine.execute", true);
    values["expr.filter_ns_per_row"] = ProbeFilter(w->probes());
    values["exec.agg_ms"] = cls_ms("agg");
    values["exec.join_ms"] = cls_ms("join");
    values["exec.topk_ms"] = cls_ms("topk");
    values["semantic.select_ms"] = cls_ms("select");
    values["semantic.join_ms"] = cls_ms("semjoin");
    values["embed.strings_per_query"] = PerQuery(strings, qb);
    values["embed.distinct_ratio"] = strings == 0 ? 0 : distinct / strings;
    values["embed.busy_ms"] = PerQuery(embed_ns / 1e6, qb);
    values["embed.ns_per_string"] = strings == 0 ? 0 : embed_ns / strings;
    values["vecsim.dot_batch_ns"] = ProbeDotBatch(*w);
    values["vecsim.probe_us"] = ProbeIndex(w.get(), engine.get(), &family);
    values["index.hits"] =
        PerQuery(d.Get("cre_index_lookups_total{outcome=hit}"), qa);
    const auto final_values = Flatten(a.final_snapshot);
    auto final_value = [&](const char* name) {
      auto it = final_values.find(name);
      return it == final_values.end() ? 0.0 : it->second;
    };
    values["index.builds"] = final_value("cre_index_builds_total");
    values["index.refreshes"] =
        PerQuery(d.Get("cre_index_refreshes_total"), qa);
    values["index.invalidations"] =
        PerQuery(d.Get("cre_index_invalidations_total"), qa);
    values["index.build_s"] = times.index_build_s;
    values["storage.load_s"] = times.load_s;
    values["storage.append_p50_ms"] = Median(a.append_seconds) * 1e3;
    values["vision.images_per_query"] =
        PerQuery(static_cast<double>(a.images_detected), qa);
    values["vision.detect_ratio"] =
        a.image_candidates == 0
            ? 0
            : static_cast<double>(a.images_detected) / a.image_candidates;
    values["core.governor_peak_bytes"] =
        final_value("cre_governor_peak_bytes");
    values["trace.overhead_pct"] =
        sa.mean_ms == 0 ? 0 : (sb.mean_ms / sa.mean_ms - 1.0) * 100.0;
    std::printf(
        "traced: %zu queries, mean %.3f ms (untraced %.3f ms), %zu traces, "
        "probed index family %s\n",
        qb, sb.mean_ms, sa.mean_ms, log.traces.size(), family.c_str());
    for (const auto& [name, t] : totals) {
      std::printf("span %-20s count %8zu total %12.3f ms self %12.3f ms\n",
                  name.c_str(), t.count, t.total_ms, t.self_ms);
    }
    if (!args.spans_out.empty() && !WriteTraces(log.traces, args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }

  const std::string line =
      ResultLine(failed == 0, attempted, failed,
                 args.trace ? PerLayerMetrics() : EndToEndMetrics(), values);
  if (line.empty()) return 1;
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
