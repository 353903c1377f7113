// Property tests for the morsel-driven parallel executor: for any plan,
// executing with num_threads = 1 and num_threads = N must produce the
// same result multiset, and for streamable pipelines (scan - filter -
// project - semantic select - hash join probe) the row ORDER must be
// identical too, because per-morsel outputs concatenate in morsel order.
//
// Numeric columns hold integer values so aggregate sums are exact under
// any accumulation order (doubles add associatively below 2^53), making
// the equivalence checks bit-exact rather than tolerance-based.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/hash_embedding_model.h"
#include "embed/structured_model.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "exec/pipeline.h"

namespace cre {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kMorselRows = 512;  // many morsels even on small data

/// Canonical multiset fingerprint of a table: one sorted string per row.
std::vector<std::string> Fingerprint(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row += table.schema().field(c).name;
      row += '=';
      row += table.GetValue(r, c).ToString();
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Ordered row rendering, for exact order comparisons.
std::vector<std::string> OrderedRows(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row += table.GetValue(r, c).ToString();
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

class ParallelExecTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    seed_ = static_cast<std::uint64_t>(GetParam());

    VocabularyOptions vo;
    vo.num_groups = 10;
    vo.words_per_group = 3;
    vo.num_singletons = 15;
    vo.seed = seed_ * 131 + 3;
    groups_ = GenerateVocabulary(vo);
    SynonymStructuredModel::Options mo;
    mo.subword_noise = false;
    model_ = std::make_shared<SynonymStructuredModel>(groups_, mo);
    words_ = AllWords(groups_);

    Rng rng(seed_);
    big_ = RandomTable(rng, 6000);  // ~12 morsels at kMorselRows
    small_ = RandomTable(rng, 300);

    serial_ = MakeEngine(1);
    parallel_ = MakeEngine(kThreads);
  }

  std::unique_ptr<Engine> MakeEngine(std::size_t threads) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.morsel_rows = kMorselRows;
    eo.optimizer.allow_approximate_similarity = false;
    auto engine = std::make_unique<Engine>(eo);
    engine->catalog().Put("big", big_);
    engine->catalog().Put("small", small_);
    engine->models().Put("m", model_);
    return engine;
  }

  TablePtr RandomTable(Rng& rng, std::size_t n) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"word", DataType::kString, 0},
                                 {"num", DataType::kFloat64, 0},
                                 {"flag", DataType::kInt64, 0}}));
    t->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(80)));
      t->column(1).AppendString(words_[rng.Uniform(words_.size())]);
      // Integer-valued doubles: parallel partial sums merge exactly.
      t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
      t->column(3).AppendInt64(static_cast<std::int64_t>(rng.Uniform(4)));
    }
    return t;
  }

  ExprPtr RandomPredicate(Rng& rng) {
    switch (rng.Uniform(4)) {
      case 0:
        return Gt(Col("num"), Lit(static_cast<double>(rng.Uniform(1000))));
      case 1:
        return Le(Col("num"), Lit(static_cast<double>(rng.Uniform(1000))));
      case 2:
        return Eq(Col("flag"),
                  Lit(static_cast<std::int64_t>(rng.Uniform(4))));
      default:
        return And(Gt(Col("num"), Lit(static_cast<double>(rng.Uniform(500)))),
                   Ne(Col("flag"), Lit(0)));
    }
  }

  /// Random plans over every operator kind the driver handles.
  PlanPtr RandomPlan(Rng& rng) {
    PlanPtr plan = PlanNode::Scan("big");
    const std::size_t steps = 1 + rng.Uniform(4);
    bool joined = false;
    for (std::size_t s = 0; s < steps; ++s) {
      switch (rng.Uniform(8)) {
        case 0:
          plan = PlanNode::Filter(plan, RandomPredicate(rng));
          break;
        case 1:
          plan = PlanNode::SemanticSelect(
              plan, "word", words_[rng.Uniform(words_.size())], "m",
              0.7f + 0.2f * static_cast<float>(rng.NextDouble()));
          break;
        case 2:
          if (!joined) {
            plan = PlanNode::Join(plan, PlanNode::Scan("small"), "id", "id");
            joined = true;
          }
          break;
        case 3:
          if (!joined) {
            PlanPtr right = PlanNode::Filter(PlanNode::Scan("small"),
                                             RandomPredicate(rng));
            plan = PlanNode::SemanticJoin(plan, right, "word", "word", "m",
                                          0.85f);
            joined = true;
          }
          break;
        case 4:
          plan = PlanNode::Aggregate(
              plan, {"flag"},
              {{AggKind::kCount, "", "n"},
               {AggKind::kSum, "num", "total"},
               {AggKind::kMin, "num", "lo"},
               {AggKind::kMax, "num", "hi"},
               {AggKind::kAvg, "num", "mean"}});
          break;
        case 5:
          plan = PlanNode::SemanticGroupBy(plan, "word", "m", 0.85f);
          break;
        case 6:
          plan = PlanNode::Sort(plan, "num", rng.Bernoulli(0.5));
          break;
        default:
          plan = PlanNode::Limit(plan, 50 + rng.Uniform(4000));
          break;
      }
      // Aggregate output drops most columns; stop stacking semantic ops
      // that need "word" afterwards.
      if (plan->kind == PlanKind::kAggregate) break;
    }
    return plan;
  }

  std::uint64_t seed_ = 0;
  std::vector<SynonymGroup> groups_;
  std::shared_ptr<SynonymStructuredModel> model_;
  std::vector<std::string> words_;
  TablePtr big_;
  TablePtr small_;
  std::unique_ptr<Engine> serial_;
  std::unique_ptr<Engine> parallel_;
};

TEST_P(ParallelExecTest, FuzzedPlansMatchSerialExecution) {
  Rng rng(seed_ * 7919 + 11);
  for (int trial = 0; trial < 6; ++trial) {
    PlanPtr plan = RandomPlan(rng);
    auto serial = serial_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(serial.ok()) << serial.status() << "\n" << plan->ToString();
    auto parallel = parallel_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(parallel.ok()) << parallel.status() << "\n"
                               << plan->ToString();
    EXPECT_EQ(Fingerprint(*serial.ValueOrDie()),
              Fingerprint(*parallel.ValueOrDie()))
        << "plan:\n"
        << plan->ToString();

    // The optimized parallel execution must agree with the serial one too.
    auto optimized = parallel_->Execute(plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status() << "\n"
                                << plan->ToString();
    EXPECT_EQ(Fingerprint(*serial.ValueOrDie()),
              Fingerprint(*optimized.ValueOrDie()))
        << "plan:\n"
        << plan->ToString();
  }
}

TEST_P(ParallelExecTest, StreamablePipelinePreservesRowOrder) {
  // scan -> filter -> semantic select -> join probe -> project: entirely
  // streamable, so morsel-order concatenation must reproduce the serial
  // row order exactly, run after run.
  Rng rng(seed_ * 271 + 1);
  PlanPtr plan = PlanNode::Scan("big");
  plan = PlanNode::Filter(plan, Gt(Col("num"), Lit(100.0)));
  plan = PlanNode::SemanticSelect(plan, "word",
                                  words_[rng.Uniform(words_.size())], "m",
                                  0.75f);
  plan = PlanNode::Join(plan, PlanNode::Scan("small"), "id", "id");
  std::vector<ProjectionItem> items;
  items.push_back({"id", Col("id")});
  items.push_back({"word", Col("word")});
  items.push_back({"num2", Expr::Arith(ArithOp::kAdd, Col("num"),
                                       Col("num_r"))});
  plan = PlanNode::Project(plan, std::move(items));

  // Whole plan is one streamable segment over the base scan.
  PipelineSegment segment = DecomposePipeline(*plan);
  EXPECT_EQ(segment.source->kind, PlanKind::kScan);
  EXPECT_EQ(segment.ops.size(), 4u);

  auto serial = serial_->ExecuteUnoptimized(plan);
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto run1 = parallel_->ExecuteUnoptimized(plan);
  ASSERT_TRUE(run1.ok()) << run1.status();
  auto run2 = parallel_->ExecuteUnoptimized(plan);
  ASSERT_TRUE(run2.ok()) << run2.status();

  const auto expected = OrderedRows(*serial.ValueOrDie());
  EXPECT_GT(expected.size(), 0u);
  EXPECT_EQ(expected, OrderedRows(*run1.ValueOrDie()));
  EXPECT_EQ(expected, OrderedRows(*run2.ValueOrDie()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelExecTest, ::testing::Range(1, 7));

TEST_P(ParallelExecTest, ParallelSortReproducesSerialOrderByteExactly) {
  // The sort key has heavy duplication (num draws from 1000 values over
  // 6000 rows), so this exercises stability: equal keys must keep input
  // order through per-run sorts and the partitioned loser-tree merge.
  for (const bool ascending : {true, false}) {
    for (const char* key : {"num", "word", "id"}) {
      PlanPtr plan = PlanNode::Sort(PlanNode::Scan("big"), key, ascending);
      auto serial = serial_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(serial.ok()) << serial.status();
      auto run1 = parallel_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(run1.ok()) << run1.status();
      auto run2 = parallel_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(run2.ok()) << run2.status();
      const auto expected = OrderedRows(*serial.ValueOrDie());
      EXPECT_EQ(expected, OrderedRows(*run1.ValueOrDie()))
          << key << (ascending ? " asc" : " desc");
      EXPECT_EQ(expected, OrderedRows(*run2.ValueOrDie()))
          << key << (ascending ? " asc" : " desc");
    }
  }
}

TEST_P(ParallelExecTest, LimitThroughMorselSchedulerMatchesSerial) {
  // Limit over a streamable chain routes through the budgeted morsel
  // scheduler; the first-N-rows semantics must hold byte-exactly for
  // budgets below, at, and above the child's output size.
  Rng rng(seed_ * 31 + 7);
  PlanPtr child = PlanNode::Filter(PlanNode::Scan("big"),
                                   Gt(Col("num"), Lit(250.0)));
  child = PlanNode::SemanticSelect(child, "word",
                                   words_[rng.Uniform(words_.size())], "m",
                                   0.75f);
  for (const std::size_t limit : {1ul, 37ul, 700ul, 100000ul}) {
    PlanPtr plan = PlanNode::Limit(child, limit);
    auto serial = serial_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(serial.ok()) << serial.status();
    auto run1 = parallel_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(run1.ok()) << run1.status();
    auto run2 = parallel_->ExecuteUnoptimized(plan);
    ASSERT_TRUE(run2.ok()) << run2.status();
    EXPECT_EQ(OrderedRows(*serial.ValueOrDie()),
              OrderedRows(*run1.ValueOrDie()))
        << "limit=" << limit;
    EXPECT_EQ(OrderedRows(*run1.ValueOrDie()),
              OrderedRows(*run2.ValueOrDie()))
        << "limit=" << limit;
  }
}

TEST_P(ParallelExecTest, TopKSortLimitMatchesSerial) {
  for (const bool ascending : {true, false}) {
    for (const std::size_t k : {5ul, 250ul, 9000ul}) {
      PlanPtr plan = PlanNode::Limit(
          PlanNode::Sort(PlanNode::Scan("big"), "num", ascending), k);
      auto serial = serial_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(serial.ok()) << serial.status();
      auto parallel = parallel_->ExecuteUnoptimized(plan);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_EQ(OrderedRows(*serial.ValueOrDie()),
                OrderedRows(*parallel.ValueOrDie()))
          << "k=" << k << (ascending ? " asc" : " desc");
    }
  }
}

TEST(ParallelExecPlain, AggregatePartialsMergeExactly) {
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EngineOptions parallel_opts;
  parallel_opts.num_threads = kThreads;
  parallel_opts.morsel_rows = 256;
  Engine serial(serial_opts), parallel(parallel_opts);

  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(42);
  for (std::size_t i = 0; i < 20000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(37)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(100000)));
  }
  serial.catalog().Put("t", t);
  parallel.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                                     {{AggKind::kCount, "", "n"},
                                      {AggKind::kSum, "v", "sum"},
                                      {AggKind::kMin, "v", "lo"},
                                      {AggKind::kMax, "v", "hi"},
                                      {AggKind::kAvg, "v", "mean"}});
  auto a = serial.ExecuteUnoptimized(plan).ValueOrDie();
  auto b = parallel.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(a->num_rows(), 37u);
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  // Chunk-index merge order: parallel group output order is stable
  // run-to-run for a fixed thread count.
  auto c = parallel.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(OrderedRows(*b), OrderedRows(*c));
}

TEST(ParallelExecPlain, RadixAggregationMatchesSerialAtHighCardinality) {
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  EngineOptions radix_opts;
  radix_opts.num_threads = kThreads;
  radix_opts.morsel_rows = 256;
  // Unoptimized plans carry no group estimate; threshold 0 forces the
  // radix form so this test pins its serial/parallel equivalence.
  radix_opts.optimizer.radix_agg_min_groups = 0;
  Engine serial(serial_opts), radix(radix_opts);

  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(97);
  for (std::size_t i = 0; i < 30000; ++i) {
    // ~8000 distinct groups: high cardinality relative to input.
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(8000)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(100000)));
  }
  serial.catalog().Put("t", t);
  radix.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                                     {{AggKind::kCount, "", "n"},
                                      {AggKind::kSum, "v", "sum"},
                                      {AggKind::kMin, "v", "lo"},
                                      {AggKind::kMax, "v", "hi"},
                                      {AggKind::kAvg, "v", "mean"}});
  auto a = serial.ExecuteUnoptimized(plan).ValueOrDie();
  auto b = radix.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
  // Partition-then-chunk merge order: radix output order is stable
  // run-to-run for a fixed thread count.
  auto c = radix.ExecuteUnoptimized(plan).ValueOrDie();
  EXPECT_EQ(OrderedRows(*b), OrderedRows(*c));

  // The optimized path estimates group cardinality and crosses the
  // default threshold on its own once the threshold is in reach.
  radix.set_optimizer_options([] {
    OptimizerOptions o;
    o.radix_agg_min_groups = 1000;  // est = 30000 * 0.1 = 3000 >= 1000
    o.allow_approximate_similarity = false;
    return o;
  }());
  auto optimized = radix.Execute(plan).ValueOrDie();
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*optimized));
}

TEST(ParallelExecPlain, ExplainAnnotatesPipelineSchedulingAndBudget) {
  EngineOptions parallel_opts;
  parallel_opts.num_threads = kThreads;
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  Engine parallel(parallel_opts), serial(serial_opts);
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < 100; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
  }
  parallel.catalog().Put("t", t);
  serial.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Limit(
      PlanNode::Filter(PlanNode::Scan("t"), Gt(Col("x"), Lit(10))), 5);
  const std::string par = parallel.Explain(plan).ValueOrDie();
  EXPECT_NE(par.find("pipelines (dop=" + std::to_string(kThreads) + ")"),
            std::string::npos)
      << par;
  EXPECT_NE(par.find("shared row budget"), std::string::npos) << par;
  EXPECT_NE(par.find("morsel scheduler"), std::string::npos) << par;
  EXPECT_EQ(par.find("inline on the calling thread"), std::string::npos)
      << par;

  const std::string ser = serial.Explain(plan).ValueOrDie();
  EXPECT_NE(ser.find("inline on the calling thread"), std::string::npos)
      << ser;

  // Top-k folding and the sort's parallel form are visible too.
  PlanPtr topk = PlanNode::Limit(
      PlanNode::Sort(PlanNode::Scan("t"), "x", false), 3);
  const std::string topk_explain = parallel.Explain(topk).ValueOrDie();
  EXPECT_NE(topk_explain.find("parallel top-k sort"), std::string::npos)
      << topk_explain;
}

/// Hash embeddings behind a ~5us spin per string: rows slow enough that
/// a morsel sizer driven by observed time would shrink its morsels.
class SlowEmbeddingModel : public EmbeddingModel {
 public:
  std::size_t dim() const override { return inner_.dim(); }
  void Embed(std::string_view text, float* out) const override {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(5);
    while (std::chrono::steady_clock::now() < until) {
    }
    inner_.Embed(text, out);
  }
  std::string name() const override { return "slow"; }

 private:
  HashEmbeddingModel inner_;
};

/// `batches=` of the Scan line in EXPLAIN ANALYZE of a bare 20k-row scan.
/// Each morsel's scan emits one batch (morsels never exceed the
/// configured morsel_rows), so this counts the driver's morsels.
std::size_t ScanMorsels(Engine* engine) {
  const std::string out =
      engine->ExplainAnalyze(PlanNode::Scan("numbers")).ValueOrDie();
  const std::string key = "[rows=20000 batches=";
  const std::size_t at = out.find(key);
  EXPECT_NE(at, std::string::npos) << out;
  if (at == std::string::npos) return 0;
  return std::stoul(out.substr(at + key.size()));
}

TEST(ParallelExecPlain, MorselGeometryDependsOnlyOnRowsDopAndMorselRows) {
  constexpr std::size_t kRows = 20000;
  auto numbers = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < kRows; ++i) {
    numbers->column(0).AppendInt64(static_cast<std::int64_t>(i));
  }
  auto words = Table::Make(Schema({{"w", DataType::kString, 0}}));
  for (std::size_t i = 0; i < 2048; ++i) {
    words->column(0).AppendString("w" + std::to_string(i));
  }
  // morsel = min(morsel_rows, max(1024, ceil(rows / (4 * dop)))) at
  // dop > 1; morsel_rows at dop 1.
  struct Case {
    std::size_t threads;
    std::size_t morsel_rows;
    std::size_t morsels;
  };
  for (const Case c : {Case{kThreads, 8 * 1024, 16},  // 1250-row morsels
                       Case{kThreads, 1000, 20},      // configured < 1024
                       Case{1, 8 * 1024, 3}}) {
    EngineOptions eo;
    eo.num_threads = c.threads;
    eo.morsel_rows = c.morsel_rows;
    Engine engine(eo);
    engine.catalog().Put("numbers", numbers);
    engine.catalog().Put("words", words);
    engine.models().Put("slow", std::make_shared<SlowEmbeddingModel>());
    EXPECT_EQ(ScanMorsels(&engine), c.morsels) << c.threads;

    // Slow rows must not move the geometry.
    for (int q = 0; q < 10; ++q) {
      PlanPtr select = PlanNode::SemanticSelect(PlanNode::Scan("words"), "w",
                                                "w" + std::to_string(q),
                                                "slow", 0.99f);
      ASSERT_TRUE(engine.ExecuteUnoptimized(select).ok());
    }
    EXPECT_EQ(ScanMorsels(&engine), c.morsels) << c.threads;
  }
}

TEST(ParallelExecPlain, GlobalAggregateOverEmptyInput) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  Engine engine(eo);
  auto t = Table::Make(Schema({{"v", DataType::kFloat64, 0}}));
  engine.catalog().Put("empty", t);
  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("empty"), {},
                                     {{AggKind::kCount, "", "n"},
                                      {AggKind::kSum, "v", "sum"}});
  auto out = engine.ExecuteUnoptimized(plan).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 0);
}

/// The newest profile in the engine's ring (the query just run).
std::shared_ptr<const QueryProfile> LastProfile(const Engine& engine) {
  auto profiles = engine.traces();
  EXPECT_FALSE(profiles.empty());
  return profiles.empty() ? nullptr : profiles.front();
}

/// Every node of `plan`, depth first.
void CollectNodes(const PlanNode& plan, std::vector<const PlanNode*>* out) {
  out->push_back(&plan);
  for (const PlanPtr& child : plan.children) CollectNodes(*child, out);
}

TEST(ParallelExecPlain, SortAndAggregateStageTimingsCollected) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  eo.morsel_rows = 512;
  Engine engine(eo);
  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"v", DataType::kFloat64, 0}}));
  Rng rng(5);
  for (std::size_t i = 0; i < 20000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(50)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
  }
  engine.catalog().Put("t", t);

  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Sort(PlanNode::Scan("t"), "v", true), {"k"},
      {{AggKind::kSum, "v", "sum"}});
  ASSERT_TRUE(engine.Execute(plan).ok());
  auto profile = LastProfile(engine);
  ASSERT_NE(profile, nullptr);
  const PlanNode& agg = *profile->plan();
  ASSERT_EQ(agg.kind, PlanKind::kAggregate);
  const PlanNode& sort = *agg.children[0];
  ASSERT_EQ(sort.kind, PlanKind::kSort);
  const NodeProfile* sort_record = profile->node(&sort);
  const NodeProfile* agg_record = profile->node(&agg);
  ASSERT_NE(sort_record, nullptr);
  ASSERT_NE(agg_record, nullptr);
  EXPECT_GT(sort_record->sort_runs, 1u) << profile->ToString();
  EXPECT_GT(sort_record->sort_merge_partitions, 0u);
  EXPECT_GT(sort_record->sort_local_seconds + sort_record->sort_merge_seconds,
            0.0);
  ASSERT_NE(agg_record->agg_mode, nullptr);
  EXPECT_GT(agg_record->agg_accumulate_seconds, 0.0);
  EXPECT_GT(agg_record->agg_merge_seconds, 0.0);
  const std::string text = profile->ToString();
  EXPECT_NE(text.find("local sort ("), std::string::npos) << text;
  EXPECT_NE(text.find("accumulate ("), std::string::npos) << text;
}

/// A 20k-row table with 50 integer keys, for the profile tests below.
TablePtr KeyedItems() {
  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"num", DataType::kFloat64, 0}}));
  Rng rng(17);
  for (std::size_t i = 0; i < 20000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(50)));
    t->column(1).AppendFloat64(static_cast<double>(rng.Uniform(100)));
  }
  return t;
}

/// SELECT k, COUNT(*), SUM(num) FROM items WHERE num > 50 GROUP BY k
PlanPtr KeyedAggregatePlan() {
  return PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("items"), Gt(Col("num"), Lit(50.0))),
      {"k"}, {{AggKind::kCount, "", "n"}, {AggKind::kSum, "num", "total"}});
}

// The profile's times are upper-bounded by the query: no node's self CPU
// is negative, at dop 1 (one thread) the self times cannot add up to more
// than the execution's wall, and no driver step outlasts the execution.
// Upper bounds only, so load on the machine cannot make this flake.
TEST(ParallelExecPlain, ProfileTimesAddUpToTheQuery) {
  auto dims = Table::Make(Schema({{"dk", DataType::kInt64, 0},
                                  {"label", DataType::kInt64, 0}}));
  for (std::int64_t k = 0; k < 50; ++k) {
    dims->column(0).AppendInt64(k);
    dims->column(1).AppendInt64(k * 7);
  }
  const std::vector<PlanPtr> plans = {
      KeyedAggregatePlan(),
      PlanNode::Sort(PlanNode::Join(PlanNode::Scan("items"),
                                    PlanNode::Scan("dims"), "k", "dk"),
                     "num", true)};
  constexpr double kTimerSlack = 1e-6;
  for (std::size_t dop : {1, 2, 4}) {
    EngineOptions eo;
    eo.num_threads = dop;
    Engine engine(eo);
    engine.catalog().Put("items", KeyedItems());
    engine.catalog().Put("dims", dims);
    for (const PlanPtr& plan : plans) {
      for (bool optimize : {false, true}) {
        ASSERT_TRUE((optimize ? engine.Execute(plan)
                              : engine.ExecuteUnoptimized(plan))
                        .ok());
        auto profile = LastProfile(engine);
        ASSERT_NE(profile, nullptr);
        const std::string text = profile->ToString();
        std::vector<const PlanNode*> nodes;
        CollectNodes(*profile->plan(), &nodes);
        double self_sum = 0;
        for (const PlanNode* node : nodes) {
          const NodeProfile* record = profile->node(node);
          ASSERT_NE(record, nullptr);
          if (record->cpu_ns.load() == 0) continue;
          EXPECT_GE(record->SelfSeconds(), -kTimerSlack)
              << "dop " << dop << "\n" << text;
          self_sum += record->SelfSeconds();
        }
        EXPECT_GT(self_sum, 0.0) << text;
        if (dop == 1) {
          EXPECT_LE(self_sum, profile->execute_seconds + kTimerSlack)
              << text;
        }
        ASSERT_FALSE(profile->steps().empty()) << text;
        for (const auto& step : profile->steps()) {
          EXPECT_LE(step.wall_seconds, profile->execute_seconds + kTimerSlack)
              << "dop " << dop << " " << step.name << "\n" << text;
        }
      }
    }
  }
}

// Aggregate chunks follow the morsel-size rule: a 20k-row GROUP BY at
// dop 4 cuts 16 morsels, so all four workers get chunks (configured-size
// 8192-row chunks would give three).
TEST(ParallelExecPlain, SmallAggregateKeepsEveryWorkerBusy) {
  EngineOptions eo;
  eo.num_threads = 4;
  Engine engine(eo);
  engine.catalog().Put("items", KeyedItems());
  const std::string out =
      engine.ExplainAnalyze(KeyedAggregatePlan()).ValueOrDie();
  const std::string key = "dispatched=";
  const std::size_t at = out.find(key);
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_GE(std::stoul(out.substr(at + key.size())), 4u) << out;
}

TEST(ParallelExecPlain, PipelineBreakerClassification) {
  auto scan = PlanNode::Scan("t");
  EXPECT_TRUE(IsPipelineBreaker(*scan));
  EXPECT_TRUE(IsMorselStreamable(*PlanNode::Filter(scan, Gt(Col("x"),
                                                            Lit(1)))));
  EXPECT_TRUE(IsMorselStreamable(
      *PlanNode::Join(scan, PlanNode::Scan("u"), "a", "b")));
  EXPECT_TRUE(IsMorselStreamable(
      *PlanNode::SemanticSelect(scan, "w", "q", "m", 0.9f)));
  EXPECT_TRUE(IsPipelineBreaker(
      *PlanNode::Aggregate(scan, {}, {{AggKind::kCount, "", "n"}})));
  EXPECT_TRUE(IsPipelineBreaker(*PlanNode::Sort(scan, "x", true)));
  EXPECT_TRUE(IsPipelineBreaker(*PlanNode::Limit(scan, 5)));
  EXPECT_TRUE(
      IsPipelineBreaker(*PlanNode::SemanticGroupBy(scan, "w", "m", 0.9f)));

  // Filter -> join-probe -> filter over one base scan is one segment.
  PlanPtr plan = PlanNode::Filter(
      PlanNode::Join(PlanNode::Filter(scan, Gt(Col("x"), Lit(1))),
                     PlanNode::Scan("u"), "a", "b"),
      Lt(Col("y"), Lit(9)));
  PipelineSegment segment = DecomposePipeline(*plan);
  EXPECT_EQ(segment.source, scan.get());
  ASSERT_EQ(segment.ops.size(), 3u);
  EXPECT_EQ(segment.ops[1]->kind, PlanKind::kJoin);
}

TEST(ParallelExecPlain, ProfileCountsRowsUnderParallelDriver) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  eo.morsel_rows = 128;
  Engine engine(eo);
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < 5000; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
  }
  engine.catalog().Put("numbers", t);
  QueryBuilder qb(&engine);
  qb.Scan("numbers").Filter(Gt(Col("x"), Lit(2499)));
  auto table = engine.Execute(qb.plan()).ValueOrDie();
  EXPECT_EQ(table->num_rows(), 2500u);
  // Per-morsel operator instances share one record per plan node; row
  // counts must still total exactly despite concurrent updates. The
  // optimizer pushes the predicate into the scan, so the Scan's record
  // counts the filtered rows.
  auto profile = LastProfile(engine);
  ASSERT_NE(profile, nullptr);
  std::vector<const PlanNode*> nodes;
  CollectNodes(*profile->plan(), &nodes);
  bool found_scan = false;
  for (const PlanNode* node : nodes) {
    if (node->kind != PlanKind::kScan) continue;
    found_scan = true;
    EXPECT_NE(node->predicate, nullptr);
    EXPECT_EQ(profile->node(node)->rows.load(), 2500u);
  }
  EXPECT_TRUE(found_scan);
}

}  // namespace
}  // namespace cre
