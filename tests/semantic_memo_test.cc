// The scanning semantic selects' per-query match memo: each distinct
// column value embeds once per query at dop 1 and at most once per worker
// at higher dop, answers stay byte-identical to the unoptimized serial
// execution, and the memo's governor accounting stops growth on a breach
// without changing the answer.

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/resource_governor.h"
#include "core/rng.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "expr/expr.h"
#include "plan/plan_node.h"
#include "semantic/semantic_select.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

constexpr float kThreshold = 0.7f;
constexpr std::size_t kRows = 20000;
constexpr std::size_t kVocabulary = 1500;
const char* const kQuery = "w_12";

/// Counts every string the engine sends through the model.
class CountingModel : public EmbeddingModel {
 public:
  explicit CountingModel(EmbeddingModelPtr inner) : inner_(std::move(inner)) {}

  std::size_t dim() const override { return inner_->dim(); }
  std::string name() const override { return "counting:" + inner_->name(); }
  void Embed(std::string_view text, float* out) const override {
    strings_.fetch_add(1, std::memory_order_relaxed);
    inner_->Embed(text, out);
  }
  void EmbedBatch(const std::vector<std::string>& texts,
                  float* out) const override {
    strings_.fetch_add(texts.size(), std::memory_order_relaxed);
    inner_->EmbedBatch(texts, out);
  }

  std::size_t strings() const {
    return strings_.load(std::memory_order_relaxed);
  }
  void Reset() { strings_.store(0, std::memory_order_relaxed); }

 private:
  EmbeddingModelPtr inner_;
  mutable std::atomic<std::size_t> strings_{0};
};

/// `word` drawn Zipf(1.0) from w_0..w_{kVocabulary-1}; `num` = row index.
TablePtr ZipfTable() {
  Rng rng(11);
  Zipf zipf(kVocabulary, 1.0);
  auto table = Table::Make(Schema({{"word", DataType::kString, 0},
                                   {"num", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<Value> row;
    row.emplace_back("w_" + std::to_string(zipf.Sample(rng)));
    row.emplace_back(static_cast<std::int64_t>(i));
    table->AppendRow(row).Check();
  }
  return table;
}

std::size_t DistinctWords(const Table& table) {
  const auto& words = table.ColumnByName("word").ValueOrDie()->strings();
  return std::set<std::string>(words.begin(), words.end()).size();
}

std::vector<std::string> Rows(const Table& table) {
  std::vector<std::string> rows;
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

class SemanticMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = ZipfTable();
    model_ = std::make_shared<CountingModel>(
        std::make_shared<HashEmbeddingModel>());
  }

  std::unique_ptr<Engine> MakeEngine(std::size_t threads) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.morsel_rows = 1024;  // ~20 morsels over the table
    auto engine = std::make_unique<Engine>(eo);
    engine->catalog().Put("docs", table_);
    engine->models().Put("m", model_);
    return engine;
  }

  PlanPtr SingleSelect() const {
    return PlanNode::SemanticSelect(PlanNode::Scan("docs"), "word", kQuery,
                                    "m", kThreshold);
  }
  /// The data-induced-predicate form: match any of several queries.
  PlanPtr MultiSelect() const {
    PlanPtr plan = SingleSelect();
    plan->queries = {"w_12", "w_7", "w_300"};
    return plan;
  }
  /// A select over a filter the optimizer pushes into the scan.
  PlanPtr SelectOverFilter() const {
    return PlanNode::SemanticSelect(
        PlanNode::Filter(PlanNode::Scan("docs"),
                         Gt(Col("num"), Lit(static_cast<std::int64_t>(7000)))),
        "word", kQuery, "m", kThreshold);
  }

  TablePtr table_;
  std::shared_ptr<CountingModel> model_;
};

TEST_F(SemanticMemoTest, EmbedsEachDistinctValueOncePerWorker) {
  const std::size_t distinct = DistinctWords(*table_);
  ASSERT_GT(distinct, 500u);
  for (const std::size_t dop : {1u, 2u, 4u}) {
    auto engine = MakeEngine(dop);
    model_->Reset();
    auto result = engine->ExecuteUnoptimized(SingleSelect());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // One string is the query constant; the rest are column values.
    const std::size_t column_strings = model_->strings() - 1;
    if (dop == 1) {
      EXPECT_EQ(column_strings, distinct);
    } else {
      EXPECT_LE(column_strings, dop * distinct) << "dop " << dop;
      EXPECT_GE(column_strings, distinct) << "dop " << dop;
    }
  }
}

TEST_F(SemanticMemoTest, ResultsMatchUnoptimizedSerialExecution) {
  auto serial = MakeEngine(1);
  const std::vector<PlanPtr> plans = {SingleSelect(), MultiSelect(),
                                      SelectOverFilter()};
  std::vector<std::vector<std::string>> expected;
  for (const PlanPtr& plan : plans) {
    auto reference = serial->ExecuteUnoptimized(plan);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    expected.push_back(Rows(*reference.ValueOrDie()));
    EXPECT_GT(expected.back().size(), 0u);
    EXPECT_LT(expected.back().size(), kRows);
  }
  for (const std::size_t dop : {1u, 2u, 4u}) {
    auto engine = MakeEngine(dop);
    for (std::size_t p = 0; p < plans.size(); ++p) {
      auto got = engine->Execute(plans[p]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Rows(*got.ValueOrDie()), expected[p])
          << "plan " << p << " dop " << dop;
    }
  }
}

TEST_F(SemanticMemoTest, SingleSelectMatchesRowByRowOracle) {
  // Embeds and scores every row on its own, with the engine's kernel.
  const HashEmbeddingModel plain;
  const std::vector<float> query = plain.EmbedToVector(kQuery);
  const DotFn dot = GetDotKernel(BestKernelVariant());
  const auto& words = table_->ColumnByName("word").ValueOrDie()->strings();
  std::vector<std::string> oracle;
  for (const std::string& w : words) {
    const std::vector<float> v = plain.EmbedToVector(w);
    if (dot(v.data(), query.data(), v.size()) >= kThreshold) {
      oracle.push_back(w);
    }
  }
  auto engine = MakeEngine(4);
  auto got = engine->Execute(SingleSelect());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const auto& kept = got.ValueOrDie()->ColumnByName("word").ValueOrDie();
  EXPECT_EQ(kept->strings(), oracle);
}

TEST(MatchMemoTest, LookupSeesPublishedBits) {
  MatchMemo memo;
  std::vector<std::int8_t> bits;
  memo.Lookup({"a", "b"}, &bits);
  EXPECT_EQ(bits, (std::vector<std::int8_t>{MatchMemo::kUnknown,
                                            MatchMemo::kUnknown}));
  memo.Publish({"a", "b"}, {1, 0});
  memo.Publish({"a"}, {1});  // a second worker's late duplicate
  memo.Lookup({"b", "c", "a"}, &bits);
  EXPECT_EQ(bits, (std::vector<std::int8_t>{0, MatchMemo::kUnknown, 1}));
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_FALSE(memo.full());
}

TEST(MatchMemoTest, ChargesTheBudgetAndStopsGrowingOnBreach) {
  auto budget = std::make_shared<QueryBudget>(nullptr, 1024);
  {
    MatchMemo memo(budget);
    memo.Publish({"a", "b"}, {1, 0});
    EXPECT_EQ(memo.size(), 2u);
    const std::size_t charged = budget->charged_bytes();
    EXPECT_GT(charged, 0u);
    memo.Publish({"a"}, {1});  // duplicate: charge returned
    EXPECT_EQ(budget->charged_bytes(), charged);

    std::vector<std::string> many;
    for (int i = 0; i < 100; ++i) many.push_back("word_" + std::to_string(i));
    memo.Publish(many, std::vector<std::int8_t>(many.size(), 1));
    EXPECT_TRUE(memo.full());
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(budget->charged_bytes(), charged);

    // Still answers what it holds, and takes nothing new once full.
    memo.Publish({"c"}, {1});
    std::vector<std::int8_t> bits;
    memo.Lookup({"a", "c"}, &bits);
    EXPECT_EQ(bits, (std::vector<std::int8_t>{1, MatchMemo::kUnknown}));
  }
  EXPECT_EQ(budget->charged_bytes(), 0u);
}

}  // namespace
}  // namespace cre
