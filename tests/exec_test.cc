#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/parallel_sort.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "plan/plan_node.h"

namespace cre {
namespace {

TablePtr Products() {
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                               {"label", DataType::kString, 0},
                               {"price", DataType::kFloat64, 0}}));
  t->AppendRow({Value(1), Value("coat"), Value(30.0)}).Check();
  t->AppendRow({Value(2), Value("lamp"), Value(12.0)}).Check();
  t->AppendRow({Value(3), Value("boot"), Value(55.0)}).Check();
  t->AppendRow({Value(4), Value("coat"), Value(8.0)}).Check();
  return t;
}

TablePtr Sales() {
  auto t = Table::Make(Schema({{"sale_id", DataType::kInt64, 0},
                               {"pid", DataType::kInt64, 0},
                               {"qty", DataType::kInt64, 0}}));
  t->AppendRow({Value(100), Value(1), Value(2)}).Check();
  t->AppendRow({Value(101), Value(3), Value(1)}).Check();
  t->AppendRow({Value(102), Value(1), Value(5)}).Check();
  t->AppendRow({Value(103), Value(9), Value(1)}).Check();  // dangling pid
  return t;
}

TEST(ScanTest, SingleBatchSharesTable) {
  auto table = Products();
  TableScanOperator scan(table);
  ASSERT_TRUE(scan.Open().ok());
  auto batch = scan.Next().ValueOrDie();
  EXPECT_EQ(batch.get(), table.get());  // zero-copy fast path
  EXPECT_EQ(scan.Next().ValueOrDie(), nullptr);
}

TEST(ScanTest, BatchesCoverAllRows) {
  auto table = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 10; ++i) table->AppendRow({Value(i)}).Check();
  TableScanOperator scan(table, /*batch_size=*/3);
  ASSERT_TRUE(scan.Open().ok());
  std::size_t total = 0, batches = 0;
  for (;;) {
    auto b = scan.Next().ValueOrDie();
    if (b == nullptr) break;
    total += b->num_rows();
    ++batches;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(batches, 4u);
}

TEST(FilterTest, KeepsMatchingRows) {
  FilterOperator filter(std::make_unique<TableScanOperator>(Products()),
                        Gt(Col("price"), Lit(20.0)));
  auto out = ExecuteToTable(&filter).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->GetValue(0, 1).AsString(), "coat");
  EXPECT_EQ(out->GetValue(1, 1).AsString(), "boot");
}

TEST(FilterTest, EmptyResult) {
  FilterOperator filter(std::make_unique<TableScanOperator>(Products()),
                        Gt(Col("price"), Lit(1000.0)));
  auto out = ExecuteToTable(&filter).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(ProjectTest, KeepColumns) {
  auto op = ProjectOperator::KeepColumns(
      std::make_unique<TableScanOperator>(Products()), {"label", "price"});
  auto out = ExecuteToTable(op.get()).ValueOrDie();
  EXPECT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema().field(0).name, "label");
  EXPECT_EQ(out->GetValue(2, 0).AsString(), "boot");
}

TEST(ProjectTest, ComputedColumn) {
  std::vector<ProjectionItem> items = {
      {"id", Col("id")},
      {"double_price", Expr::Arith(ArithOp::kMul, Col("price"), Lit(2.0))}};
  ProjectOperator project(std::make_unique<TableScanOperator>(Products()),
                          items);
  auto out = ExecuteToTable(&project).ValueOrDie();
  EXPECT_EQ(out->schema().field(1).type, DataType::kFloat64);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 1).AsFloat64(), 60.0);
}

TEST(ProjectTest, RenameViaColumnRef) {
  std::vector<ProjectionItem> items = {{"product_label", Col("label")}};
  ProjectOperator project(std::make_unique<TableScanOperator>(Products()),
                          items);
  auto out = ExecuteToTable(&project).ValueOrDie();
  EXPECT_EQ(out->schema().field(0).name, "product_label");
  EXPECT_EQ(out->schema().field(0).type, DataType::kString);
}

TEST(ProjectTest, MissingColumnFailsAtOpen) {
  std::vector<ProjectionItem> items = {{"x", Col("missing")}};
  ProjectOperator project(std::make_unique<TableScanOperator>(Products()),
                          items);
  EXPECT_TRUE(project.Open().IsNotFound());
}

/// Probe-only join of `left` against a HashJoinTable built over `right`.
std::unique_ptr<HashJoinOperator> ProbeJoin(TablePtr left, TablePtr right,
                                            const std::string& left_key,
                                            const std::string& right_key) {
  auto build = HashJoinTable::Build(std::move(right), right_key).ValueOrDie();
  return std::make_unique<HashJoinOperator>(
      std::make_unique<TableScanOperator>(std::move(left)), std::move(build),
      left_key, right_key);
}

/// Runs a plan as written on a single-worker engine over "products",
/// "sales" and, when given, "extra".
Result<TablePtr> RunSerial(const PlanPtr& plan, TablePtr extra = nullptr,
                           std::size_t morsel_rows = 8 * 1024) {
  EngineOptions options;
  options.num_threads = 1;
  options.morsel_rows = morsel_rows;
  Engine engine(options);
  engine.catalog().Put("products", Products());
  engine.catalog().Put("sales", Sales());
  if (extra != nullptr) engine.catalog().Put("extra", std::move(extra));
  return engine.ExecuteUnoptimized(plan);
}

TEST(HashJoinTest, InnerJoinIntKeys) {
  auto join = ProbeJoin(Sales(), Products(), "pid", "id");
  auto out = ExecuteToTable(join.get()).ValueOrDie();
  // sale 100 -> product 1, 101 -> 3, 102 -> 1; 103 dangles.
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_TRUE(out->schema().HasField("label"));
  EXPECT_TRUE(out->schema().HasField("sale_id"));
}

TEST(HashJoinTest, DuplicateNameSuffixed) {
  auto join = ProbeJoin(Products(), Products(), "id", "id");
  ASSERT_TRUE(join->Open().ok());
  EXPECT_TRUE(join->output_schema().HasField("id"));
  EXPECT_TRUE(join->output_schema().HasField("id_r"));
  EXPECT_TRUE(join->output_schema().HasField("label_r"));
}

TEST(HashJoinTest, StringKeys) {
  auto left = Table::Make(Schema({{"k", DataType::kString, 0}}));
  left->AppendRow({Value("a")}).Check();
  left->AppendRow({Value("b")}).Check();
  auto right = Table::Make(Schema({{"k2", DataType::kString, 0},
                                   {"v", DataType::kInt64, 0}}));
  right->AppendRow({Value("b"), Value(10)}).Check();
  right->AppendRow({Value("b"), Value(20)}).Check();
  auto join = ProbeJoin(left, right, "k", "k2");
  auto out = ExecuteToTable(join.get()).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);  // "b" matches twice
}

TEST(HashJoinTest, TypeMismatchFails) {
  auto join = ProbeJoin(Products(), Sales(), "label", "pid");
  ASSERT_TRUE(join->Open().ok());
  auto r = join->Next();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

/// Accumulates `input` into one GroupedAggregationState and finalizes it.
Result<TablePtr> AggregateAll(const TablePtr& input,
                              std::vector<std::string> group_keys,
                              std::vector<AggSpec> aggs) {
  GroupedAggregationState state;
  CRE_RETURN_NOT_OK(
      state.Init(input->schema(), std::move(group_keys), std::move(aggs)));
  CRE_RETURN_NOT_OK(state.Consume(*input));
  return state.Finalize();
}

TEST(AggregateTest, GroupByWithAggs) {
  auto out = AggregateAll(Products(), {"label"},
                          {{AggKind::kCount, "", "n"},
                           {AggKind::kSum, "price", "total"},
                           {AggKind::kMin, "price", "cheapest"},
                           {AggKind::kMax, "price", "dearest"},
                           {AggKind::kAvg, "price", "avg_price"}})
                 .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3u);  // coat, lamp, boot
  // Find the coat row.
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    if (out->GetValue(r, 0).AsString() == "coat") {
      EXPECT_EQ(out->GetValue(r, 1).AsInt64(), 2);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 2).AsFloat64(), 38.0);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 3).AsFloat64(), 8.0);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 4).AsFloat64(), 30.0);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 5).AsFloat64(), 19.0);
    }
  }
}

TEST(AggregateTest, GlobalAggregateNoKeys) {
  auto out =
      AggregateAll(Products(), {}, {{AggKind::kCount, "", "n"}}).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 4);
}

TEST(AggregateTest, MissingAggColumnFails) {
  GroupedAggregationState state;
  EXPECT_TRUE(state.Init(Products()->schema(), {},
                         {{AggKind::kSum, "missing", "s"}})
                  .IsNotFound());
}

TEST(SortTest, AscendingAndDescending) {
  auto out = SortTable(Products(), "price", true, nullptr).ValueOrDie();
  EXPECT_DOUBLE_EQ(out->GetValue(0, 2).AsFloat64(), 8.0);
  EXPECT_DOUBLE_EQ(out->GetValue(3, 2).AsFloat64(), 55.0);

  auto out2 = SortTable(Products(), "price", false, nullptr).ValueOrDie();
  EXPECT_DOUBLE_EQ(out2->GetValue(0, 2).AsFloat64(), 55.0);
}

TEST(SortTest, StringKey) {
  auto out = SortTable(Products(), "label", true, nullptr).ValueOrDie();
  EXPECT_EQ(out->GetValue(0, 1).AsString(), "boot");
}

TEST(LimitTest, TruncatesOutput) {
  auto out =
      RunSerial(PlanNode::Limit(PlanNode::Scan("products"), 2)).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(LimitTest, LimitLargerThanInput) {
  auto out =
      RunSerial(PlanNode::Limit(PlanNode::Scan("products"), 99)).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST(LimitTest, AcrossBatches) {
  auto table = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 100; ++i) table->AppendRow({Value(i)}).Check();
  // 16-row morsels: the single worker pulls 16-row scan batches.
  auto out = RunSerial(PlanNode::Limit(PlanNode::Scan("extra"), 40), table,
                       /*morsel_rows=*/16)
                 .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 40u);
  EXPECT_EQ(out->GetValue(39, 0).AsInt64(), 39);
}

TEST(PipelineTest, ScanFilterProjectJoinAggregate) {
  // Full relational pipeline: sales joined to products over 20, count per
  // label.
  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Join(PlanNode::Scan("sales"),
                     PlanNode::Filter(PlanNode::Scan("products"),
                                      Gt(Col("price"), Lit(20.0))),
                     "pid", "id"),
      {"label"}, {{AggKind::kSum, "qty", "total_qty"}});
  auto out = RunSerial(plan).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2u);
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    const std::string label = out->GetValue(r, 0).AsString();
    const double qty = out->GetValue(r, 1).AsFloat64();
    if (label == "coat") {
      EXPECT_DOUBLE_EQ(qty, 7.0);
    }
    if (label == "boot") {
      EXPECT_DOUBLE_EQ(qty, 1.0);
    }
  }
}

}  // namespace
}  // namespace cre
