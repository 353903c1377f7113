#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"

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

TEST(HashJoinTest, InnerJoinIntKeys) {
  HashJoinOperator join(std::make_unique<TableScanOperator>(Sales()),
                        std::make_unique<TableScanOperator>(Products()),
                        "pid", "id");
  auto out = ExecuteToTable(&join).ValueOrDie();
  // sale 100 -> product 1, 101 -> 3, 102 -> 1; 103 dangles.
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_TRUE(out->schema().HasField("label"));
  EXPECT_TRUE(out->schema().HasField("sale_id"));
}

TEST(HashJoinTest, DuplicateNameSuffixed) {
  HashJoinOperator join(std::make_unique<TableScanOperator>(Products()),
                        std::make_unique<TableScanOperator>(Products()),
                        "id", "id");
  ASSERT_TRUE(join.Open().ok());
  EXPECT_TRUE(join.output_schema().HasField("id"));
  EXPECT_TRUE(join.output_schema().HasField("id_r"));
  EXPECT_TRUE(join.output_schema().HasField("label_r"));
}

TEST(HashJoinTest, StringKeys) {
  auto left = Table::Make(Schema({{"k", DataType::kString, 0}}));
  left->AppendRow({Value("a")}).Check();
  left->AppendRow({Value("b")}).Check();
  auto right = Table::Make(Schema({{"k2", DataType::kString, 0},
                                   {"v", DataType::kInt64, 0}}));
  right->AppendRow({Value("b"), Value(10)}).Check();
  right->AppendRow({Value("b"), Value(20)}).Check();
  HashJoinOperator join(std::make_unique<TableScanOperator>(left),
                        std::make_unique<TableScanOperator>(right), "k", "k2");
  auto out = ExecuteToTable(&join).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);  // "b" matches twice
}

TEST(HashJoinTest, TypeMismatchFails) {
  HashJoinOperator join(std::make_unique<TableScanOperator>(Products()),
                        std::make_unique<TableScanOperator>(Sales()),
                        "label", "pid");
  ASSERT_TRUE(join.Open().ok());
  auto r = join.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

TEST(AggregateTest, GroupByWithAggs) {
  AggregateOperator agg(
      std::make_unique<TableScanOperator>(Products()), {"label"},
      {{AggKind::kCount, "", "n"},
       {AggKind::kSum, "price", "total"},
       {AggKind::kMin, "price", "cheapest"},
       {AggKind::kMax, "price", "dearest"},
       {AggKind::kAvg, "price", "avg_price"}});
  auto out = ExecuteToTable(&agg).ValueOrDie();
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
  AggregateOperator agg(std::make_unique<TableScanOperator>(Products()), {},
                        {{AggKind::kCount, "", "n"}});
  auto out = ExecuteToTable(&agg).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 4);
}

TEST(AggregateTest, MissingAggColumnFails) {
  AggregateOperator agg(std::make_unique<TableScanOperator>(Products()), {},
                        {{AggKind::kSum, "missing", "s"}});
  EXPECT_TRUE(agg.Open().IsNotFound());
}

TEST(SortTest, AscendingAndDescending) {
  SortOperator asc(std::make_unique<TableScanOperator>(Products()), "price",
                   true);
  auto out = ExecuteToTable(&asc).ValueOrDie();
  EXPECT_DOUBLE_EQ(out->GetValue(0, 2).AsFloat64(), 8.0);
  EXPECT_DOUBLE_EQ(out->GetValue(3, 2).AsFloat64(), 55.0);

  SortOperator desc(std::make_unique<TableScanOperator>(Products()), "price",
                    false);
  auto out2 = ExecuteToTable(&desc).ValueOrDie();
  EXPECT_DOUBLE_EQ(out2->GetValue(0, 2).AsFloat64(), 55.0);
}

TEST(SortTest, StringKey) {
  SortOperator sort(std::make_unique<TableScanOperator>(Products()), "label",
                    true);
  auto out = ExecuteToTable(&sort).ValueOrDie();
  EXPECT_EQ(out->GetValue(0, 1).AsString(), "boot");
}

TEST(LimitTest, TruncatesOutput) {
  LimitOperator limit(std::make_unique<TableScanOperator>(Products()), 2);
  auto out = ExecuteToTable(&limit).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(LimitTest, LimitLargerThanInput) {
  LimitOperator limit(std::make_unique<TableScanOperator>(Products()), 99);
  auto out = ExecuteToTable(&limit).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST(LimitTest, AcrossBatches) {
  auto table = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 100; ++i) table->AppendRow({Value(i)}).Check();
  LimitOperator limit(std::make_unique<TableScanOperator>(table, 16), 40);
  auto out = ExecuteToTable(&limit).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 40u);
  EXPECT_EQ(out->GetValue(39, 0).AsInt64(), 39);
}

TEST(PipelineTest, ScanFilterProjectJoinAggregate) {
  // Full relational pipeline: sales joined to products over 20, count per
  // label.
  auto scan_sales = std::make_unique<TableScanOperator>(Sales());
  auto scan_products = std::make_unique<TableScanOperator>(Products());
  auto filtered = std::make_unique<FilterOperator>(std::move(scan_products),
                                                   Gt(Col("price"), Lit(20.0)));
  auto join = std::make_unique<HashJoinOperator>(
      std::move(scan_sales), std::move(filtered), "pid", "id");
  AggregateOperator agg(std::move(join), {"label"},
                        {{AggKind::kSum, "qty", "total_qty"}});
  auto out = ExecuteToTable(&agg).ValueOrDie();
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
