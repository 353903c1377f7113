// Tests for execution extensions: per-node query profiles, morsel-driven
// parallel execution, and sampling operators.

#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "datagen/shop.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "engine/query_profile.h"
#include "exec/filter.h"
#include "exec/morsel.h"
#include "exec/project.h"
#include "exec/sample.h"
#include "exec/scan.h"

namespace cre {
namespace {

TablePtr Numbers(std::size_t n) {
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0},
                               {"y", DataType::kFloat64, 0}}));
  t->Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
    t->column(1).AppendFloat64(static_cast<double>(i) * 0.5);
  }
  return t;
}

TEST(ProfileTest, ProfiledOperatorCounts) {
  PlanPtr plan = PlanNode::Scan("numbers");
  QueryProfile profile(1, "unit");
  profile.Bind(plan);
  NodeProfile* record = profile.node(plan.get());
  ASSERT_NE(record, nullptr);
  auto table = Numbers(1000);
  ProfiledOperator op(std::make_unique<TableScanOperator>(table, 128), record,
                      /*wall=*/false);
  auto out = ExecuteToTable(&op).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 1000u);
  EXPECT_EQ(record->rows, 1000u);
  EXPECT_EQ(record->batches, 8u);
  EXPECT_GE(record->InclusiveSeconds(), 0.0);
  EXPECT_EQ(record->SelfSeconds(), record->InclusiveSeconds());
  EXPECT_NE(profile.ToString().find("Scan"), std::string::npos);
}

TEST(ProfileTest, EngineExecuteRecordsProfile) {
  Engine engine;
  engine.catalog().Put("numbers", Numbers(5000));
  QueryBuilder qb(&engine);
  qb.Scan("numbers").Filter(Gt(Col("x"), Lit(2499)));
  auto table = engine.Execute(qb.plan()).ValueOrDie();
  EXPECT_EQ(table->num_rows(), 2500u);
  auto profiles = engine.traces();
  ASSERT_FALSE(profiles.empty());
  const QueryProfile& profile = *profiles.front();
  EXPECT_GT(profile.execute_seconds, 0.0);
  // The optimizer pushes the predicate into the scan, which lowers to a
  // Filter-over-scan pipeline recorded as the one Scan node.
  const PlanNode& scan = *profile.plan();
  ASSERT_EQ(scan.kind, PlanKind::kScan);
  EXPECT_NE(scan.predicate, nullptr);
  EXPECT_EQ(profile.node(&scan)->rows, 2500u);
}

TEST(MorselTest, SerialAndParallelAgree) {
  auto table = Numbers(50000);
  auto builder = [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
    return OperatorPtr(std::make_unique<FilterOperator>(
        std::make_unique<TableScanOperator>(morsel),
        Eq(Expr::Arith(ArithOp::kMul, Col("x"), Lit(1)), Col("x"))));
  };
  MorselOptions serial;
  auto a = MorselParallelMap(table, builder, serial).ValueOrDie();

  ThreadPool pool(4);
  MorselOptions parallel;
  parallel.pool = &pool;
  parallel.morsel_rows = 4096;
  auto b = MorselParallelMap(table, builder, parallel).ValueOrDie();

  ASSERT_EQ(a->num_rows(), b->num_rows());
  // Morsel order preserved: outputs are identical, row by row.
  for (std::size_t i = 0; i < a->num_rows(); i += 997) {
    EXPECT_EQ(a->GetValue(i, 0).AsInt64(), b->GetValue(i, 0).AsInt64());
  }
}

TEST(MorselTest, ParallelFilterKeepsOnlyMatches) {
  auto table = Numbers(10000);
  ThreadPool pool(4);
  MorselOptions options;
  options.pool = &pool;
  options.morsel_rows = 1000;
  auto result =
      MorselParallelMap(
          table,
          [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
            return OperatorPtr(std::make_unique<FilterOperator>(
                std::make_unique<TableScanOperator>(morsel),
                Lt(Col("x"), Lit(100))));
          },
          options)
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 100u);
}

TEST(MorselTest, BuilderSeesMorselIndexInOrder) {
  auto table = Numbers(10000);
  ThreadPool pool(4);
  MorselOptions options;
  options.pool = &pool;
  options.morsel_rows = 1000;
  std::mutex mu;
  std::set<std::size_t> seen;
  auto result =
      MorselParallelMap(
          table,
          [&](std::size_t index,
              const TablePtr& morsel) -> Result<OperatorPtr> {
            {
              std::lock_guard<std::mutex> lock(mu);
              seen.insert(index);
            }
            return OperatorPtr(std::make_unique<TableScanOperator>(morsel));
          },
          options)
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 10000u);
  EXPECT_EQ(seen.size(), 10u);  // one builder call per morsel
}

TEST(MorselTest, EmptyInput) {
  auto table = Numbers(0);
  ThreadPool pool(2);
  MorselOptions options;
  options.pool = &pool;
  auto result =
      MorselParallelMap(
          table,
          [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
            return OperatorPtr(std::make_unique<TableScanOperator>(morsel));
          },
          options)
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(MorselTest, ErrorPropagates) {
  auto table = Numbers(10000);
  ThreadPool pool(2);
  MorselOptions options;
  options.pool = &pool;
  options.morsel_rows = 1000;
  auto result = MorselParallelMap(
      table,
      [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
        return OperatorPtr(std::make_unique<FilterOperator>(
            std::make_unique<TableScanOperator>(morsel),
            Gt(Col("missing_column"), Lit(1))));
      },
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(SampleTest, BernoulliRateApproximate) {
  auto table = Numbers(20000);
  SampleOperator op(std::make_unique<TableScanOperator>(table, 1024), 0.1);
  auto out = ExecuteToTable(&op).ValueOrDie();
  EXPECT_NEAR(static_cast<double>(out->num_rows()), 2000.0, 300.0);
}

TEST(SampleTest, DeterministicAcrossRuns) {
  auto table = Numbers(5000);
  SampleOperator a(std::make_unique<TableScanOperator>(table), 0.25, 99);
  SampleOperator b(std::make_unique<TableScanOperator>(table), 0.25, 99);
  auto ra = ExecuteToTable(&a).ValueOrDie();
  auto rb = ExecuteToTable(&b).ValueOrDie();
  ASSERT_EQ(ra->num_rows(), rb->num_rows());
  for (std::size_t i = 0; i < ra->num_rows(); i += 101) {
    EXPECT_EQ(ra->GetValue(i, 0).AsInt64(), rb->GetValue(i, 0).AsInt64());
  }
}

TEST(SampleTest, RateZeroAndOne) {
  auto table = Numbers(1000);
  SampleOperator none(std::make_unique<TableScanOperator>(table), 0.0);
  EXPECT_EQ(ExecuteToTable(&none).ValueOrDie()->num_rows(), 0u);
  SampleOperator all(std::make_unique<TableScanOperator>(table), 1.0);
  EXPECT_EQ(ExecuteToTable(&all).ValueOrDie()->num_rows(), 1000u);
}

TEST(ReservoirTest, ExactSizeAndMembership) {
  auto table = Numbers(1000);
  auto sample = ReservoirSample(*table, 50);
  ASSERT_EQ(sample->num_rows(), 50u);
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < 50; ++i) {
    const auto v = sample->GetValue(i, 0).AsInt64();
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
    EXPECT_TRUE(seen.insert(v).second) << "duplicate row in reservoir";
  }
}

TEST(ReservoirTest, SmallTableReturnsAll) {
  auto table = Numbers(5);
  auto sample = ReservoirSample(*table, 50);
  EXPECT_EQ(sample->num_rows(), 5u);
}

TEST(ReservoirTest, RoughlyUniform) {
  auto table = Numbers(1000);
  // Mean of sampled ids over many seeds should approach 499.5.
  double mean = 0;
  const int runs = 50;
  for (int seed = 0; seed < runs; ++seed) {
    auto sample = ReservoirSample(*table, 20, seed);
    for (std::size_t i = 0; i < sample->num_rows(); ++i) {
      mean += static_cast<double>(sample->GetValue(i, 0).AsInt64());
    }
  }
  mean /= runs * 20;
  EXPECT_NEAR(mean, 499.5, 60.0);
}

}  // namespace
}  // namespace cre
