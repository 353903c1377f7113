// Serving-layer tests: N concurrent Engine::Execute calls over one engine
// must (1) actually overlap in time, (2) return byte-identical results to
// running the same queries one at a time, (3) never mix two versions of a
// table inside one query even while a writer replaces it mid-flight
// (QueryContext snapshot pinning), (4) serve cold semantic queries
// through the brute-force fallback while the managed index builds in the
// background, and (5) unwind cooperatively when cancelled. All of this
// runs under TSan in CI like the other parallel tests.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/engine.h"
#include "engine/query_context.h"

namespace cre {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kMorselRows = 512;

/// Ordered row rendering: byte-identity means equal vectors.
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

class ConcurrentServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VocabularyOptions vo;
    vo.num_groups = 10;
    vo.words_per_group = 3;
    vo.num_singletons = 15;
    vo.seed = 77;
    groups_ = GenerateVocabulary(vo);
    SynonymStructuredModel::Options mo;
    mo.subword_noise = false;
    model_ = std::make_shared<SynonymStructuredModel>(groups_, mo);
    words_ = AllWords(groups_);

    Rng rng(4242);
    big_ = RandomTable(rng, 6000);
    small_ = RandomTable(rng, 300);
  }

  std::unique_ptr<Engine> MakeEngine(std::size_t threads,
                                     bool async_builds = false) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.morsel_rows = kMorselRows;
    eo.optimizer.allow_approximate_similarity = false;
    eo.index.async_builds = async_builds;
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
      t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
      t->column(3).AppendInt64(static_cast<std::int64_t>(rng.Uniform(4)));
    }
    return t;
  }

  /// A fixed mixed workload covering every driver path: relational
  /// (filter/join/aggregate/sort/limit) and semantic (select, join).
  std::vector<PlanPtr> WorkloadPlans() {
    std::vector<PlanPtr> plans;
    plans.push_back(PlanNode::Filter(PlanNode::Scan("big"),
                                     Gt(Col("num"), Lit(500.0))));
    plans.push_back(
        PlanNode::Join(PlanNode::Scan("big"), PlanNode::Scan("small"),
                       "id", "id"));
    plans.push_back(PlanNode::Aggregate(
        PlanNode::Scan("big"), {"flag"},
        {{AggKind::kCount, "", "n"},
         {AggKind::kSum, "num", "total"},
         {AggKind::kMax, "num", "hi"}}));
    plans.push_back(
        PlanNode::Sort(PlanNode::Scan("big"), "num", /*ascending=*/true));
    plans.push_back(
        PlanNode::Limit(PlanNode::Filter(PlanNode::Scan("big"),
                                         Gt(Col("num"), Lit(200.0))),
                        700));
    plans.push_back(PlanNode::SemanticSelect(PlanNode::Scan("big"), "word",
                                             words_[0], "m", 0.85f));
    plans.push_back(PlanNode::SemanticJoin(
        PlanNode::Filter(PlanNode::Scan("big"), Le(Col("num"), Lit(80.0))),
        PlanNode::Scan("small"), "word", "word", "m", 0.9f));
    return plans;
  }

  std::vector<SynonymGroup> groups_;
  std::shared_ptr<SynonymStructuredModel> model_;
  std::vector<std::string> words_;
  TablePtr big_;
  TablePtr small_;
};

// (2) + (1): N client threads hammer one engine with a mixed workload;
// every concurrent result must be byte-identical to the one produced by
// running the same plan alone on the same engine, and the per-query
// execution windows of different clients must overlap.
TEST_F(ConcurrentServingTest, ConcurrentResultsByteIdenticalToSerial) {
  auto engine = MakeEngine(kThreads);
  std::vector<PlanPtr> plans = WorkloadPlans();

  // Reference: each plan executed with the engine to itself.
  std::vector<std::vector<std::string>> reference;
  for (const PlanPtr& plan : plans) {
    auto r = engine->Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(OrderedRows(*r.ValueOrDie()));
  }

  using Clock = std::chrono::steady_clock;
  struct Window {
    Clock::time_point start, end;
    std::size_t client;
  };
  constexpr std::size_t kClients = 4;
  constexpr int kRounds = 3;
  std::vector<Window> windows(kClients * kRounds * plans.size());
  std::vector<std::string> failures(kClients);

  // Common release point so every client's first query races the others.
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t p = 0; p < plans.size(); ++p) {
          // Rotate so clients hit different plans at the same time.
          const std::size_t pick = (p + c) % plans.size();
          const std::size_t slot =
              (c * kRounds + round) * plans.size() + p;
          windows[slot].client = c;
          windows[slot].start = Clock::now();
          auto r = engine->Execute(plans[pick]);
          windows[slot].end = Clock::now();
          if (!r.ok()) {
            failures[c] = r.status().ToString();
            return;
          }
          if (OrderedRows(*r.ValueOrDie()) != reference[pick]) {
            failures[c] = "result mismatch on plan " + std::to_string(pick);
            return;
          }
        }
      }
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
  }
  cv.notify_all();
  for (auto& t : clients) t.join();
  for (const auto& f : failures) EXPECT_EQ(f, "") << f;

  // Overlap: some pair of queries from different clients must have
  // intersecting execution windows (with 4 clients x 21 queries each
  // released together, disjoint windows would mean fully serialized
  // execution).
  bool overlap = false;
  for (std::size_t i = 0; i < windows.size() && !overlap; ++i) {
    for (std::size_t j = i + 1; j < windows.size() && !overlap; ++j) {
      if (windows[i].client == windows[j].client) continue;
      overlap = windows[i].start < windows[j].end &&
                windows[j].start < windows[i].end;
    }
  }
  EXPECT_TRUE(overlap) << "no two queries from different clients overlapped";
}

/// Embedding model that blocks the first embedding of one magic query
/// string until released — a deterministic way to hold query A open in
/// the middle of Engine::Execute while query B runs to completion.
class GateModel : public EmbeddingModel {
 public:
  GateModel(std::shared_ptr<const EmbeddingModel> inner, std::string magic)
      : inner_(std::move(inner)), magic_(std::move(magic)) {}

  std::size_t dim() const override { return inner_->dim(); }
  std::string name() const override { return "gate(" + inner_->name() + ")"; }

  void Embed(std::string_view text, float* out) const override {
    if (text == magic_) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    inner_->Embed(text, out);
  }

  void AwaitEntered() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::shared_ptr<const EmbeddingModel> inner_;
  std::string magic_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool released_ = false;
};

// (1), deterministically: query A parks inside Execute (its query-string
// embedding blocks on a gate); query B is admitted, runs, and completes
// while A is still in flight; then A is released and finishes. Proves
// Execute is re-entrant — under the old pool-owning driver B could not
// have finished first.
TEST_F(ConcurrentServingTest, ExecuteIsReentrantAcrossThreads) {
  auto engine = MakeEngine(kThreads);
  const std::string magic = "##gate-query##";
  auto gate = std::make_shared<GateModel>(model_, magic);
  engine->models().Put("gate", gate);

  std::atomic<bool> a_done{false};
  Status a_status;
  std::thread a([&] {
    auto r = engine->ExecuteUnoptimized(PlanNode::SemanticSelect(
        PlanNode::Scan("big"), "word", magic, "gate", 0.99f));
    a_status = r.status();
    a_done.store(true);
  });

  gate->AwaitEntered();  // A is now mid-Execute, holding no engine state

  auto b = engine->Execute(PlanNode::Aggregate(
      PlanNode::Scan("big"), {"flag"}, {{AggKind::kCount, "", "n"}}));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(b.ValueOrDie()->num_rows(), 0u);
  EXPECT_FALSE(a_done.load()) << "query A finished while gated?";

  gate->Release();
  a.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
}

// (3) The ROADMAP snapshot race, structurally fixed by QueryContext: a
// writer replaces table "t" with same-cardinality versions mid-query
// while readers run self-joins (hash and semantic, the latter through
// the IndexManager adoption path). Every result row must pair columns
// from ONE version — under the old live-catalog lookups the two scans
// (or the index and the rows) could come from different versions.
TEST_F(ConcurrentServingTest, SnapshotPinsOneTableVersionUnderReplacement) {
  auto engine = MakeEngine(kThreads);

  // Two same-cardinality versions; "tag" names the version on every row.
  auto make_version = [&](const std::string& tag) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"word", DataType::kString, 0},
                                 {"tag", DataType::kString, 0}}));
    const std::size_t n = 800;
    t->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(i));
      t->column(1).AppendString(words_[i % words_.size()]);
      t->column(2).AppendString(tag);
    }
    return t;
  };
  TablePtr v0 = make_version("v0");
  TablePtr v1 = make_version("v1");
  engine->catalog().Put("t", v0);

  PlanPtr hash_join =
      PlanNode::Join(PlanNode::Scan("t"), PlanNode::Scan("t"), "id", "id");
  PlanPtr semantic_join = PlanNode::SemanticJoin(
      PlanNode::Scan("t"), PlanNode::Scan("t"), "word", "word", "m", 0.97f);
  semantic_join->strategy = SemanticJoinStrategy::kHnsw;
  semantic_join->strategy_pinned = true;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    bool flip = false;
    while (!stop.load()) {
      engine->catalog().Put("t", flip ? v1 : v0);
      flip = !flip;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  auto check_uniform = [](const Table& out, const std::string& what) {
    const Column* tag = out.ColumnByName("tag").ValueOrDie();
    const Column* tag_r = out.ColumnByName("tag_r").ValueOrDie();
    ASSERT_GT(out.num_rows(), 0u) << what;
    const std::string& first = tag->strings()[0];
    for (std::size_t r = 0; r < out.num_rows(); ++r) {
      ASSERT_EQ(tag->strings()[r], first) << what << " row " << r;
      ASSERT_EQ(tag_r->strings()[r], first) << what << " row " << r;
    }
  };

  for (int i = 0; i < 12; ++i) {
    auto h = engine->Execute(hash_join);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    check_uniform(*h.ValueOrDie(), "hash self-join");

    auto s = engine->Execute(semantic_join);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    check_uniform(*s.ValueOrDie(), "semantic self-join");
  }
  stop.store(true);
  writer.join();
}

// (4) Async background builds: a cold index-backed semantic select is
// served immediately by the (exact) scanning fallback while the HNSW
// build runs at background priority; once the build lands, the same plan
// probes the index and recalls >= 95% of the exact matches.
TEST_F(ConcurrentServingTest, BackgroundBuildServesBruteForceThenIndex) {
  auto engine = MakeEngine(kThreads, /*async_builds=*/true);
  const std::string query = words_[3];

  auto make_plan = [&](SemanticJoinStrategy s, bool pinned) {
    PlanPtr plan = PlanNode::SemanticSelect(PlanNode::Scan("big"), "word",
                                            query, "m", 0.85f);
    plan->strategy = s;
    plan->strategy_pinned = pinned;
    return plan;
  };

  // Exact reference: the brute-force scanning form.
  auto ref = engine->ExecuteUnoptimized(
      make_plan(SemanticJoinStrategy::kBruteForce, true));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::vector<std::string> expected = OrderedRows(*ref.ValueOrDie());

  // Cold index-backed query: must not block on the build and must equal
  // the exact reference byte-for-byte (the fallback IS the exact scan).
  PlanPtr indexed = make_plan(SemanticJoinStrategy::kHnsw, true);
  auto cold = engine->ExecuteUnoptimized(indexed);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(OrderedRows(*cold.ValueOrDie()), expected);

  const IndexManager::Stats after_cold = engine->index_manager()->stats();
  EXPECT_GE(after_cold.background_builds, 1u);
  EXPECT_GE(after_cold.async_fallbacks, 1u);

  // Let the background build land, then the index serves.
  engine->index_manager()->WaitForBuilds();
  const IndexKey key{"big", "word", "m", SemanticJoinStrategy::kHnsw};
  EXPECT_TRUE(engine->index_manager()->IsResident(key));

  auto warm = engine->ExecuteUnoptimized(indexed);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const std::vector<std::string> got = OrderedRows(*warm.ValueOrDie());
  // Index hits verify exact scores, so results are a subset of the exact
  // matches; require recall >= 0.95.
  std::set<std::string> expected_set(expected.begin(), expected.end());
  std::size_t recalled = 0;
  for (const auto& row : got) {
    ASSERT_TRUE(expected_set.count(row)) << "index invented a row: " << row;
    ++recalled;
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_GE(static_cast<double>(recalled) /
                static_cast<double>(expected.size()),
            0.95);
}

// (5) Cooperative cancellation: a pre-cancelled query unwinds without
// running; a mid-flight cancel either lands (Status::Cancelled) or the
// query finished first — and the engine keeps serving afterwards.
TEST_F(ConcurrentServingTest, CancellationUnwindsAndEngineKeepsServing) {
  auto engine = MakeEngine(kThreads);
  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Scan("big"), {"flag"},
      {{AggKind::kCount, "", "n"}, {AggKind::kSum, "num", "total"}});

  QueryOptions pre;
  pre.cancel = std::make_shared<CancelFlag>();
  pre.cancel->Cancel();
  auto cancelled = engine->Execute(plan, pre);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();

  QueryOptions mid;
  mid.cancel = std::make_shared<CancelFlag>();
  Status mid_status;
  std::thread runner([&] {
    auto r = engine->Execute(plan, mid);
    mid_status = r.status();
  });
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  mid.cancel->Cancel();
  runner.join();
  EXPECT_TRUE(mid_status.ok() || mid_status.IsCancelled())
      << mid_status.ToString();

  auto healthy = engine->Execute(plan);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_GT(healthy.ValueOrDie()->num_rows(), 0u);
}

// Observability satellite: per-query scheduling counters surface through
// the query's profile and EXPLAIN grows a serving section.
TEST_F(ConcurrentServingTest, SchedulingCountersSurfaceInProfileAndExplain) {
  auto engine = MakeEngine(kThreads);
  PlanPtr plan = PlanNode::Sort(
      PlanNode::Filter(PlanNode::Scan("big"), Gt(Col("num"), Lit(100.0))),
      "num", true);

  auto result = engine->Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto profiles = engine->traces();
  ASSERT_FALSE(profiles.empty());
  const QueryProfile& profile = *profiles.front();
  EXPECT_GT(profile.scheduling.tasks_dispatched, 0u);
  EXPECT_GT(profile.scheduling.tasks_submitted, 0u);
  const std::string text = profile.ToString();
  EXPECT_NE(text.find("queue wait"), std::string::npos) << text;
  EXPECT_NE(text.find("admission="), std::string::npos);

  auto explain = engine->Explain(plan);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.ValueOrDie().find("serving: scheduler dop="),
            std::string::npos)
      << explain.ValueOrDie();
  EXPECT_NE(explain.ValueOrDie().find("active queries="), std::string::npos);
}

// Priority classes: background group tasks only dispatch when no
// normal-priority tasks are pending; both eventually run.
TEST_F(ConcurrentServingTest, SchedulerPriorityAndFairness) {
  ThreadPool pool(2);
  QueryScheduler scheduler(&pool);
  auto normal_a = scheduler.Admit(QueryPriority::kNormal);
  auto normal_b = scheduler.Admit(QueryPriority::kNormal);
  auto background = scheduler.Admit(QueryPriority::kBackground);

  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    normal_a->Submit([&] { done.fetch_add(1); });
    normal_b->Submit([&] { done.fetch_add(1); });
    background->Submit([&] { done.fetch_add(1); });
  }
  normal_a->Wait();
  normal_b->Wait();
  background->Wait();
  EXPECT_EQ(done.load(), 48);

  const SchedulingCounters a = normal_a->counters();
  EXPECT_EQ(a.tasks_submitted, 16u);
  EXPECT_EQ(a.tasks_dispatched, 16u);
  EXPECT_EQ(scheduler.pending_tasks(), 0u);
  // Per-group Wait() is scoped: waiting on an idle group returns even
  // while other groups still have queued work.
  auto idle = scheduler.Admit(QueryPriority::kNormal);
  idle->Wait();  // must not hang
}

}  // namespace
}  // namespace cre
