// Fault-injection chaos coverage:
//
//  - FaultInjector unit semantics: disabled fast path, one-shot vs
//    persistent triggers, nth-hit arming, probability gating, custom
//    status codes and messages, hit accounting.
//  - Persistence fault matrix: each persist I/O site (open/write/rename)
//    fails the best-effort write-through without failing the query;
//    retries are counted; a later clean build persists and warm-starts.
//  - Load faults (open/read) fall back to a clean rebuild and keep the
//    image on disk for the next restart — a stale index is never served.
//  - Build faults (embed/construct) surface as clean kIoError with the
//    manager intact; a refresh fault falls through to a full rebuild in
//    the same lookup.
//  - Engine chaos sweeps: every catalogued site armed one at a time and
//    then all at once probabilistically, with the invariant that every
//    query finishes with a status in {ok, kCancelled, kDeadlineExceeded,
//    kResourceExhausted, kIoError}, the engine stays healthy, and a clean
//    re-run returns exactly the baseline answer — never a wrong result.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault_injection.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "index/index_manager.h"
#include "storage/catalog.h"

namespace cre {
namespace {

/// Every test body runs with a clean injector and leaves one behind, even
/// on assertion failure — the injector is process-global state.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

TablePtr MakeStringTable(const std::vector<std::string>& words,
                         const std::string& column = "name") {
  Schema schema;
  schema.AddField({column, DataType::kString, 0});
  auto table = Table::Make(schema);
  for (const auto& w : words) {
    table->AppendRow({Value(w)}).Check();
  }
  return table;
}

std::vector<std::string> Words(std::size_t n, const std::string& prefix,
                               std::size_t distinct = 0) {
  if (distinct == 0) distinct = n;
  std::vector<std::string> words;
  words.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    words.push_back(prefix + std::to_string(i % distinct));
  }
  return words;
}

EmbeddingModelPtr MakeModel(std::size_t dim = 32) {
  HashEmbeddingModel::Options o;
  o.dim = dim;
  return std::make_shared<HashEmbeddingModel>(o);
}

std::string FreshTempDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cre_chaos_test_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

struct DirGuard {
  explicit DirGuard(std::string path) : path(std::move(path)) {}
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

struct ManagerFixture {
  Catalog catalog;
  ModelRegistry models;

  ManagerFixture() { models.Put("m", MakeModel()); }

  IndexManager MakeManager(IndexManagerOptions options = {}) {
    return IndexManager(&catalog, &models, options);
  }
};

bool StatusInChaosContract(const Status& st) {
  return st.ok() || st.IsIoError() || st.IsCancelled() ||
         st.IsDeadlineExceeded() || st.IsResourceExhausted();
}

// ---- injector unit semantics ----

TEST(FaultInjectorTest, DisabledByDefaultAndAfterReset) {
  FaultGuard guard;
  auto& inj = FaultInjector::Global();
  EXPECT_FALSE(inj.enabled());
  // The macro is a no-op without even a site lookup when disabled.
  EXPECT_TRUE(CRE_INJECT_FAULT("persist.write").ok());
  EXPECT_EQ(inj.fired_total(), 0u);

  inj.Arm("persist.write", FaultSpec{});
  EXPECT_TRUE(inj.enabled());
  inj.Reset();
  EXPECT_FALSE(inj.enabled());
  EXPECT_TRUE(CRE_INJECT_FAULT("persist.write").ok());
}

TEST(FaultInjectorTest, OneShotFiresExactlyOnce) {
  FaultGuard guard;
  auto& inj = FaultInjector::Global();
  inj.Arm("persist.write", FaultSpec{});
  Status first = inj.Check("persist.write");
  EXPECT_TRUE(first.IsIoError()) << first.ToString();
  EXPECT_TRUE(inj.Check("persist.write").ok());
  EXPECT_TRUE(inj.Check("persist.write").ok());
  EXPECT_EQ(inj.fired_total(), 1u);
  EXPECT_EQ(inj.hits("persist.write"), 3u);
}

TEST(FaultInjectorTest, PersistentKeepsFiring) {
  FaultGuard guard;
  auto& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.persistent = true;
  inj.Arm("load.read", spec);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(inj.Check("load.read").IsIoError());
  }
  EXPECT_EQ(inj.fired_total(), 5u);
  inj.Disarm("load.read");
  EXPECT_TRUE(inj.Check("load.read").ok());
}

TEST(FaultInjectorTest, NthHitTriggersAfterSkips) {
  FaultGuard guard;
  auto& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.after_hits = 2;  // skip two hits, fire on the third
  inj.Arm("index.build.embed", spec);
  EXPECT_TRUE(inj.Check("index.build.embed").ok());
  EXPECT_TRUE(inj.Check("index.build.embed").ok());
  EXPECT_TRUE(inj.Check("index.build.embed").IsIoError());
  EXPECT_TRUE(inj.Check("index.build.embed").ok());  // one-shot spent
}

TEST(FaultInjectorTest, ProbabilityGatesRoughly) {
  FaultGuard guard;
  auto& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.probability = 0.5;
  spec.persistent = true;
  inj.Arm("embed.query", spec);
  int fired = 0;
  for (int i = 0; i < 400; ++i) {
    if (!inj.Check("embed.query").ok()) ++fired;
  }
  // Deterministic xorshift stream; just assert it is neither never nor
  // always.
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 350);
}

TEST(FaultInjectorTest, CustomCodeAndMessage) {
  FaultGuard guard;
  auto& inj = FaultInjector::Global();
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.message = "synthetic pressure";
  inj.Arm("governor.charge", spec);
  Status st = inj.Check("governor.charge");
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_NE(st.ToString().find("synthetic pressure"), std::string::npos);

  // Unarmed sites stay clean even while the harness is enabled.
  inj.Arm("persist.open", FaultSpec{});
  EXPECT_TRUE(inj.Check("hashjoin.build").ok());
}

TEST(FaultInjectorTest, CatalogueIsNonEmptyAndStable) {
  const auto& sites = FaultInjector::SiteCatalogue();
  EXPECT_GE(sites.size(), 10u);
  for (const auto& required :
       {"persist.open", "persist.write", "persist.rename", "load.open",
        "load.read", "index.build.embed", "index.build.construct",
        "index.refresh.append", "embed.query", "governor.charge",
        "hashjoin.build"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), required), sites.end())
        << "catalogue lost site " << required;
  }
}

// ---- persistence fault matrix ----

class PersistFaultMatrixTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PersistFaultMatrixTest, WriteThroughFailsSoftAndRecovers) {
  FaultGuard guard;
  const std::string site = GetParam();
  ManagerFixture fx;
  const std::string dir = FreshTempDir(std::string("pm_") + site);
  DirGuard cleanup(dir);
  fx.catalog.Put("t", MakeStringTable(Words(300, "w_", 120)));

  IndexManagerOptions options;
  options.persist_dir = dir;

  {
    auto manager = fx.MakeManager(options);
    FaultSpec spec;
    spec.persistent = true;
    FaultInjector::Global().Arm(site, spec);

    // The build succeeds; the write-through is best effort and burns its
    // retry budget without ever failing the lookup.
    auto built = manager.GetOrBuild(IndexKey{"t", "name", "m"});
    ASSERT_TRUE(built.ok()) << site << ": " << built.status().ToString();
    EXPECT_EQ(manager.stats().disk_writes, 0u) << site;
    EXPECT_GE(manager.stats().disk_retries, 1u) << site;

    // Fault cleared: a destructive change forces a rebuild whose
    // write-through now lands.
    FaultInjector::Global().Reset();
    fx.catalog.Put("t", MakeStringTable(Words(300, "w_", 120)));
    ASSERT_TRUE(manager.GetOrBuild(IndexKey{"t", "name", "m"}).ok());
    EXPECT_GE(manager.stats().disk_writes, 1u) << site;
  }

  // The recovered image warm-starts a fresh manager without a rebuild.
  auto fresh = fx.MakeManager(options);
  ASSERT_TRUE(fresh.GetOrBuild(IndexKey{"t", "name", "m"}).ok());
  EXPECT_EQ(fresh.stats().disk_loads, 1u) << site;
  EXPECT_EQ(fresh.stats().builds, 0u) << site;
}

INSTANTIATE_TEST_SUITE_P(AllPersistSites, PersistFaultMatrixTest,
                         ::testing::Values("persist.open", "persist.write",
                                           "persist.rename"));

class LoadFaultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LoadFaultTest, FallsBackToRebuildAndKeepsTheImage) {
  FaultGuard guard;
  const std::string site = GetParam();
  ManagerFixture fx;
  const std::string dir = FreshTempDir(std::string("lf_") + site);
  DirGuard cleanup(dir);
  fx.catalog.Put("t", MakeStringTable(Words(300, "w_", 120)));

  IndexManagerOptions options;
  options.persist_dir = dir;

  {
    auto manager = fx.MakeManager(options);
    ASSERT_TRUE(manager.GetOrBuild(IndexKey{"t", "name", "m"}).ok());
    EXPECT_GE(manager.stats().disk_writes, 1u);
  }

  // A transient I/O fault during warm-start must not serve garbage: the
  // lookup falls back to a clean rebuild with status OK.
  FaultInjector::Global().Arm(site, FaultSpec{});
  {
    auto manager = fx.MakeManager(options);
    auto got = manager.GetOrBuild(IndexKey{"t", "name", "m"});
    ASSERT_TRUE(got.ok()) << site << ": " << got.status().ToString();
    EXPECT_EQ(manager.stats().disk_loads, 0u) << site;
    EXPECT_EQ(manager.stats().builds, 1u) << site;
  }

  // The image was transiently unreadable, not stale — it must survive
  // for the next restart.
  FaultInjector::Global().Reset();
  auto manager = fx.MakeManager(options);
  ASSERT_TRUE(manager.GetOrBuild(IndexKey{"t", "name", "m"}).ok());
  EXPECT_EQ(manager.stats().disk_loads, 1u) << site;
  EXPECT_EQ(manager.stats().builds, 0u) << site;
}

INSTANTIATE_TEST_SUITE_P(AllLoadSites, LoadFaultTest,
                         ::testing::Values("load.open", "load.read"));

// ---- build and refresh faults ----

class BuildFaultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BuildFaultTest, SurfacesCleanStatusAndRetriesFine) {
  FaultGuard guard;
  const std::string site = GetParam();
  ManagerFixture fx;
  fx.catalog.Put("t", MakeStringTable(Words(300, "w_", 120)));
  auto manager = fx.MakeManager();

  FaultInjector::Global().Arm(site, FaultSpec{});
  auto got = manager.GetOrBuild(IndexKey{"t", "name", "m"});
  ASSERT_FALSE(got.ok()) << site;
  EXPECT_TRUE(got.status().IsIoError()) << got.status().ToString();
  EXPECT_GE(manager.stats().build_failures, 1u);

  // One-shot spent: the very next lookup builds cleanly.
  auto retry = manager.GetOrBuild(IndexKey{"t", "name", "m"});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(manager.stats().builds, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBuildSites, BuildFaultTest,
                         ::testing::Values("index.build.embed",
                                           "index.build.construct"));

TEST(RefreshFaultTest, BrokenRefreshFallsThroughToRebuild) {
  FaultGuard guard;
  ManagerFixture fx;
  fx.catalog.Put("t", MakeStringTable(Words(300, "w_", 120)));
  auto manager = fx.MakeManager();
  ASSERT_TRUE(manager.GetOrBuild(IndexKey{"t", "name", "m"}).ok());

  // Append-only staleness would normally refresh in place; the injected
  // fault breaks the refresh mid-flight and the same lookup falls back
  // to a full rebuild — status OK, never an error for the query.
  ASSERT_TRUE(
      fx.catalog.Append("t", *MakeStringTable(Words(20, "fresh_"))).ok());
  FaultInjector::Global().Arm("index.refresh.append", FaultSpec{});
  auto got = manager.GetOrBuild(IndexKey{"t", "name", "m"});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(manager.stats().refreshes, 0u);
  EXPECT_EQ(manager.stats().builds, 2u);
}

// ---- engine chaos sweeps ----

/// Full-featured engine under chaos: sync managed index with
/// persistence, governor wired, semantic + relational queries.
class EngineChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = FreshTempDir("sweep");
    cleanup_ = std::make_unique<DirGuard>(dir_);
    EngineOptions eo;
    eo.num_threads = 2;
    eo.index.enabled = true;
    eo.index.async_builds = false;
    eo.index.persist_dir = dir_;
    eo.governor.per_query_memory_bytes = 1ull << 30;
    engine_ = std::make_unique<Engine>(eo);
    engine_->models().Put("m", MakeModel());
    words_ = MakeStringTable(Words(400, "w_", 150));
    engine_->catalog().Put("words", words_);
    engine_->catalog().Put("left", MakeStringTable(Words(500, "k_", 50)));
    engine_->catalog().Put("right", MakeStringTable(Words(500, "k_", 50)));

    baseline_select_ = RunSelect().ValueOrDie()->num_rows();
    baseline_join_ = RunJoin().ValueOrDie()->num_rows();
    ASSERT_GT(baseline_join_, 0u);

    // The sweeps compare fault-degraded runs (exact scanning fallback)
    // against the index-backed baseline, so the two paths must agree on
    // this dataset. If this ever trips, the dataset — not the engine —
    // needs adjusting.
    QueryBuilder exact(engine_.get());
    exact.Scan("words").SemanticSelect("name", "w_7", "m", 0.8f);
    PlanPtr exact_plan = exact.plan();
    exact_plan->strategy = SemanticJoinStrategy::kBruteForce;
    exact_plan->strategy_pinned = true;
    auto exact_rows = engine_->Execute(exact_plan, QueryOptions{});
    ASSERT_TRUE(exact_rows.ok()) << exact_rows.status().ToString();
    ASSERT_EQ(exact_rows.ValueOrDie()->num_rows(), baseline_select_)
        << "HNSW recall diverges from the exact scan on the chaos dataset";
  }

  /// Semantic select pinned to HNSW so the managed index (and with it the
  /// build/persist/load fault sites) is actually on the serving path.
  Result<TablePtr> RunSelect() {
    QueryBuilder qb(engine_.get());
    qb.Scan("words").SemanticSelect("name", "w_7", "m", 0.8f);
    PlanPtr plan = qb.plan();
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    return engine_->Execute(plan, QueryOptions{});
  }

  Result<TablePtr> RunJoin() {
    QueryBuilder qb(engine_.get());
    qb.Scan("left").JoinWith(QueryBuilder(engine_.get()).Scan("right"),
                             "name", "name");
    return engine_->Execute(qb.plan(), QueryOptions{});
  }

  /// Force the next semantic select through a cold build + persist so
  /// build/persist fault sites actually execute.
  void InvalidateIndex() { engine_->catalog().Put("words", words_); }

  void ExpectHealthyAfterReset() {
    FaultInjector::Global().Reset();
    auto select = RunSelect();
    ASSERT_TRUE(select.ok()) << select.status().ToString();
    EXPECT_EQ(select.ValueOrDie()->num_rows(), baseline_select_);
    auto join = RunJoin();
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join.ValueOrDie()->num_rows(), baseline_join_);
  }

  std::string dir_;
  std::unique_ptr<DirGuard> cleanup_;
  std::unique_ptr<Engine> engine_;
  TablePtr words_;
  std::size_t baseline_select_ = 0;
  std::size_t baseline_join_ = 0;
};

TEST_F(EngineChaosTest, EveryCataloguedSiteOneAtATime) {
  FaultGuard guard;
  for (const std::string& site : FaultInjector::SiteCatalogue()) {
    SCOPED_TRACE(site);
    FaultInjector::Global().Reset();
    InvalidateIndex();
    FaultSpec spec;
    spec.persistent = true;
    FaultInjector::Global().Arm(site, spec);

    auto select = RunSelect();
    EXPECT_TRUE(StatusInChaosContract(select.status()))
        << site << " leaked status " << select.status().ToString();
    // A query that *succeeded* under fault must still be correct — a
    // fault may degrade the strategy, never the answer.
    if (select.ok()) {
      EXPECT_EQ(select.ValueOrDie()->num_rows(), baseline_select_) << site;
    }

    auto join = RunJoin();
    EXPECT_TRUE(StatusInChaosContract(join.status()))
        << site << " leaked status " << join.status().ToString();
    if (join.ok()) {
      EXPECT_EQ(join.ValueOrDie()->num_rows(), baseline_join_) << site;
    }

    ExpectHealthyAfterReset();
  }
}

TEST_F(EngineChaosTest, RandomizedSweepKeepsTheContract) {
  FaultGuard guard;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    FaultInjector::Global().Reset();
    if (round % 2 == 0) InvalidateIndex();
    for (const std::string& site : FaultInjector::SiteCatalogue()) {
      FaultSpec spec;
      spec.probability = 0.25;
      spec.persistent = true;
      FaultInjector::Global().Arm(site, spec);
    }
    auto select = RunSelect();
    EXPECT_TRUE(StatusInChaosContract(select.status()))
        << select.status().ToString();
    if (select.ok()) {
      EXPECT_EQ(select.ValueOrDie()->num_rows(), baseline_select_);
    }
    auto join = RunJoin();
    EXPECT_TRUE(StatusInChaosContract(join.status()))
        << join.status().ToString();
    if (join.ok()) {
      EXPECT_EQ(join.ValueOrDie()->num_rows(), baseline_join_);
    }
  }
  ExpectHealthyAfterReset();
}

}  // namespace
}  // namespace cre
