// Incremental index maintenance + on-disk persistence coverage:
//
//  - Catalog append deltas: AppendedSince chains across appends, breaks
//    on destructive Put/Drop.
//  - Save->Load round trips for all four index families, byte-identical
//    search results (ids and scores).
//  - HnswIndex::Add: deterministic incremental inserts, recall parity
//    with a fresh full build.
//  - IndexManager refresh: append-only staleness renews in place (no
//    rebuild), destructive staleness still rebuilds; byte accounting
//    follows refresh growth; TSan-clean under concurrent queries; async
//    refreshes run on the background runner.
//  - Persistence: a fresh manager over the same persist_dir warm-starts
//    from disk with zero builds; truncated/corrupt images and
//    content-mismatched (stale) images are rejected and fall back to a
//    clean rebuild — a stale index is never served; eviction degrades a
//    key to on-disk, not absent.
//  - Cooperative cancellation inside HNSW construction and semantic-join
//    probe loops, with a bounded-latency check on a large cold build.
//  - Engine end to end: first post-"restart" EXPLAIN shows (on-disk),
//    the select is served from the image without a rebuild, and the next
//    EXPLAIN shows (resident).

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/rng.h"
#include "core/timer.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "exec/scan.h"
#include "index/index_manager.h"
#include "semantic/semantic_join.h"
#include "storage/catalog.h"
#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/kernels.h"
#include "vecsim/lsh_index.h"

namespace cre {
namespace {

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

std::vector<float> RandomUnitVectors(std::size_t n, std::size_t dim,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * dim);
  for (auto& x : data) x = static_cast<float>(rng.NextGaussian());
  for (std::size_t i = 0; i < n; ++i) {
    NormalizeInPlace(data.data() + i * dim, dim);
  }
  return data;
}

std::string FreshTempDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cre_idx_test_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Cleans a temp persist dir at scope exit so test runs don't litter.
struct DirGuard {
  explicit DirGuard(std::string path) : path(std::move(path)) {}
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

struct Fixture {
  Catalog catalog;
  ModelRegistry models;

  Fixture() { models.Put("m", MakeModel()); }

  IndexManager MakeManager(IndexManagerOptions options = {}) {
    return IndexManager(&catalog, &models, options);
  }
};

// ---- catalog append deltas ----

TEST(CatalogAppendTest, AppendedSinceWalksTheChain) {
  Catalog catalog;
  catalog.Put("t", MakeStringTable(Words(10, "a_")));
  const std::uint64_t v1 = catalog.Version("t");

  ASSERT_TRUE(catalog.Append("t", *MakeStringTable(Words(5, "b_"))).ok());
  const std::uint64_t v2 = catalog.Version("t");
  ASSERT_TRUE(catalog.Append("t", *MakeStringTable(Words(3, "c_"))).ok());
  const std::uint64_t v3 = catalog.Version("t");
  EXPECT_EQ(catalog.Get("t").ValueOrDie()->num_rows(), 18u);

  auto from_v1 = catalog.AppendedSince("t", v1);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  EXPECT_EQ(from_v1.ValueOrDie().prefix_rows, 10u);
  EXPECT_EQ(from_v1.ValueOrDie().to_version, v3);
  EXPECT_EQ(from_v1.ValueOrDie().table->num_rows(), 18u);

  auto from_v2 = catalog.AppendedSince("t", v2);
  ASSERT_TRUE(from_v2.ok());
  EXPECT_EQ(from_v2.ValueOrDie().prefix_rows, 15u);

  // No mutation since v3: the empty chain is valid, nothing appended.
  auto from_v3 = catalog.AppendedSince("t", v3);
  ASSERT_TRUE(from_v3.ok());
  EXPECT_EQ(from_v3.ValueOrDie().prefix_rows, 18u);

  // A destructive Put breaks every chain through it.
  catalog.Put("t", MakeStringTable(Words(18, "x_")));
  EXPECT_FALSE(catalog.AppendedSince("t", v1).ok());
  EXPECT_FALSE(catalog.AppendedSince("t", v3).ok());

  // ...but appends after the Put chain from the new version.
  const std::uint64_t v4 = catalog.Version("t");
  ASSERT_TRUE(catalog.Append("t", *MakeStringTable(Words(2, "y_"))).ok());
  auto from_v4 = catalog.AppendedSince("t", v4);
  ASSERT_TRUE(from_v4.ok());
  EXPECT_EQ(from_v4.ValueOrDie().prefix_rows, 18u);
}

TEST(CatalogAppendTest, AppendRejectsSchemaMismatch) {
  Catalog catalog;
  catalog.Put("t", MakeStringTable(Words(4, "a_")));
  Schema other;
  other.AddField({"price", DataType::kFloat64, 0});
  auto bad = Table::Make(other);
  bad->AppendRow({Value(1.0)}).Check();
  EXPECT_FALSE(catalog.Append("t", *bad).ok());
  EXPECT_FALSE(catalog.Append("missing", *bad).ok());
}

// ---- per-family Save/Load round trips ----

std::unique_ptr<VectorIndex> MakeFamily(SemanticJoinStrategy kind) {
  switch (kind) {
    case SemanticJoinStrategy::kLsh: {
      LshOptions o;
      o.num_tables = 4;
      o.bits_per_table = 8;
      return std::make_unique<LshIndex>(o);
    }
    case SemanticJoinStrategy::kIvf: {
      IvfOptions o;
      o.num_centroids = 16;
      return std::make_unique<IvfIndex>(o);
    }
    case SemanticJoinStrategy::kHnsw: {
      HnswOptions o;
      o.build_bootstrap = 64;
      return std::make_unique<HnswIndex>(o);
    }
    default:
      return std::make_unique<FlatIndex>();
  }
}

class FamilyRoundTripTest
    : public ::testing::TestWithParam<SemanticJoinStrategy> {};

TEST_P(FamilyRoundTripTest, SaveLoadIsByteIdenticalForSearch) {
  const std::size_t n = 600, dim = 24;
  const auto data = RandomUnitVectors(n, dim, 17);
  auto original = MakeFamily(GetParam());
  ASSERT_TRUE(original->Build(data.data(), n, dim).ok());

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(original->Save(buffer).ok()) << original->name();
  auto loaded = MakeFamily(GetParam());
  ASSERT_TRUE(loaded->Load(buffer).ok()) << loaded->name();

  EXPECT_EQ(loaded->size(), original->size());
  EXPECT_EQ(loaded->dim(), original->dim());
  EXPECT_EQ(loaded->MemoryBytes(), original->MemoryBytes());

  const auto queries = RandomUnitVectors(20, dim, 99);
  for (std::size_t q = 0; q < 20; ++q) {
    const float* qv = queries.data() + q * dim;
    const auto a = original->TopK(qv, 10);
    const auto b = loaded->TopK(qv, 10);
    ASSERT_EQ(a.size(), b.size()) << original->name();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << original->name();
      EXPECT_EQ(a[i].score, b[i].score) << original->name();
    }
    std::vector<ScoredId> ra, rb;
    original->RangeSearch(qv, 0.4f, &ra);
    loaded->RangeSearch(qv, 0.4f, &rb);
    ASSERT_EQ(ra.size(), rb.size()) << original->name();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id) << original->name();
      EXPECT_EQ(ra[i].score, rb[i].score) << original->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyRoundTripTest,
                         ::testing::Values(SemanticJoinStrategy::kBruteForce,
                                           SemanticJoinStrategy::kLsh,
                                           SemanticJoinStrategy::kIvf,
                                           SemanticJoinStrategy::kHnsw));

TEST(FamilyRoundTripTest, TruncatedStreamIsRejectedNotMisread) {
  const std::size_t n = 300, dim = 16;
  const auto data = RandomUnitVectors(n, dim, 3);
  HnswIndex original;
  ASSERT_TRUE(original.Build(data.data(), n, dim).ok());
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(original.Save(buffer).ok());
  const std::string bytes = buffer.str();
  for (const std::size_t cut :
       {bytes.size() / 7, bytes.size() / 2, bytes.size() - 3}) {
    std::stringstream cut_stream(bytes.substr(0, cut),
                                 std::ios::in | std::ios::binary);
    HnswIndex reloaded;
    EXPECT_FALSE(reloaded.Load(cut_stream).ok()) << "cut at " << cut;
  }
  // Foreign magic is rejected too.
  std::stringstream foreign(std::string(64, 'z'), std::ios::in);
  HnswIndex reloaded;
  EXPECT_FALSE(reloaded.Load(foreign).ok());
}

// ---- HNSW incremental Add ----

TEST(HnswIncrementalTest, AddIsDeterministic) {
  const std::size_t n = 900, extra = 120, dim = 24;
  const auto base = RandomUnitVectors(n, dim, 7);
  const auto appended = RandomUnitVectors(extra, dim, 8);
  HnswOptions o;
  o.build_bootstrap = 128;

  auto grow = [&](HnswIndex* index) {
    index->Build(base.data(), n, dim).Check();
    index->Add(appended.data(), extra, dim).Check();
  };
  HnswIndex a(o), b(o);
  grow(&a);
  grow(&b);
  EXPECT_EQ(a.size(), n + extra);
  EXPECT_EQ(a.GraphChecksum(), b.GraphChecksum());
}

TEST(HnswIncrementalTest, AddKeepsRecallAgainstFullRebuild) {
  const std::size_t n = 1600, extra = 160, dim = 24;
  auto all = RandomUnitVectors(n + extra, dim, 21);
  HnswOptions o;
  o.build_bootstrap = 128;

  HnswIndex incremental(o);
  incremental.Build(all.data(), n, dim).Check();
  incremental.Add(all.data() + n * dim, extra, dim).Check();

  FlatIndex exact;
  exact.Build(all.data(), n + extra, dim).Check();

  const std::size_t k = 10, num_queries = 40;
  const auto queries = RandomUnitVectors(num_queries, dim, 77);
  std::size_t found = 0;
  for (std::size_t q = 0; q < num_queries; ++q) {
    const float* qv = queries.data() + q * dim;
    const auto truth = exact.TopK(qv, k);
    const auto got = incremental.TopK(qv, k);
    for (const auto& t : truth) {
      for (const auto& g : got) {
        if (g.id == t.id) {
          ++found;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(k * num_queries);
  EXPECT_GE(recall, 0.95) << "incremental recall@10: " << recall;
}

TEST(HnswIncrementalTest, SaveLoadThenAddMatchesUninterruptedGrowth) {
  const std::size_t n = 700, extra = 90, dim = 16;
  const auto base = RandomUnitVectors(n, dim, 31);
  const auto appended = RandomUnitVectors(extra, dim, 32);
  HnswOptions o;
  o.build_bootstrap = 64;

  HnswIndex uninterrupted(o);
  uninterrupted.Build(base.data(), n, dim).Check();
  uninterrupted.Add(appended.data(), extra, dim).Check();

  HnswIndex saved(o);
  saved.Build(base.data(), n, dim).Check();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(saved.Save(buffer).ok());
  HnswIndex reloaded;
  ASSERT_TRUE(reloaded.Load(buffer).ok());
  // The level RNG stream fast-forwards on Load, so growth after a
  // save/load cycle is indistinguishable from uninterrupted growth.
  reloaded.Add(appended.data(), extra, dim).Check();
  EXPECT_EQ(reloaded.GraphChecksum(), uninterrupted.GraphChecksum());
}

// ---- cooperative cancellation ----

TEST(CancelLatencyTest, HnswBuildCancelsWithBoundedLatency) {
  const std::size_t n = 6000, dim = 32;
  const auto data = RandomUnitVectors(n, dim, 11);

  HnswIndex reference;
  Timer full_timer;
  reference.Build(data.data(), n, dim).Check();
  const double full_seconds = full_timer.Seconds();

  // Pre-cancelled: construction aborts within the first poll stride.
  CancelFlag pre;
  pre.Cancel();
  HnswOptions po;
  po.cancel = &pre;
  HnswIndex never(po);
  Timer pre_timer;
  EXPECT_TRUE(never.Build(data.data(), n, dim).IsCancelled());
  EXPECT_LT(pre_timer.Seconds(), full_seconds);

  // Mid-flight: cancel shortly after the build starts; it must unwind
  // well before the uncancelled build time (one batch, not the tail).
  CancelFlag mid;
  HnswOptions mo;
  mo.cancel = &mid;
  HnswIndex aborted(mo);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    mid.Cancel();
  });
  Timer mid_timer;
  const Status status = aborted.Build(data.data(), n, dim);
  const double cancelled_seconds = mid_timer.Seconds();
  canceller.join();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_LT(cancelled_seconds, full_seconds * 0.75)
      << "cancel latency " << cancelled_seconds << "s vs full build "
      << full_seconds << "s";
}

TEST(CancelLatencyTest, SemanticJoinProbeLoopPollsTheFlag) {
  auto model = MakeModel();
  for (const auto strategy :
       {SemanticJoinStrategy::kBruteForce, SemanticJoinStrategy::kHnsw}) {
    CancelFlag flag;
    SemanticJoinOptions options;
    options.threshold = 0.5f;
    options.strategy = strategy;
    options.cancel = &flag;
    auto op = std::make_unique<SemanticJoinOperator>(
        std::make_unique<TableScanOperator>(
            MakeStringTable(Words(500, "left_"))),
        std::make_unique<TableScanOperator>(
            MakeStringTable(Words(400, "right_"))),
        "name", "name", model, std::move(options));
    ASSERT_TRUE(op->Open().ok());
    // Open built the right side; the flag flips before the probe loop
    // runs, so the very first Next() must unwind with Cancelled instead
    // of probing 500x400 pairs.
    flag.Cancel();
    auto batch = op->Next();
    EXPECT_TRUE(batch.status().IsCancelled())
        << SemanticJoinStrategyName(strategy) << ": "
        << batch.status().ToString();
  }
}

// ---- IndexManager incremental refresh ----

TEST(IncrementalRefreshTest, AppendRefreshesInsteadOfRebuilding) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(1200, "a_", 300)));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  auto first = manager.GetOrBuild(key);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie()->size(), 1200u);

  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(120, "b_", 30))).ok());
  EXPECT_FALSE(manager.IsResident(key));

  auto second = manager.GetOrBuild(key);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie()->size(), 1320u);
  // Copy-on-write: the first handle still serves the old row count.
  EXPECT_EQ(first.ValueOrDie()->size(), 1200u);

  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 1u) << "append must not trigger a rebuild";
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_TRUE(manager.IsResident(key));

  // Chained appends keep refreshing.
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(60, "c_", 10))).ok());
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(40, "d_", 10))).ok());
  auto third = manager.GetOrBuild(key);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.ValueOrDie()->size(), 1420u);
  EXPECT_EQ(manager.stats().builds, 1u);
  EXPECT_EQ(manager.stats().refreshes, 2u);
}

TEST(IncrementalRefreshTest, DestructivePutStillRebuilds) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "a_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());

  f.catalog.Put("t", MakeStringTable(Words(400, "z_")));
  auto rebuilt = manager.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok());
  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.refreshes, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(IncrementalRefreshTest, RefreshedIndexKeepsRecallAgainstRebuild) {
  Fixture f;
  const std::size_t rows = 1200, appended = 120;
  f.catalog.Put("t", MakeStringTable(Words(rows, "word_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(appended, "fresh_")))
          .ok());

  auto refreshed_result = manager.GetOrBuild(key);
  ASSERT_TRUE(refreshed_result.ok());
  const auto refreshed = refreshed_result.ValueOrDie();

  // Exact ground truth over the full appended column.
  auto model = f.models.Get("m").ValueOrDie();
  const std::size_t dim = model->dim();
  const auto words_table = f.catalog.Get("t").ValueOrDie();
  const auto& words = words_table->ColumnByName("name").ValueOrDie()->strings();
  std::vector<float> matrix(words.size() * dim);
  model->EmbedBatch(words, matrix.data());
  FlatIndex exact;
  exact.Build(matrix.data(), words.size(), dim).Check();

  const std::size_t k = 10, num_queries = 40;
  std::size_t found = 0;
  for (std::size_t q = 0; q < num_queries; ++q) {
    // Mix of original and appended query points.
    const std::size_t row = (q % 2 == 0) ? q * 17 % rows
                                         : rows + (q * 7 % appended);
    const float* qv = matrix.data() + row * dim;
    const auto truth = exact.TopK(qv, k);
    const auto got = refreshed->TopK(qv, k);
    for (const auto& t : truth) {
      for (const auto& g : got) {
        if (g.id == t.id) {
          ++found;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(k * num_queries);
  EXPECT_GE(recall, 0.95) << "refreshed recall@10: " << recall;
}

TEST(IncrementalRefreshTest, ByteAccountingFollowsRefreshGrowth) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(800, "a_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  auto built = manager.GetOrBuild(key);
  ASSERT_TRUE(built.ok());
  const std::size_t before = manager.stats().resident_bytes;
  EXPECT_EQ(before, built.ValueOrDie()->MemoryBytes());

  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(200, "b_"))).ok());
  auto refreshed = manager.GetOrBuild(key);
  ASSERT_TRUE(refreshed.ok());
  const std::size_t after = manager.stats().resident_bytes;
  // The budget ledger must track the grown footprint, not the stale
  // build-time figure (the old accounting drift bug).
  EXPECT_EQ(after, refreshed.ValueOrDie()->MemoryBytes());
  EXPECT_GT(after, before);
}

TEST(IncrementalRefreshTest, CostCrossoverPicksRefreshOrRebuild) {
  // The crossover sits at 25% appended (an incremental insert costs ~4x a
  // bulk-build row): a 5% append must refresh, a 30% append must fall
  // through to a full rebuild.
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "w_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  EXPECT_EQ(manager.stats().builds, 1u);

  // 5% appended (20 of 420): refresh wins.
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(20, "s_"))).ok());
  auto small = manager.GetOrBuild(key);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.ValueOrDie()->size(), 420u);
  EXPECT_EQ(manager.stats().refreshes, 1u);
  EXPECT_EQ(manager.stats().builds, 1u);

  // 30% appended (180 of 600): estimated refresh cost exceeds the
  // rebuild, so the stale entry is invalidated and rebuilt instead.
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(180, "l_"))).ok());
  auto large = manager.GetOrBuild(key);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large.ValueOrDie()->size(), 600u);
  EXPECT_EQ(manager.stats().refreshes, 1u) << "past crossover must rebuild";
  EXPECT_EQ(manager.stats().builds, 2u);
}

TEST(IncrementalRefreshTest, ConcurrentQueriesDuringAppendsAreClean) {
  Fixture f;
  // This test exercises refresh/read concurrency, not the cost policy:
  // the base is large enough that even a reader observing all 8 x 50
  // appends at once (400 of 1900 rows) stays under the 25% crossover and
  // never crosses into the rebuild regime.
  f.catalog.Put("t", MakeStringTable(Words(1500, "w_", 300)));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());

  auto model = f.models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  model->Embed("w_7", query.data());

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        auto r = manager.GetOrBuild(key);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        // Probe the shared instance while refreshes swap entries.
        if (r.ValueOrDie()->TopK(query.data(), 5).empty()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 8; ++i) {
      f.catalog.Append("t", *MakeStringTable(Words(50, "n" +
                                                   std::to_string(i) + "_")))
          .status()
          .Check();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& th : readers) th.join();
  writer.join();
  EXPECT_EQ(errors.load(), 0);

  auto final_index = manager.GetOrBuild(key);
  ASSERT_TRUE(final_index.ok());
  EXPECT_EQ(final_index.ValueOrDie()->size(), 1500u + 8u * 50u);
  EXPECT_EQ(manager.stats().builds, 1u) << "appends must never rebuild";
}

TEST(IncrementalRefreshTest, AsyncRefreshRunsOnBackgroundRunner) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(600, "a_")));
  ThreadPool pool(2);
  IndexManagerOptions options;
  options.async_builds = true;
  IndexManager manager = f.MakeManager(options);
  manager.EnableAsyncBuilds(&pool);

  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(80, "b_"))).ok());

  auto async = manager.GetOrBuildAsync(key);
  ASSERT_TRUE(async.ok());
  EXPECT_TRUE(async.ValueOrDie().build_in_flight)
      << "stale-by-append under async must refresh in the background";
  manager.WaitForBuilds();

  const auto stats = manager.stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.builds, 1u);
  auto ready = manager.GetOrBuildAsync(key);
  ASSERT_TRUE(ready.ok());
  ASSERT_NE(ready.ValueOrDie().index, nullptr);
  EXPECT_EQ(ready.ValueOrDie().index->size(), 680u);
}

// ---- on-disk persistence ----

TEST(IndexPersistenceTest, WarmStartsFromDiskWithZeroBuilds) {
  const DirGuard dir(FreshTempDir("warmstart"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(900, "w_", 200)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  std::vector<ScoredId> before_hits;
  auto model = f.models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  model->Embed("w_3", query.data());
  {
    IndexManager first = f.MakeManager(options);
    auto built = first.GetOrBuild(key);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    before_hits = built.ValueOrDie()->TopK(query.data(), 12);
    EXPECT_EQ(first.stats().disk_writes, 1u);
  }

  // "Restart": a fresh manager over the same directory and catalog.
  IndexManager second = f.MakeManager(options);
  EXPECT_EQ(second.Residency(key), IndexResidency::kOnDisk);
  auto loaded = second.GetOrBuild(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(second.Residency(key), IndexResidency::kResident);

  const auto stats = second.stats();
  EXPECT_EQ(stats.builds, 0u) << "warm start must not rebuild";
  EXPECT_EQ(stats.disk_loads, 1u);
  EXPECT_EQ(stats.disk_rejects, 0u);
  EXPECT_EQ(stats.resident_bytes, loaded.ValueOrDie()->MemoryBytes());

  // Byte-identical serving: same ids, same scores.
  const auto after_hits = loaded.ValueOrDie()->TopK(query.data(), 12);
  ASSERT_EQ(after_hits.size(), before_hits.size());
  for (std::size_t i = 0; i < after_hits.size(); ++i) {
    EXPECT_EQ(after_hits[i].id, before_hits[i].id);
    EXPECT_EQ(after_hits[i].score, before_hits[i].score);
  }
}

TEST(IndexPersistenceTest, AllFamiliesSurviveTheRoundTrip) {
  const DirGuard dir(FreshTempDir("families"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(500, "w_", 120)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  for (const auto kind :
       {SemanticJoinStrategy::kLsh, SemanticJoinStrategy::kIvf,
        SemanticJoinStrategy::kHnsw}) {
    IndexKey key{"t", "name", "m", kind};
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());

    IndexManager second = f.MakeManager(options);
    auto loaded = second.GetOrBuild(key);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(second.stats().builds, 0u) << SemanticJoinStrategyName(kind);
    EXPECT_EQ(second.stats().disk_loads, 1u) << SemanticJoinStrategyName(kind);
    EXPECT_EQ(loaded.ValueOrDie()->size(), 500u);
  }
}

TEST(IndexPersistenceTest, TruncatedImageFallsBackToCleanRebuild) {
  const DirGuard dir(FreshTempDir("truncated"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(600, "w_", 150)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }
  // Truncate the image to a third: the header still parses (so the scan
  // admits it) but the payload read must fail cleanly.
  for (const auto& de : std::filesystem::directory_iterator(dir.path)) {
    if (de.path().extension() != ".idx") continue;
    std::filesystem::resize_file(de.path(),
                                 std::filesystem::file_size(de.path()) / 3);
  }

  IndexManager second = f.MakeManager(options);
  auto rebuilt = second.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt.ValueOrDie()->size(), 600u);
  const auto stats = second.stats();
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.disk_loads, 0u);
  EXPECT_EQ(stats.builds, 1u) << "corrupt image must fall back to a rebuild";
}

TEST(IndexPersistenceTest, ContentMismatchNeverServesAStaleIndex) {
  const DirGuard dir(FreshTempDir("stale"));
  ModelRegistry models;
  models.Put("m", MakeModel());
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    Catalog old_catalog;
    old_catalog.Put("t", MakeStringTable(Words(400, "old_")));
    IndexManager first(&old_catalog, &models, options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }

  // Same table name, same row count, different contents — the stamp/
  // content check must reject the image, and the rebuilt index must
  // serve the *new* rows.
  Catalog new_catalog;
  const auto new_words = Words(400, "new_");
  new_catalog.Put("t", MakeStringTable(new_words));
  IndexManager second(&new_catalog, &models, options);
  auto rebuilt = second.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok());
  const auto stats = second.stats();
  EXPECT_EQ(stats.disk_loads, 0u) << "stale image must never be served";
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.builds, 1u);

  auto model = models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  model->Embed("new_42", query.data());
  const auto hits = rebuilt.ValueOrDie()->TopK(query.data(), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(new_words[hits[0].id], "new_42");
}

TEST(IndexPersistenceTest, AsyncLookupWithImplausibleImageStaysNonBlocking) {
  const DirGuard dir(FreshTempDir("async_stale"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(500, "a_")));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }
  // Destructive replacement with a different row count: the persisted
  // image is now implausible, so the async serving path must schedule a
  // background build instead of falling into a blocking load-then-
  // rebuild on the query thread.
  f.catalog.Put("t", MakeStringTable(Words(300, "z_")));
  ThreadPool pool(2);
  IndexManagerOptions async_options;
  async_options.persist_dir = dir.path;
  async_options.async_builds = true;
  IndexManager second = f.MakeManager(async_options);
  second.EnableAsyncBuilds(&pool);
  auto r = second.GetOrBuildAsync(key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().build_in_flight)
      << "stale image must not drag the async path into a blocking build";
  second.WaitForBuilds();
  const auto stats = second.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.disk_loads, 0u);
  auto ready = second.GetOrBuildAsync(key);
  ASSERT_TRUE(ready.ok());
  ASSERT_NE(ready.ValueOrDie().index, nullptr);
  EXPECT_EQ(ready.ValueOrDie().index->size(), 300u);
}

TEST(IndexPersistenceTest, EvictionDegradesToOnDiskNotAbsent) {
  const DirGuard dir(FreshTempDir("evict"));
  Fixture f;
  f.catalog.Put("t1", MakeStringTable(Words(400, "a_")));
  f.catalog.Put("t2", MakeStringTable(Words(400, "b_")));
  IndexKey k1{"t1", "name", "m", SemanticJoinStrategy::kHnsw};
  IndexKey k2{"t2", "name", "m", SemanticJoinStrategy::kHnsw};

  IndexManagerOptions probe_options;
  probe_options.persist_dir = dir.path;
  std::size_t one_index_bytes = 0;
  {
    IndexManager probe = f.MakeManager(probe_options);
    ASSERT_TRUE(probe.GetOrBuild(k1).ok());
    one_index_bytes = probe.stats().resident_bytes;
    probe.Clear();
  }

  IndexManagerOptions options;
  options.persist_dir = dir.path;
  options.memory_budget_bytes = one_index_bytes + one_index_bytes / 2;
  IndexManager manager = f.MakeManager(options);
  ASSERT_TRUE(manager.GetOrBuild(k1).ok());
  ASSERT_TRUE(manager.GetOrBuild(k2).ok());
  EXPECT_EQ(manager.stats().evictions, 1u);
  // The evicted key's image survives on disk, so it reloads, not
  // rebuilds — eviction under persistence costs a load, never a build.
  EXPECT_EQ(manager.Residency(k1), IndexResidency::kOnDisk);
  ASSERT_TRUE(manager.GetOrBuild(k1).ok());
  const auto stats = manager.stats();
  EXPECT_EQ(stats.disk_loads, 2u);  // k1's warm start + this reload
  EXPECT_EQ(stats.builds, 1u) << "only k2 should ever have been built";
}

TEST(IndexPersistenceTest, RefreshedImageWarmStartsAtTheNewVersion) {
  const DirGuard dir(FreshTempDir("refreshed"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(500, "a_")));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
    ASSERT_TRUE(
        f.catalog.Append("t", *MakeStringTable(Words(70, "b_"))).ok());
    ASSERT_TRUE(first.GetOrBuild(key).ok());  // refresh, re-persisted
    EXPECT_EQ(first.stats().refreshes, 1u);
    EXPECT_EQ(first.stats().disk_writes, 2u);
  }
  IndexManager second = f.MakeManager(options);
  auto loaded = second.GetOrBuild(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie()->size(), 570u);
  EXPECT_EQ(second.stats().builds, 0u);
  EXPECT_EQ(second.stats().disk_loads, 1u);
}

// ---- one key through every lookup outcome, blocking and async ----

/// Walks one key through cold build, hit, refresh, past-crossover
/// rebuild, destructive invalidation and eviction + warm start, through
/// either the blocking GetOrBuild (param false) or the non-blocking
/// GetOrBuildAsync + WaitForBuilds (param true). Both sides must reach
/// the same index sizes with the same counters.
class IndexLookupLifecycleTest : public ::testing::TestWithParam<bool> {
 protected:
  bool async() const { return GetParam(); }

  /// One lookup. `expect_background` says whether the async side should
  /// report a build in flight (and be drained with WaitForBuilds) before
  /// the key serves; the blocking side always serves at once.
  std::shared_ptr<const VectorIndex> Lookup(IndexManager* manager,
                                            const IndexKey& key,
                                            bool expect_background) {
    if (!async()) {
      auto r = manager->GetOrBuild(key);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      return r.ok() ? r.ValueOrDie() : nullptr;
    }
    auto r = manager->GetOrBuildAsync(key);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return nullptr;
    EXPECT_EQ(r.ValueOrDie().build_in_flight, expect_background)
        << key.ToString();
    if (!r.ValueOrDie().build_in_flight) return r.ValueOrDie().index;
    EXPECT_EQ(r.ValueOrDie().index, nullptr);
    manager->WaitForBuilds();
    auto ready = manager->GetOrBuildAsync(key);
    EXPECT_TRUE(ready.ok());
    if (!ready.ok()) return nullptr;
    EXPECT_FALSE(ready.ValueOrDie().build_in_flight);
    return ready.ValueOrDie().index;
  }

  void ExpectCounts(const IndexManager& manager, std::uint64_t builds,
                    std::uint64_t refreshes, std::uint64_t invalidations,
                    std::uint64_t disk_gc, std::uint64_t disk_loads,
                    std::uint64_t background_builds) {
    const auto s = manager.stats();
    EXPECT_EQ(s.builds, builds);
    EXPECT_EQ(s.refreshes, refreshes);
    EXPECT_EQ(s.invalidations, invalidations);
    EXPECT_EQ(s.disk_gc, disk_gc);
    EXPECT_EQ(s.disk_loads, disk_loads);
    EXPECT_EQ(s.disk_rejects, 0u);
    EXPECT_EQ(s.background_builds, async() ? background_builds : 0u);
  }
};

TEST_P(IndexLookupLifecycleTest, WalksOneKeyThroughEveryOutcome) {
  const DirGuard dir(FreshTempDir(async() ? "lifecycle_async"
                                          : "lifecycle_sync"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "w_")));
  f.catalog.Put("u", MakeStringTable(Words(100, "u_")));
  ThreadPool pool(2);
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  options.async_builds = async();
  // One-byte budget: every install evicts every other resident entry,
  // but never itself, so a second key is what evicts the first.
  options.memory_budget_bytes = 1;
  IndexManager manager = f.MakeManager(options);
  if (async()) manager.EnableAsyncBuilds(&pool);
  const IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  const IndexKey other{"u", "name", "m", SemanticJoinStrategy::kHnsw};

  // Cold build, then a hit on the same instance.
  EXPECT_EQ(manager.Residency(key), IndexResidency::kAbsent);
  auto built = Lookup(&manager, key, /*expect_background=*/true);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->size(), 400u);
  ExpectCounts(manager, 1, 0, 0, 0, 0, 1);
  const std::uint64_t hits = manager.stats().hits;
  EXPECT_EQ(Lookup(&manager, key, false), built);
  EXPECT_EQ(manager.stats().hits, hits + 1);
  EXPECT_EQ(manager.stats().disk_writes, 1u);

  // 5% appended (20 of 420): refreshed in place.
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(20, "s_"))).ok());
  EXPECT_EQ(manager.Residency(key), IndexResidency::kRefreshable);
  auto refreshed = Lookup(&manager, key, true);
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->size(), 420u);
  ExpectCounts(manager, 1, 1, 0, 0, 0, 2);
  EXPECT_EQ(manager.stats().disk_writes, 2u);

  // 30% appended (180 of 600): past the crossover the stale entry is
  // dropped, its this-process image reclaimed, and the key rebuilt.
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(180, "l_"))).ok());
  EXPECT_EQ(manager.Residency(key), IndexResidency::kAbsent);
  auto rebuilt = Lookup(&manager, key, true);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(rebuilt->size(), 600u);
  ExpectCounts(manager, 2, 1, 1, 1, 0, 3);
  EXPECT_EQ(manager.stats().disk_writes, 3u);

  // Destructive Put: invalidation plus GC of the local image, then a
  // rebuild over the new contents.
  f.catalog.Put("t", MakeStringTable(Words(600, "z_")));
  EXPECT_EQ(manager.Residency(key), IndexResidency::kAbsent);
  auto replaced = Lookup(&manager, key, true);
  ASSERT_NE(replaced, nullptr);
  EXPECT_EQ(replaced->size(), 600u);
  ExpectCounts(manager, 3, 1, 2, 2, 0, 4);
  EXPECT_EQ(manager.stats().disk_writes, 4u);

  // A second key evicts the first; the first then warm-starts from its
  // image without a build, on the async side synchronously too.
  ASSERT_NE(Lookup(&manager, other, true), nullptr);
  EXPECT_EQ(manager.stats().evictions, 1u);
  EXPECT_EQ(manager.Residency(key), IndexResidency::kOnDisk);
  auto warm = Lookup(&manager, key, false);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->size(), 600u);
  ExpectCounts(manager, 4, 1, 2, 2, 1, 5);
  EXPECT_EQ(manager.stats().evictions, 2u);
  EXPECT_EQ(manager.Residency(key), IndexResidency::kResident);
}

INSTANTIATE_TEST_SUITE_P(BlockingAndAsync, IndexLookupLifecycleTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Async")
                                             : std::string("Blocking");
                         });

// ---- engine end to end ----

TEST(IndexPersistenceEngineTest, RestartServesFirstSelectFromDisk) {
  const DirGuard dir(FreshTempDir("engine"));
  const auto words = Words(2000, "item_", 128);

  EngineOptions eo;
  eo.num_threads = 2;
  eo.index.persist_dir = dir.path;

  {
    Engine engine(eo);
    engine.models().Put("m", MakeModel());
    engine.catalog().Put("products", MakeStringTable(words));
    PlanPtr pinned = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                              "name", "item_7", "m", 0.98f);
    pinned->strategy = SemanticJoinStrategy::kHnsw;
    pinned->strategy_pinned = true;
    auto r = engine.Execute(pinned);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The persist write-through runs on the background runner; drain it
    // before reading the counters it bumps.
    engine.index_manager()->WaitForBuilds();
    EXPECT_EQ(engine.index_manager()->stats().builds, 1u);
    EXPECT_EQ(engine.index_manager()->stats().disk_writes, 1u);
  }

  // "Restart": a new engine process over the same persist_dir and the
  // same table contents.
  Engine engine(eo);
  engine.models().Put("m", MakeModel());
  engine.catalog().Put("products", MakeStringTable(words));

  PlanPtr select = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "item_7", "m", 0.98f);
  const std::string before = engine.Explain(select).ValueOrDie();
  EXPECT_NE(before.find("strategy=hnsw (on-disk)"), std::string::npos)
      << before;

  auto indexed = engine.Execute(select->Clone());
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  engine.index_manager()->WaitForBuilds();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.builds, 0u)
      << "the first post-restart select must not rebuild";
  EXPECT_EQ(stats.disk_loads, 1u);

  const std::string after = engine.Explain(select).ValueOrDie();
  EXPECT_NE(after.find("strategy=hnsw (resident)"), std::string::npos)
      << after;

  // Identical rows to the scanning (exact) plan over the same snapshot.
  PlanPtr brute = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                           "name", "item_7", "m", 0.98f);
  brute->strategy_pinned = true;  // stays kBruteForce
  auto exact = engine.Execute(brute);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(indexed.ValueOrDie()->num_rows(), exact.ValueOrDie()->num_rows());
  EXPECT_EQ(indexed.ValueOrDie()->column(0).strings(),
            exact.ValueOrDie()->column(0).strings());
}

TEST(IndexPersistenceEngineTest, PlannerKeepsIndexStrategyAcrossAppends) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(eo);
  engine.models().Put("m", MakeModel());
  engine.catalog().Put("products", MakeStringTable(Words(2000, "item_", 128)));

  // Warm the manager, then append: the *unpinned* planned select must
  // keep choosing the index family (costed as a cheap incremental
  // renewal, EXPLAIN "(refreshable)") — not flip to brute force and
  // strand the refresh path — and executing it must refresh, not
  // rebuild.
  ASSERT_TRUE(engine.index_manager()
                  ->GetOrBuild({"products", "name", "m",
                                SemanticJoinStrategy::kHnsw})
                  .ok());
  ASSERT_TRUE(engine.catalog()
                  .Append("products", *MakeStringTable(Words(200, "item_", 128)))
                  .ok());

  PlanPtr select = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "item_7", "m", 0.98f);
  const std::string explained = engine.Explain(select).ValueOrDie();
  EXPECT_NE(explained.find("strategy=hnsw (refreshable)"), std::string::npos)
      << explained;

  auto r = engine.Execute(select->Clone());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.refreshes, 1u)
      << "the planned query must route through the refresh path";
}

TEST(IndexPersistenceEngineTest, AppendThenSelectRefreshesThroughEngine) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(eo);
  engine.models().Put("m", MakeModel());
  engine.catalog().Put("products", MakeStringTable(Words(1500, "item_", 96)));

  auto make_plan = [] {
    PlanPtr plan = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "item_7", "m", 0.98f);
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    return plan;
  };
  ASSERT_TRUE(engine.Execute(make_plan()).ok());
  EXPECT_EQ(engine.index_manager()->stats().builds, 1u);

  ASSERT_TRUE(engine.catalog()
                  .Append("products", *MakeStringTable(Words(150, "item_", 96)))
                  .ok());
  auto refreshed = engine.Execute(make_plan());
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.builds, 1u) << "append through the engine must refresh";
  EXPECT_EQ(stats.refreshes, 1u);

  // The refreshed index serves exactly what the exact scan serves.
  PlanPtr brute = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                           "name", "item_7", "m", 0.98f);
  brute->strategy_pinned = true;
  auto exact = engine.Execute(brute);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(refreshed.ValueOrDie()->num_rows(),
            exact.ValueOrDie()->num_rows());
}

}  // namespace
}  // namespace cre
