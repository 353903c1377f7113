#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "core/rng.h"
#include "datagen/shop.h"
#include "datagen/vocabulary.h"
#include "embed/embedding_cache.h"
#include "embed/hash_embedding_model.h"
#include "engine/query_builder.h"
#include "sql/parser.h"
#include "vision/object_detector.h"

namespace perfbench {

namespace {

using cre::Engine;
using cre::EngineOptions;
using cre::PlanKind;
using cre::PlanPtr;
using cre::Rng;
using cre::TablePtr;

/// `n` distinct pronounceable words.
std::vector<std::string> MakeVocabulary(Rng& rng, std::size_t n) {
  std::vector<std::string> words;
  std::unordered_set<std::string> seen;
  while (words.size() < n) {
    std::string w = cre::RandomWord(rng, 5, 10);
    if (seen.insert(w).second) words.push_back(std::move(w));
  }
  return words;
}

cre::Schema ItemsSchema() {
  return cre::Schema({{"id", cre::DataType::kInt64, 0},
                      {"grp", cre::DataType::kInt64, 0},
                      {"word", cre::DataType::kString, 0},
                      {"num", cre::DataType::kFloat64, 0},
                      {"score", cre::DataType::kFloat64, 0},
                      {"flag", cre::DataType::kInt64, 0}});
}

/// Appends one items row. `num` is integer-valued so sums are exact in any
/// summation order; `score` is unique per id so top-k has no ties.
void AppendItem(cre::Table* t, std::int64_t id, const std::string& word,
                Rng& rng) {
  t->column(0).AppendInt64(id);
  t->column(1).AppendInt64(static_cast<std::int64_t>(rng.Uniform(1000)));
  t->column(2).AppendString(word);
  t->column(3).AppendFloat64(static_cast<double>(rng.Uniform(100000)));
  t->column(4).AppendFloat64(
      static_cast<double>((static_cast<std::uint64_t>(id) * 2654435761ULL) %
                          1000003ULL) +
      static_cast<double>(id) * 1e-7);
  t->column(5).AppendInt64(static_cast<std::int64_t>(rng.Uniform(16)));
}

/// `rows` items whose words are drawn Zipf from `vocab`.
TablePtr MakeItems(const std::vector<std::string>& vocab, std::size_t rows,
                   Rng& rng) {
  auto t = cre::Table::Make(ItemsSchema());
  t->Reserve(rows);
  const cre::Zipf zipf(vocab.size(), 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    AppendItem(t.get(), static_cast<std::int64_t>(i), vocab[zipf.Sample(rng)],
               rng);
  }
  return t;
}

double RepeatShare(const cre::Table& t, std::size_t column) {
  const auto& s = t.column(column).strings();
  std::unordered_set<std::string> distinct(s.begin(), s.end());
  return s.empty() ? 0
                   : 1.0 - static_cast<double>(distinct.size()) /
                               static_cast<double>(s.size());
}

std::string SelectSql(const std::string& table, const std::string& word,
                      const std::string& model, double threshold) {
  std::ostringstream q;
  q << "SELECT * FROM " << table << " WHERE word SIMILAR TO '" << word
    << "' USING " << model << " THRESHOLD " << threshold;
  return q.str();
}

std::string AggSql(const std::string& table, std::uint64_t min_num) {
  return "SELECT flag, COUNT(*) AS n, SUM(num) AS total FROM " + table +
         " WHERE num > " + std::to_string(min_num) + " GROUP BY flag";
}

const cre::PlanNode* FindNode(const cre::PlanNode& n, PlanKind kind) {
  if (n.kind == kind) return &n;
  for (const auto& c : n.children) {
    if (const cre::PlanNode* hit = FindNode(*c, kind)) return hit;
  }
  return nullptr;
}

/// Builds, through the engine's IndexManager, the index the optimizer
/// picks for the semantic select `sql`; returns the build seconds (0 when
/// the optimizer keeps the brute-force scan).
double BuildChosenIndex(Engine* engine, const std::string& sql,
                        const std::string& table) {
  auto parsed = cre::sql::ParseSql(sql);
  if (!parsed.ok()) return 0;
  auto optimized = engine->MakeOptimizer().Optimize(parsed.ValueUnsafe());
  if (!optimized.ok()) return 0;
  const cre::PlanNode* sel =
      FindNode(*optimized.ValueUnsafe(), PlanKind::kSemanticSelect);
  if (sel == nullptr || !sel->IndexBackedSelect()) return 0;
  const Clock::time_point start = Clock::now();
  auto index = engine->index_manager()->GetOrBuild(
      {table, sel->column, sel->model_name, sel->strategy});
  const double seconds = SecondsSince(start);
  if (!index.ok()) {
    std::fprintf(stderr, "perfbench: index build failed: %s\n",
                 index.status().ToString().c_str());
  }
  return seconds;
}

/// Executes `sql` once, ignoring the answer (warm-up).
void WarmUp(Engine* engine, const std::string& sql) {
  auto plan = cre::sql::ParseSql(sql);
  if (plan.ok()) (void)engine->Execute(plan.ValueUnsafe());
}

/// Reference engines share the inputs but embed through an LRU wrapper
/// around the same model, which returns the model's own vectors: the
/// exact brute-force reference scans then embed each distinct string once.
cre::EmbeddingModelPtr ReferenceModel(const cre::EmbeddingModelPtr& model) {
  return std::make_shared<cre::CachingEmbeddingModel>(model, 1 << 20);
}

std::unique_ptr<Engine> NewReferenceEngine() {
  EngineOptions eo;
  eo.index.enabled = false;
  eo.plan_cache.enabled = false;
  return std::make_unique<Engine>(eo);
}

/// At least `length` entries: random permutations of 0..n-1, back to back,
/// so every value occurs equally often in any stretch of the stream.
std::vector<std::size_t> Permutations(std::size_t n, std::size_t length,
                                      Rng& rng) {
  std::vector<std::size_t> out;
  while (out.size() < length) {
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    out.insert(out.end(), perm.begin(), perm.end());
  }
  return out;
}

/// A value from slice `i` of `n` equal slices of [lo, hi): seeded literals
/// cover their range evenly, so every seed's pool costs about the same.
double Stratified(Rng& rng, std::size_t i, std::size_t n, double lo,
                  double hi) {
  return lo + (hi - lo) * (static_cast<double>(i) + rng.NextDouble()) /
                  static_cast<double>(n);
}

// ------------------------------------------------------ fig2-multisource

/// The paper's Fig. 2 query: products (price filter) semantically joined
/// to the KB's clothing category and to a detection scan of images (date
/// and object-count filters), with seeded literals.
class Fig2Multisource : public Workload {
 public:
  std::string name() const override { return "fig2-multisource"; }
  double tail_pct() const override { return 75; }

  void Generate(std::uint64_t seed) override {
    cre::ShopOptions so;
    so.num_products = Size(4000, 300);
    so.num_images = Size(3000, 200);
    so.num_transactions = 1000;
    so.seed = 2024;
    ds_ = std::make_unique<cre::ShopDataset>(cre::GenerateShopDataset(so));
    kb_category_ = ds_->kb.Export("category");
    constexpr double kDetectorUsPerImage = 500;
    detector_ = std::make_unique<cre::ObjectDetector>(
        cre::ObjectDetector::Options{kDetectorUsPerImage, 77});
    // Same outputs as detector_ (they depend on the seed, not the cost).
    free_detector_ = std::make_unique<cre::ObjectDetector>(
        cre::ObjectDetector::Options{0, 77});

    // Literal pool: price and date literals near the paper's example
    // (price > 20, date > 19450), so every query runs a similar share of
    // the images through the detector and the median is steady.
    Rng rng(seed ^ 0xf162);
    const std::size_t n = Size(16, 2);
    for (std::size_t i = 0; i < n; ++i) {
      const double price =
          std::floor(Stratified(rng, (i * 3) % n, n, 15, 26));
      const auto date =
          static_cast<std::int64_t>(Stratified(rng, i, n, 19440, 19461));
      Op op;
      op.cls = "semjoin";
      op.plan = Query(price, date);
      std::size_t candidates = 0;
      for (const auto& img : ds_->images.images()) {
        if (img.date_taken > date && img.objects.size() > 2) ++candidates;
      }
      op.image_candidates = static_cast<double>(candidates);
      pool_.push_back(std::move(op));
    }
    // Every literal pair runs equally often.
    streams_ = {Permutations(pool_.size(), 4096, rng)};

    probes_.filter_table = ds_->products.get();
    for (const double p : {15.0, 20.0, 25.0}) {
      probes_.filter_predicates.push_back(cre::Gt(cre::Col("price"), cre::Lit(p)));
    }
    std::unordered_set<std::string> labels;
    if (auto col = ds_->products->ColumnByName("type_label"); col.ok()) {
      const auto& strings = col.ValueUnsafe()->strings();
      labels.insert(strings.begin(), strings.end());
    }
    probes_.index_values.assign(labels.begin(), labels.end());
    std::sort(probes_.index_values.begin(), probes_.index_values.end());
    probes_.index_queries = ds_->clothing_concepts;
    probes_.threshold = 0.8f;
  }

  std::unique_ptr<Engine> Setup(SetupTimes* times) override {
    auto engine = std::make_unique<Engine>();
    Register(engine.get(), detector_.get(), ds_->model, times);
    // Warm-up: the paper's literals.
    (void)engine->Execute(Query(20.0, 19450));
    return engine;
  }

  std::unique_ptr<Engine> MakeReferenceEngine() override {
    auto engine = NewReferenceEngine();
    Register(engine.get(), free_detector_.get(), ReferenceModel(ds_->model),
             nullptr);
    return engine;
  }

  std::string model_name() const override { return "shop"; }
  cre::EmbeddingModelPtr model() const override { return ds_->model; }
  std::size_t images_processed() const override {
    return detector_->images_processed();
  }
  std::vector<TablePtr> inputs() const override {
    return {ds_->products, kb_category_, ds_->images.MetadataTable()};
  }
  std::string describe() const override {
    return "products=" + std::to_string(ds_->products->num_rows()) +
           " images=" + std::to_string(ds_->images.size()) +
           " detector_us=" + std::to_string(detector_->cost_per_image_us()) +
           " literal_pool=" + std::to_string(pool_.size());
  }

 private:
  static PlanPtr Query(double price, std::int64_t date) {
    // QueryBuilder needs its engine only to execute; the plan names tables,
    // so any engine with the same catalog names can run it.
    Engine* e = nullptr;
    return cre::QueryBuilder(e)
        .Scan("products")
        .Filter(cre::Gt(cre::Col("price"), cre::Lit(price)))
        .SemanticJoinWith(cre::QueryBuilder(e)
                              .Scan("kb_category")
                              .Filter(cre::Eq(cre::Col("object"),
                                              cre::Lit("clothes"))),
                          "type_label", "subject", "shop", 0.80f)
        .SemanticJoinWith(
            cre::QueryBuilder(e)
                .DetectScan("shop_images")
                .Filter(cre::And(
                    cre::Gt(cre::Col("date_taken"), cre::Lit(cre::Value::Date(date))),
                    cre::Gt(cre::Col("objects_in_image"), cre::Lit(2)))),
            "type_label", "object_label", "shop", 0.80f)
        .plan();
  }

  void Register(Engine* engine, cre::ObjectDetector* detector,
                cre::EmbeddingModelPtr model, SetupTimes* times) {
    const Clock::time_point start = Clock::now();
    engine->catalog().Put("products", ds_->products);
    engine->catalog().Put("kb_category", kb_category_);
    if (times != nullptr) times->load_s = SecondsSince(start);
    engine->models().Put("shop", std::move(model));
    engine->detectors().Put("shop_images", {&ds_->images, detector});
  }

  std::unique_ptr<cre::ShopDataset> ds_;
  TablePtr kb_category_;
  std::unique_ptr<cre::ObjectDetector> detector_;
  std::unique_ptr<cre::ObjectDetector> free_detector_;
};

// --------------------------------------------------------- semantic-scan

/// A brute-force semantic select over a Zipf-distributed string column,
/// a fresh query word each query.
class SemanticScan : public Workload {
 public:
  std::string name() const override { return "semantic-scan"; }
  double tail_pct() const override { return 75; }

  void Generate(std::uint64_t seed) override {
    Rng data(5);
    vocab_ = MakeVocabulary(data, Size(5000, 300));
    docs_ = MakeItems(vocab_, Size(200000, 3000), data);
    Rng rng(seed ^ 0x5ca9);
    model_ = std::make_shared<cre::HashEmbeddingModel>();
    constexpr double threshold = 0.8;
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < 2048; ++i) {
      const std::size_t rank = 50 + rng.Uniform(vocab_.size() - 50);
      Op op;
      op.cls = "select";
      op.sql = SelectSql("docs", cre::Misspell(vocab_[rank], rng), "m",
                         threshold);
      pool_.push_back(std::move(op));
      s.push_back(i);
    }
    streams_ = {s};
    warmup_sql_ = SelectSql("docs", cre::RandomWord(rng, 5, 10), "m", threshold);
    probes_.index_values = vocab_;
    for (std::size_t i = 0; i < 32; ++i) {
      probes_.index_queries.push_back(vocab_[50 + rng.Uniform(vocab_.size() - 50)]);
    }
    probes_.threshold = static_cast<float>(threshold);
  }

  std::unique_ptr<Engine> Setup(SetupTimes* times) override {
    auto engine = std::make_unique<Engine>();
    const Clock::time_point start = Clock::now();
    engine->catalog().Put("docs", docs_);
    times->load_s = SecondsSince(start);
    engine->models().Put("m", model_);
    WarmUp(engine.get(), warmup_sql_);
    return engine;
  }

  std::unique_ptr<Engine> MakeReferenceEngine() override {
    auto engine = NewReferenceEngine();
    engine->catalog().Put("docs", docs_);
    engine->models().Put("m", ReferenceModel(model_));
    return engine;
  }

  std::string model_name() const override { return "m"; }
  cre::EmbeddingModelPtr model() const override { return model_; }
  double repeat_share() const override { return RepeatShare(*docs_, 2); }
  std::vector<TablePtr> inputs() const override { return {docs_}; }
  std::string describe() const override {
    return "rows=" + std::to_string(docs_->num_rows()) +
           " distinct_words=" + std::to_string(vocab_.size()) + " zipf_s=1.0";
  }

 private:
  std::vector<std::string> vocab_;
  TablePtr docs_;
  cre::EmbeddingModelPtr model_;
  std::string warmup_sql_;
};

// ----------------------------------------------------------- serving-mix

/// Four closed-loop clients over relational query classes with
/// index-backed semantic selects mixed in.
class ServingMix : public Workload {
 public:
  std::string name() const override { return "serving-mix"; }
  std::size_t clients() const override { return 4; }
  double tail_pct() const override { return 95; }
  std::size_t windows() const override { return 10; }

  void Generate(std::uint64_t seed) override {
    Rng data(6);
    vocab_ = MakeVocabulary(data, Size(5000, 300));
    items_ = MakeItems(vocab_, Size(200000, 5000), data);
    dims_ = cre::Table::Make(cre::Schema({{"dkey", cre::DataType::kInt64, 0},
                                          {"region", cre::DataType::kInt64, 0},
                                          {"weight", cre::DataType::kFloat64, 0}}));
    for (std::int64_t k = 0; k < 1000; ++k) {
      dims_->column(0).AppendInt64(k);
      dims_->column(1).AppendInt64(static_cast<std::int64_t>(data.Uniform(8)));
      dims_->column(2).AppendFloat64(static_cast<double>(data.Uniform(100)));
    }
    Rng rng(seed ^ 0x5e7e);
    model_ = std::make_shared<cre::HashEmbeddingModel>();

    std::vector<std::vector<std::size_t>> by_class(4);
    auto add = [&](std::size_t c, Op op) {
      by_class[c].push_back(pool_.size());
      pool_.push_back(std::move(op));
    };
    // Literals are stratified over their ranges; the permuted slice
    // indices keep the literals of one query class uncorrelated.
    const std::size_t n = Size(32, 2);
    for (std::size_t i = 0; i < n; ++i) {
      const auto min_num =
          static_cast<std::uint64_t>(Stratified(rng, i, n, 0, 100000));
      Op agg;
      agg.cls = "agg";
      agg.sql = AggSql("items", min_num);
      add(0, agg);
      probes_.filter_predicates.push_back(cre::Gt(
          cre::Col("num"), cre::Lit(static_cast<double>(min_num))));

      Op join;
      join.cls = "join";
      join.sql =
          "SELECT region, COUNT(*) AS n, SUM(num) AS total FROM items JOIN "
          "dims ON grp = dkey WHERE weight < " +
          std::to_string(static_cast<int>(
              Stratified(rng, (i * 5 + 1) % n, n, 10, 100))) +
          " AND num > " +
          std::to_string(static_cast<int>(
              Stratified(rng, (i * 7 + 3) % n, n, 0, 100000))) +
          " GROUP BY region";
      add(1, join);

      Op topk;
      topk.cls = "topk";
      topk.sql = "SELECT id, score FROM items WHERE flag = " +
                 std::to_string(i % 16) + " ORDER BY score DESC LIMIT " +
                 std::to_string(static_cast<int>(
                     Stratified(rng, (i * 3 + 2) % n, n, 10, 101)));
      topk.ordered = true;
      add(2, topk);
    }
    // More select words than literals per relational class: recall is
    // averaged over the words whose reference is not empty, about one in
    // ten at this threshold, and fewer words make it depend on the seed.
    const std::size_t words = Size(1024, 4);
    for (std::size_t i = 0; i < words; ++i) {
      // Word ranks log-stratified over [50, distinct): matches range
      // from a few hundred rows down to a handful.
      const double lo = 50;
      const double hi = static_cast<double>(vocab_.size());
      const auto rank = static_cast<std::size_t>(
          lo * std::pow(hi / lo, Stratified(rng, i, words, 0, 1)));
      Op sel;
      sel.cls = "select";
      sel.sql = SelectSql("items", cre::Misspell(vocab_[rank], rng), "m", 0.8);
      sel.approximate = true;
      if (i == 0) family_op_ = pool_.size();
      add(3, sel);
    }
    // An even mix: each client cycles through the four classes in random
    // order, drawing a query of the class uniformly.
    for (std::size_t c = 0; c < clients(); ++c) {
      std::vector<std::size_t> s = Permutations(by_class.size(), 1 << 16, rng);
      for (std::size_t& idx : s) {
        idx = by_class[idx][rng.Uniform(by_class[idx].size())];
      }
      streams_.push_back(std::move(s));
    }
    probes_.filter_table = items_.get();
    probes_.index_values = vocab_;
    for (std::size_t i = 0; i < 32; ++i) {
      probes_.index_queries.push_back(
          cre::Misspell(vocab_[rng.Uniform(vocab_.size())], rng));
    }
  }

  std::unique_ptr<Engine> Setup(SetupTimes* times) override {
    EngineOptions eo;
    eo.optimizer.index_reuse_horizon = 16;
    auto engine = std::make_unique<Engine>(eo);
    const Clock::time_point start = Clock::now();
    engine->catalog().Put("items", items_);
    engine->catalog().Put("dims", dims_);
    times->load_s = SecondsSince(start);
    engine->models().Put("m", model_);
    times->index_build_s =
        BuildChosenIndex(engine.get(), family_op().sql, "items");
    for (std::size_t c = 0; c < 4; ++c) WarmUp(engine.get(), pool_[c].sql);
    return engine;
  }

  std::unique_ptr<Engine> MakeReferenceEngine() override {
    auto engine = NewReferenceEngine();
    engine->catalog().Put("items", items_);
    engine->catalog().Put("dims", dims_);
    engine->models().Put("m", ReferenceModel(model_));
    return engine;
  }

  std::string model_name() const override { return "m"; }
  cre::EmbeddingModelPtr model() const override { return model_; }
  double repeat_share() const override { return RepeatShare(*items_, 2); }
  std::vector<TablePtr> inputs() const override { return {items_, dims_}; }
  std::string describe() const override {
    return "items=" + std::to_string(items_->num_rows()) +
           " dims=" + std::to_string(dims_->num_rows()) +
           " distinct_words=" + std::to_string(vocab_.size()) +
           " clients=" + std::to_string(clients()) +
           " pool=" + std::to_string(pool_.size()) +
           " mix=even:agg,join,topk,select";
  }

 private:
  std::vector<std::string> vocab_;
  TablePtr items_;
  TablePtr dims_;
  cre::EmbeddingModelPtr model_;
};

// ---------------------------------------------------------- append-serve

/// One client: each step appends rows of mostly new strings, then runs an
/// index-backed semantic select and a relational aggregate on the grown
/// table. A fixed episode of steps repeats from the base table, so every
/// episode does identical work.
class AppendServe : public Workload {
 public:
  std::string name() const override { return "append-serve"; }
  double tail_pct() const override { return 95; }
  std::size_t windows() const override { return 3; }

  void Generate(std::uint64_t seed) override {
    Rng data(7);
    vocab_ = MakeVocabulary(data, Size(2000, 200));
    base_ = MakeItems(vocab_, Size(20000, 1000), data);
    Rng rng(seed ^ 0xa99e);
    model_ = std::make_shared<cre::HashEmbeddingModel>();
    steps_ = Size(16, 3);
    batch_ = Size(256, 16);
    constexpr double fresh = 0.9;
    std::int64_t next_id = static_cast<std::int64_t>(base_->num_rows());
    std::vector<std::size_t> episode;
    std::size_t appended = 0;
    std::size_t appended_fresh = 0;
    for (std::size_t step = 0; step < steps_; ++step) {
      Op app;
      app.cls = "append";
      app.append_table = "items";
      app.append_rows = cre::Table::Make(ItemsSchema());
      std::vector<std::string> fresh_words;
      for (std::size_t j = 0; j < batch_; ++j) {
        std::string w;
        if (rng.NextDouble() < fresh) {
          // A word no earlier row holds: a random stem plus the row id.
          w = cre::RandomWord(rng, 4, 7) + "x" + std::to_string(next_id);
          fresh_words.push_back(w);
          ++appended_fresh;
        } else {
          w = vocab_[rng.Uniform(vocab_.size())];
        }
        AppendItem(app.append_rows.get(), next_id++, w, rng);
        ++appended;
      }
      episode.push_back(pool_.size());
      pool_.push_back(std::move(app));

      Op sel;
      sel.cls = "select";
      const std::string& target =
          fresh_words.empty() ? vocab_[0]
                              : fresh_words[rng.Uniform(fresh_words.size())];
      sel.sql = SelectSql("items", cre::Misspell(target, rng), "m", 0.7);
      sel.approximate = true;
      episode.push_back(pool_.size());
      if (step == 0) family_op_ = pool_.size();
      pool_.push_back(std::move(sel));

      // Three aggregates per select: a choice for the statistics, not a
      // traffic model. With one of each, the median falls on the gap
      // between the aggregate class and the far slower select class and
      // flips between them from window to window. This way the median sees
      // the aggregate class and the tail the select class.
      for (std::size_t k = 0; k < kAggsPerSelect; ++k) {
        Op agg;
        agg.cls = "agg";
        const auto min_num = static_cast<std::uint64_t>(
            Stratified(rng, step * kAggsPerSelect + k,
                       steps_ * kAggsPerSelect, 0, 100000));
        agg.sql = AggSql("items", min_num);
        probes_.filter_predicates.push_back(
            cre::Gt(cre::Col("num"), cre::Lit(static_cast<double>(min_num))));
        episode.push_back(pool_.size());
        pool_.push_back(std::move(agg));
      }
    }
    fresh_share_ = appended == 0 ? 0
                                 : static_cast<double>(appended_fresh) /
                                       static_cast<double>(appended);
    std::vector<std::size_t> s;
    for (std::size_t e = 0; e < 256; ++e) {
      s.push_back(kReset);
      s.insert(s.end(), episode.begin(), episode.end());
    }
    streams_ = {s};
    warmup_sql_ = SelectSql("items", vocab_[1], "m", 0.8);
    probes_.filter_table = base_.get();
    probes_.index_values = vocab_;
    for (std::size_t i = 0; i < 32; ++i) {
      probes_.index_queries.push_back(
          cre::Misspell(vocab_[rng.Uniform(vocab_.size())], rng));
    }
  }

  std::unique_ptr<Engine> Setup(SetupTimes* times) override {
    EngineOptions eo;
    eo.optimizer.index_reuse_horizon = 16;
    auto engine = std::make_unique<Engine>(eo);
    const Clock::time_point start = Clock::now();
    engine->catalog().Put("items", base_);
    times->load_s = SecondsSince(start);
    engine->models().Put("m", model_);
    times->index_build_s =
        BuildChosenIndex(engine.get(), family_op().sql, "items");
    WarmUp(engine.get(), warmup_sql_);
    WarmUp(engine.get(), AggSql("items", 50000));
    return engine;
  }

  std::unique_ptr<Engine> MakeReferenceEngine() override {
    auto engine = NewReferenceEngine();
    engine->catalog().Put("items", base_);
    engine->models().Put("m", ReferenceModel(model_));
    return engine;
  }

  /// Back to the base table; the warm-up select rebuilds the index so the
  /// episode starts from the same resident state as the first one.
  void Reset(Engine* engine) override {
    engine->catalog().Put("items", base_);
    WarmUp(engine, warmup_sql_);
  }

  std::string model_name() const override { return "m"; }
  cre::EmbeddingModelPtr model() const override { return model_; }
  double repeat_share() const override { return 1.0 - fresh_share_; }
  std::vector<TablePtr> inputs() const override {
    std::vector<TablePtr> out = {base_};
    for (const Op& op : pool_) {
      if (op.append_rows != nullptr) out.push_back(op.append_rows);
    }
    return out;
  }
  std::string describe() const override {
    return "base_rows=" + std::to_string(base_->num_rows()) +
           " steps=" + std::to_string(steps_) +
           " batch=" + std::to_string(batch_) +
           " queries_per_step=" + std::to_string(1 + kAggsPerSelect) +
           " fresh_share=" + std::to_string(fresh_share_);
  }

 private:
  static constexpr std::size_t kAggsPerSelect = 3;

  std::vector<std::string> vocab_;
  TablePtr base_;
  cre::EmbeddingModelPtr model_;
  std::string warmup_sql_;
  std::size_t steps_ = 0;
  std::size_t batch_ = 0;
  double fresh_share_ = 0;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"fig2-multisource", "semantic-scan", "serving-mix", "append-serve"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool tiny) {
  std::unique_ptr<Workload> w;
  if (name == "fig2-multisource") w = std::make_unique<Fig2Multisource>();
  if (name == "semantic-scan") w = std::make_unique<SemanticScan>();
  if (name == "serving-mix") w = std::make_unique<ServingMix>();
  if (name == "append-serve") w = std::make_unique<AppendServe>();
  if (w != nullptr) w->set_tiny(tiny);
  return w;
}

}  // namespace perfbench
