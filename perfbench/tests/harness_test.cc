// Unit tests of the benchmark's own machinery: the tail-percentile rule,
// seed determinism of every workload's inputs and query streams, and the
// accounting of failed and wrong answers. Exits non-zero if any check fails.
//
//   perfbench_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "embed/hash_embedding_model.h"
#include "harness.h"
#include "runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestTailPercentileRule() {
  // The highest ladder percentile with at least 10 samples beyond it.
  EXPECT(HighestSupportedPercentile(19) == 0);
  EXPECT(HighestSupportedPercentile(20) == 50);
  EXPECT(HighestSupportedPercentile(39) == 50);
  EXPECT(HighestSupportedPercentile(40) == 75);
  EXPECT(HighestSupportedPercentile(99) == 75);
  EXPECT(HighestSupportedPercentile(100) == 90);
  EXPECT(HighestSupportedPercentile(200) == 95);
  EXPECT(HighestSupportedPercentile(1000) == 99);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  // The rule itself: at least 10 samples lie above the chosen percentile.
  for (std::size_t n : {20u, 57u, 100u, 333u, 2500u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    const double p = HighestSupportedPercentile(n);
    const double at = Percentile(v, p);
    std::size_t beyond = 0;
    for (const double x : v) beyond += x > at ? 1 : 0;
    EXPECT(beyond >= 10);
  }
  // Nearest rank.
  EXPECT(Percentile({5, 1, 4, 2, 3}, 50) == 3);
  EXPECT(Percentile({5, 1, 4, 2, 3}, 100) == 5);
  EXPECT(Percentile({5, 1, 4, 2, 3}, 0) == 1);
}

std::string Fingerprint(const Workload& w) {
  std::string out;
  for (const auto& t : w.inputs()) {
    out += std::to_string(TableChecksum(*t, true)) + ";";
  }
  for (const Op& op : w.pool()) {
    out += op.cls + ":" + op.sql + ":" + (op.plan ? op.plan->ToString() : "");
    if (op.append_rows) out += std::to_string(TableChecksum(*op.append_rows, true));
    out += "|";
  }
  for (std::size_t c = 0; c < w.clients(); ++c) {
    for (const std::size_t i : w.stream(c)) out += std::to_string(i) + ",";
    out += "/";
  }
  return out;
}

void TestSeedDeterminism() {
  for (const std::string& name : WorkloadNames()) {
    std::string prints[3];
    const std::uint64_t seeds[3] = {7, 7, 8};
    for (int i = 0; i < 3; ++i) {
      // Tiny sizes so the test stays fast; the structure is the real one.
      auto w = MakeWorkload(name, /*tiny=*/true);
      w->Generate(seeds[i]);
      prints[i] = Fingerprint(*w);
    }
    if (prints[0] != prints[1]) {
      std::fprintf(stderr, "%s: same seed, different inputs\n", name.c_str());
    }
    if (prints[0] == prints[2]) {
      std::fprintf(stderr, "%s: other seed, same inputs\n", name.c_str());
    }
    EXPECT(prints[0] == prints[1]);
    EXPECT(prints[0] != prints[2]);
  }
}

/// Two queries over a small table; the second names a model the engine
/// does not have.
class FailingWorkload : public Workload {
 public:
  std::string name() const override { return "failing"; }
  double tail_pct() const override { return 90; }
  void Generate(std::uint64_t) override {
    table_ = cre::Table::Make(cre::Schema({{"id", cre::DataType::kInt64, 0},
                                           {"word", cre::DataType::kString, 0}}));
    for (int i = 0; i < 200; ++i) {
      table_->column(0).AppendInt64(i);
      table_->column(1).AppendString(i % 2 ? "apple" : "pear");
    }
    Op good;
    good.cls = "agg";
    good.sql = "SELECT COUNT(*) AS n FROM t WHERE id > 10";
    Op bad;
    bad.cls = "select";
    bad.sql = "SELECT * FROM t WHERE word SIMILAR TO 'apple' USING nosuchmodel";
    pool_ = {good, bad};
    streams_ = {{0, 0, 0, 1}};
  }
  std::unique_ptr<cre::Engine> Setup(SetupTimes*) override {
    return MakeReferenceEngine();
  }
  std::unique_ptr<cre::Engine> MakeReferenceEngine() override {
    auto e = std::make_unique<cre::Engine>();
    e->catalog().Put("t", table_);
    e->models().Put("m", model());
    return e;
  }
  std::string model_name() const override { return "m"; }
  cre::EmbeddingModelPtr model() const override {
    return std::make_shared<cre::HashEmbeddingModel>();
  }
  std::string describe() const override { return ""; }
  std::vector<cre::TablePtr> inputs() const override { return {table_}; }

 private:
  cre::TablePtr table_;
};

void TestForcedFailureCounts() {
  FailingWorkload w;
  w.Generate(1);
  SetupTimes times;
  auto engine = w.Setup(&times);
  LoopResult loop = RunLoop(&w, engine.get(), 0.3);
  std::set<std::size_t> used;
  for (const Answer& a : loop.answers) used.insert(a.op);
  const CheckTotals totals = CheckAnswers(&w, &loop, ComputeReferences(&w, used));
  const LoopSummary s = Summarize(loop.samples, loop.busy_seconds, w.tail_pct());
  EXPECT(s.attempted >= 4);
  EXPECT(totals.errors == s.failed);
  EXPECT(totals.wrong == 0);
  // One query in four fails: error rate 1/4, the p90 tail is a failure,
  // the median is not.
  const double error_rate =
      static_cast<double>(s.failed) / static_cast<double>(s.attempted);
  EXPECT(std::fabs(error_rate - 0.25) < 0.05);
  EXPECT(s.tail_ms == kFailedLatencyMs);
  EXPECT(s.p50_ms < kFailedLatencyMs);
}

void TestAnswerChecks() {
  // An exact answer that differs from its reference has another checksum.
  cre::Table answer(cre::Schema({{"id", cre::DataType::kInt64, 0}}));
  answer.column(0).AppendInt64(1);
  answer.column(0).AppendInt64(2);
  const std::uint64_t before = TableChecksum(answer, false);
  answer.column(0).AppendInt64(4);
  EXPECT(TableChecksum(answer, false) != before);
  // Order matters only to the ordered checksum.
  cre::Table swapped(cre::Schema({{"id", cre::DataType::kInt64, 0}}));
  for (const std::int64_t id : {4, 2, 1}) swapped.column(0).AppendInt64(id);
  EXPECT(TableChecksum(swapped, false) == TableChecksum(answer, false));
  EXPECT(TableChecksum(swapped, true) != TableChecksum(answer, true));
  // Columns in another order agree; values swapped between columns do not.
  auto two = [](const char* first, const char* second, std::int64_t a,
                std::int64_t b) {
    cre::Table t(cre::Schema({{first, cre::DataType::kInt64, 0},
                              {second, cre::DataType::kInt64, 0}}));
    t.column(0).AppendInt64(a);
    t.column(1).AppendInt64(b);
    return TableChecksum(t, false);
  };
  EXPECT(two("n", "total", 3, 40) == two("total", "n", 40, 3));
  EXPECT(two("n", "total", 3, 40) != two("n", "total", 40, 3));
  // Approximate: a subset is correct and scored by recall; an extra id is not.
  Reference ref;
  ref.ok = true;
  ref.ids = {1, 2, 3};
  const Verdict v = CheckIds({3, 1}, ref);
  EXPECT(v.correct && v.found == 2 && v.expected == 3);
  EXPECT(!CheckIds({1, 2, 4}, ref).correct);
  EXPECT(!CheckIds({1, 1}, ref).correct);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTailPercentileRule();
  perfbench::TestAnswerChecks();
  perfbench::TestSeedDeterminism();
  perfbench::TestForcedFailureCounts();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
