// The benchmark's four workloads. Each one turns a seed into inputs (tables,
// models, a pool of distinct queries and per-client streams over it),
// builds the engine under test, and builds a reference engine that answers
// the same queries with ExecuteUnoptimized.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"

namespace perfbench {

/// One entry of a workload's pool: a query, or (append-serve) a
/// Catalog::Append of prepared rows.
struct Op {
  std::string cls;       ///< "agg", "join", "topk", "select", "semjoin", "append"
  std::string sql;       ///< parsed with sql::ParseSql on the client path
  cre::PlanPtr plan;     ///< executed as built when `sql` is empty
  bool ordered = false;  ///< ORDER BY / top-k: order-sensitive checksum
  /// Index-backed: checked as a subset of the reference, scored by recall.
  bool approximate = false;
  /// fig2: images that pass the query's image predicates.
  double image_candidates = 0;
  cre::TablePtr append_rows;  ///< cls == "append"
  std::string append_table;
};

/// Stream entry that restarts an episode (append-serve): untimed.
constexpr std::size_t kReset = std::numeric_limits<std::size_t>::max();

/// Timings the last set-up recorded (per-layer figures).
struct SetupTimes {
  double load_s = 0;         ///< Catalog::Put of the generated tables
  double index_build_s = 0;  ///< IndexManager::GetOrBuild the workload relies on
};

/// Inputs of the traced run's layer probes.
struct Probes {
  const cre::Table* filter_table = nullptr;
  std::vector<cre::ExprPtr> filter_predicates;
  std::vector<std::string> index_values;   ///< distinct values to index
  std::vector<std::string> index_queries;  ///< strings to range-search
  float threshold = 0.8f;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::size_t clients() const { return 1; }
  /// The percentile latency_tail_ms reports (fixed per workload).
  virtual double tail_pct() const = 0;
  /// Equal time windows the measured loop is cut into; p50, tail and
  /// throughput are medians of the per-window values.
  virtual std::size_t windows() const { return 1; }

  /// Seeded inputs: data, pool and streams. Engine-free.
  virtual void Generate(std::uint64_t seed) = 0;
  /// Builds the engine under test: construction, catalog and model
  /// registration, index builds and a fixed warm-up (what setup_s times).
  virtual std::unique_ptr<cre::Engine> Setup(SetupTimes* times) = 0;
  /// An engine over the same inputs that answers with ExecuteUnoptimized.
  virtual std::unique_ptr<cre::Engine> MakeReferenceEngine() = 0;
  /// Untimed episode restart (append-serve only).
  virtual void Reset(cre::Engine* engine) { (void)engine; }

  /// Registry name and instance of the model semantic operators use.
  virtual std::string model_name() const = 0;
  virtual cre::EmbeddingModelPtr model() const = 0;
  /// Images run through the detector so far (fig2 only).
  virtual std::size_t images_processed() const { return 0; }
  /// Share of rows whose string repeats an earlier row's (0 when n/a).
  virtual double repeat_share() const { return 0; }
  virtual std::string describe() const = 0;
  /// The generated tables (for determinism checks).
  virtual std::vector<cre::TablePtr> inputs() const = 0;

  const std::vector<Op>& pool() const { return pool_; }
  const std::vector<std::size_t>& stream(std::size_t client) const {
    return streams_[client];
  }
  const Probes& probes() const { return probes_; }
  /// The plan whose semantic operator picks the probed index family.
  const Op& family_op() const { return pool_[family_op_]; }

  /// Small inputs (the benchmark's own tests): same structure, sizes cut.
  void set_tiny(bool tiny) { tiny_ = tiny; }

 protected:
  /// An input size: `full`, or `tiny` with small inputs.
  std::size_t Size(std::size_t full, std::size_t tiny) const {
    return tiny_ ? tiny : full;
  }

  bool tiny_ = false;
  std::vector<Op> pool_;
  std::vector<std::vector<std::size_t>> streams_;
  Probes probes_;
  std::size_t family_op_ = 0;
};

/// The workload called `name`, or null; `tiny` cuts its input sizes.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       bool tiny = false);

/// Every workload name, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
