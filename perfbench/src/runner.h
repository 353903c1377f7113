// The measured loop and the answer checks every workload shares.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// One executed query's answer, reduced to what checking needs.
struct Answer {
  std::size_t op = 0;
  bool ok = false;
  std::uint64_t checksum = 0;
  std::vector<std::int64_t> ids;
  std::string error;
};

/// What one measured loop observed.
struct LoopResult {
  std::vector<Sample> samples;  ///< queries only
  std::vector<Answer> answers;  ///< parallel to samples
  std::vector<double> append_seconds;
  std::size_t append_failed = 0;
  double busy_seconds = 0;
  double image_candidates = 0;
  std::size_t images_detected = 0;
  CounterDiff counters;
  cre::MetricsSnapshot final_snapshot;
};

/// What the traced loop records: one trace per stream entry, and the
/// embedding decorator, attached to the in-flight engine.execute span when
/// there is a single client.
struct TraceLog {
  CountingModel* model = nullptr;
  Traces traces;
};

/// Closed loop: each of the workload's clients issues its stream's next
/// entry as soon as the previous one returns, until `seconds` have passed.
/// Episode restarts are untimed. With a `log`, every query records a trace
/// "query:<class>" with sql.parse and engine.execute spans (appends: one
/// storage.append span).
LoopResult RunLoop(Workload* w, cre::Engine* engine, double seconds,
                   TraceLog* log = nullptr);

/// Reference answers of the pool entries in `used`, computed with
/// ExecuteUnoptimized on the workload's reference engine. Appends in the
/// pool are replayed in order, so each query sees the table state it was
/// issued against.
std::map<std::size_t, Reference> ComputeReferences(
    Workload* w, const std::set<std::size_t>& used);

/// Answer-check totals of one loop.
struct CheckTotals {
  /// Per distinct approximate query with a non-empty reference: reference
  /// ids found and expected, summed over its answers.
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> recall_by_op;
  std::size_t wrong = 0;
  std::size_t errors = 0;
};

/// Marks wrong answers as failed samples (latency +inf) and accumulates
/// recall over approximate answers.
CheckTotals CheckAnswers(Workload* w, LoopResult* loop,
                         const std::map<std::size_t, Reference>& refs);

/// The plan of a query entry: its SQL parsed, or its prebuilt plan.
cre::Result<cre::PlanPtr> PlanOf(const Op& op);

/// Recall of approximate answers: the mean over distinct queries of the
/// share of reference ids their answers found, so that a few queries with
/// very many matches do not decide it; 1 when no approximate query had
/// reference rows.
double MeanRecall(const std::vector<const CheckTotals*>& totals);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
