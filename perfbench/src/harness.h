// Workload-independent pieces of the repository benchmark: latency
// statistics, answer checksums, engine counter diffs, span totals over
// query traces, the counting embedding-model decorator, machine facts, and
// the result line.
//
// Everything here observes the engine from outside, through its public
// entry points and its cre_* metrics; nothing changes engine behaviour.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/model_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Failed queries are recorded as +infinity, so they sort past every
/// latency limit.
double Percentile(std::vector<double> values, double p);

/// The highest percentile of the ladder {50, 75, 90, 95, 99, 99.9} that
/// leaves at least 10 of `n` samples beyond it; 0 when n < 20.
double HighestSupportedPercentile(std::size_t n);

double Median(std::vector<double> values);

/// One query's outcome as the client saw it.
struct Sample {
  std::string cls;       ///< query class ("agg", "select", ...)
  double seconds = 0;    ///< client-side latency; +inf when failed
  bool failed = false;   ///< non-OK status or wrong answer
  double issued = 0;     ///< measured loop time at issue, seconds
};

/// Aggregated end-to-end figures of one measured loop.
struct LoopSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_pct = 0;        ///< the percentile tail_ms reports
  double supported_pct = 0;   ///< highest percentile the samples support
  double throughput_qps = 0;
  double mean_ms = 0;         ///< over successful queries
  std::map<std::string, double> class_p50_ms;
  std::vector<double> window_p50_ms;  ///< per window, for the run log
  std::vector<double> window_qps;
};

/// Summarizes `samples` measured over `busy_seconds` of loop time. With
/// `windows` > 1 the loop time is cut into that many equal windows and
/// p50, tail and throughput are the medians of their per-window values, so
/// a burst of interference from outside the process that slows one window
/// does not move them; `supported_pct` then counts samples per window.
LoopSummary Summarize(const std::vector<Sample>& samples, double busy_seconds,
                      double tail_pct, std::size_t windows = 1);

/// Latencies are reported in JSON, which has no infinity: a percentile
/// that lands on a failed query prints as this many milliseconds.
constexpr double kFailedLatencyMs = 1e9;

// ------------------------------------------------------------ checksums

/// Order-insensitive (sum of row hashes) or order-sensitive (chained)
/// checksum over every value of `table`, combined with its row count. A
/// row hashes as the set of its (column name, value) pairs: the same rows
/// with columns in another order agree, values swapped between columns
/// do not.
std::uint64_t TableChecksum(const cre::Table& table, bool ordered);

/// Values of the int64 column `column` (empty when absent).
std::vector<std::int64_t> IdColumn(const cre::Table& table,
                                   const std::string& column);

/// Reference answer of one distinct query.
struct Reference {
  bool ok = false;
  std::uint64_t checksum = 0;
  std::vector<std::int64_t> ids;  ///< sorted; for recall of approximate answers
};

/// Outcome of checking one answer against its reference.
struct Verdict {
  bool correct = false;
  std::size_t found = 0;     ///< reference ids present in the answer
  std::size_t expected = 0;  ///< reference ids
};

/// An index-backed (approximate) answer, given by its ids, is correct when
/// its ids are distinct and a subset of the reference ids; the share of
/// reference ids it contains is its recall. Exact answers are checked by
/// comparing TableChecksum with the reference checksum.
Verdict CheckIds(std::vector<std::int64_t> got, const Reference& ref);

// ------------------------------------------------------ engine counters

/// Every counter and gauge of `s` by name (summed over label sets) and by
/// `name{key=value,...}`; every histogram as `name.sum` and `name.count`.
std::map<std::string, double> Flatten(const cre::MetricsSnapshot& s);

/// Accumulates `after - before` differences of the cre_* instruments over
/// possibly several measured intervals.
class CounterDiff {
 public:
  void Add(const cre::MetricsSnapshot& before,
           const cre::MetricsSnapshot& after);
  double Get(const std::string& name) const;

 private:
  std::map<std::string, double> totals_;
};

// --------------------------------------------------------------- tracing

/// The traced run keeps one cre::QueryTrace per stream entry; its root is
/// "query:<class>" with sql.parse, engine.execute and embed.call spans
/// nested under it.
using Traces = std::vector<std::shared_ptr<cre::QueryTrace>>;

/// Seconds of `span` that none of its children cover. Children may overlap
/// (embedding calls from several worker threads), so the covered time is
/// the union of their intervals.
double SelfSeconds(const cre::TraceSpan& span);

/// Per span name over every span of `traces`: number of spans, summed
/// duration and summed self time.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const Traces& traces);

/// Writes one JSON object per trace: its id, label and compact span tree.
/// False on IO failure.
bool WriteTraces(const Traces& traces, const std::string& path);

// ----------------------------------------------------- embed decorator

/// Embedding-model decorator the traced run registers around a workload's
/// model. It forwards name, dim and cost_ns_per_embedding, so plans are
/// unchanged, and records per call: strings embedded, busy time (summed
/// over the calling threads) and, per query, the distinct strings, so that
/// distinct/embedded measures embeds repeated within one query. Calls nest
/// an embed.call span under the attached span and count toward its query;
/// only a single client attaches, so with several clients the whole loop
/// counts as one query and no embed.call spans are recorded.
class CountingModel : public cre::EmbeddingModel {
 public:
  explicit CountingModel(cre::EmbeddingModelPtr inner)
      : inner_(std::move(inner)) {}

  std::size_t dim() const override { return inner_->dim(); }
  std::string name() const override { return inner_->name(); }
  double cost_ns_per_embedding() const override {
    return inner_->cost_ns_per_embedding();
  }
  void Embed(std::string_view text, float* out) const override;
  void EmbedBatch(const std::vector<std::string>& texts,
                  float* out) const override;

  /// The span calls nest under until the next Attach; (null, null)
  /// detaches. Set only between calls, by the client that runs the query.
  void Attach(cre::QueryTrace* trace, cre::TraceSpan* span) {
    span_.store(span, std::memory_order_relaxed);
    trace_.store(trace, std::memory_order_release);
  }

  std::uint64_t strings() const { return strings_.load(); }
  std::uint64_t busy_ns() const { return busy_ns_.load(); }
  /// Sum over queries of the distinct strings embedded under each.
  std::uint64_t distinct_per_query() const;

 private:
  void Record(const std::string_view* texts, std::size_t n, std::int64_t ns,
              std::uint64_t query) const;

  cre::EmbeddingModelPtr inner_;
  std::atomic<cre::QueryTrace*> trace_{nullptr};
  std::atomic<cre::TraceSpan*> span_{nullptr};
  mutable std::atomic<std::uint64_t> strings_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
  mutable std::mutex mu_;
  /// String hashes per query id; deduplicated when read.
  mutable std::map<std::uint64_t, std::vector<std::uint64_t>>
      hashes_;  // guarded by mu_
};

// --------------------------------------------------------------- machine

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMb();

/// One line naming the machine and build the numbers came from.
std::string MachineLine();

// ---------------------------------------------------------- result line

/// A metric name the benchmark may print, with its unit.
struct MetricDecl {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (printed with --trace 0) and every per-layer
/// metric (printed with --trace 1), in printing order.
const std::vector<MetricDecl>& EndToEndMetrics();
const std::vector<MetricDecl>& PerLayerMetrics();

/// The last line of the benchmark's output. Fails (returns "") when a
/// declared metric was not measured or a value is not finite.
std::string ResultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<MetricDecl>& decls,
                       const std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
