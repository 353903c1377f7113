#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "core/hash.h"
#include "vecsim/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---------------------------------------------------------------- stats

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps p/100*n from rounding up past an exact rank.
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double HighestSupportedPercentile(std::size_t n) {
  static const double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (const double p : kLadder) {
    const double n_d = static_cast<double>(n);
    const double at_or_below = std::ceil(p / 100.0 * n_d - 1e-9);
    if (n_d - at_or_below >= 10) return p;
  }
  return 0;
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

namespace {

double ToReportedMs(double seconds) {
  return std::isfinite(seconds) ? seconds * 1e3 : kFailedLatencyMs;
}

}  // namespace

LoopSummary Summarize(const std::vector<Sample>& samples, double busy_seconds,
                      double tail_pct, std::size_t windows) {
  LoopSummary s;
  s.attempted = samples.size();
  s.tail_pct = tail_pct;
  windows = std::max<std::size_t>(1, windows);
  const double width = busy_seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  std::vector<std::size_t> ok_by_window(windows, 0);
  std::map<std::string, std::vector<double>> by_class;
  double ok_sum = 0;
  std::size_t ok = 0;
  for (const Sample& x : samples) {
    const std::size_t w = std::min(
        windows - 1,
        static_cast<std::size_t>(width > 0 ? x.issued / width : 0));
    by_window[w].push_back(x.failed ? INFINITY : x.seconds);
    if (x.failed) {
      ++s.failed;
      continue;
    }
    ++ok_by_window[w];
    by_class[x.cls].push_back(x.seconds);
    ok_sum += x.seconds;
    ++ok;
  }
  std::vector<double> tails;
  std::size_t fewest = samples.size();
  for (std::size_t w = 0; w < windows; ++w) {
    s.window_p50_ms.push_back(ToReportedMs(Percentile(by_window[w], 50)));
    tails.push_back(ToReportedMs(Percentile(by_window[w], tail_pct)));
    s.window_qps.push_back(
        width > 0 ? static_cast<double>(ok_by_window[w]) / width : 0);
    fewest = std::min(fewest, by_window[w].size());
  }
  s.supported_pct = HighestSupportedPercentile(fewest);
  s.p50_ms = Median(s.window_p50_ms);
  s.tail_ms = Median(tails);
  s.throughput_qps = Median(s.window_qps);
  s.mean_ms = ok > 0 ? ok_sum / static_cast<double>(ok) * 1e3 : 0;
  for (auto& [cls, v] : by_class) s.class_p50_ms[cls] = Median(v) * 1e3;
  return s;
}

// ------------------------------------------------------------ checksums

namespace {

std::uint64_t ValueHash(const cre::Column& c, std::size_t row) {
  using cre::DataType;
  switch (c.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      return cre::MixHash(static_cast<std::uint64_t>(c.i64()[row]) ^ 0x11);
    case DataType::kFloat64: {
      double v = c.f64()[row];
      if (v == 0) v = 0;  // fold -0.0 into 0.0
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      return cre::MixHash(bits ^ 0x22);
    }
    case DataType::kBool:
      return cre::MixHash(c.bools()[row] ^ 0x33ULL);
    case DataType::kString:
      return cre::HashString(c.strings()[row]);
    case DataType::kFloatVector: {
      const auto& v = c.vectors();
      return cre::Fnv1a64(v.Row(row), v.dim * sizeof(float));
    }
  }
  return 0;
}

}  // namespace

std::uint64_t TableChecksum(const cre::Table& table, bool ordered) {
  // Each value hashes with its column name, and a row as the sum of those:
  // plans that emit the same rows with columns in another order (join
  // reordering) agree.
  std::vector<std::uint64_t> names;
  for (const cre::Field& f : table.schema().fields()) {
    names.push_back(cre::HashString(f.name));
  }
  std::uint64_t acc = 0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::uint64_t row = 0;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row += cre::MixHash(cre::HashCombine(names[c],
                                           ValueHash(table.column(c), r)));
    }
    row = cre::MixHash(row);
    acc = ordered ? cre::HashCombine(acc, row) : acc + row;
  }
  return cre::HashCombine(acc, table.num_rows());
}

std::vector<std::int64_t> IdColumn(const cre::Table& table,
                                   const std::string& column) {
  const int idx = table.schema().FieldIndex(column);
  if (idx < 0) return {};
  const cre::Column& c = table.column(static_cast<std::size_t>(idx));
  if (c.type() != cre::DataType::kInt64) return {};
  return c.i64();
}

Verdict CheckIds(std::vector<std::int64_t> got, const Reference& ref) {
  Verdict v;
  if (!ref.ok) return v;
  std::sort(got.begin(), got.end());
  v.expected = ref.ids.size();
  bool subset = std::adjacent_find(got.begin(), got.end()) == got.end();
  std::size_t j = 0;
  for (const std::int64_t id : got) {
    while (j < ref.ids.size() && ref.ids[j] < id) ++j;
    if (j < ref.ids.size() && ref.ids[j] == id) {
      ++v.found;
    } else {
      subset = false;
    }
  }
  v.correct = subset;
  return v;
}

// ------------------------------------------------------ engine counters

std::map<std::string, double> Flatten(const cre::MetricsSnapshot& s) {
  auto labeled = [](const std::string& name, const cre::MetricLabels& labels) {
    std::string key = name + "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      key += (i == 0 ? "" : ",") + labels[i].first + "=" + labels[i].second;
    }
    return key + "}";
  };
  std::map<std::string, double> out;
  for (const auto& c : s.counters) {
    out[c.name] += static_cast<double>(c.value);
    if (!c.labels.empty()) {
      out[labeled(c.name, c.labels)] += static_cast<double>(c.value);
    }
  }
  for (const auto& g : s.gauges) {
    out[g.name] += g.value;
    if (!g.labels.empty()) out[labeled(g.name, g.labels)] += g.value;
  }
  for (const auto& h : s.histograms) {
    out[h.name + ".sum"] += h.hist.sum;
    out[h.name + ".count"] += static_cast<double>(h.hist.count);
  }
  return out;
}

void CounterDiff::Add(const cre::MetricsSnapshot& before,
                      const cre::MetricsSnapshot& after) {
  std::map<std::string, double> b = Flatten(before);
  for (const auto& [key, value] : Flatten(after)) totals_[key] += value - b[key];
}

double CounterDiff::Get(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second;
}

// --------------------------------------------------------------- tracing

double SelfSeconds(const cre::TraceSpan& span) {
  std::vector<std::pair<double, double>> iv;
  for (const auto& c : span.children) {
    if (c->end_seconds >= 0) iv.emplace_back(c->begin_seconds, c->end_seconds);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double reach = span.begin_seconds;
  for (const auto& [a, b] : iv) {
    const double from = std::max(a, reach);
    const double to = std::min(b, span.end_seconds);
    if (to > from) covered += to - from;
    reach = std::max(reach, to);
  }
  return span.DurationSeconds() - covered;
}

namespace {

void AddTotals(const cre::TraceSpan& span,
               std::map<std::string, SpanTotals>* out) {
  if (span.end_seconds >= 0) {
    SpanTotals& t = (*out)[span.name];
    ++t.count;
    t.total_ms += span.DurationSeconds() * 1e3;
    t.self_ms += SelfSeconds(span) * 1e3;
  }
  for (const auto& c : span.children) AddTotals(*c, out);
}

}  // namespace

std::map<std::string, SpanTotals> TotalsByName(const Traces& traces) {
  std::map<std::string, SpanTotals> out;
  for (const auto& t : traces) AddTotals(*t->root(), &out);
  return out;
}

bool WriteTraces(const Traces& traces, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& t : traces) {
    out << "{\"query\": " << t->query_id() << ", \"label\": \"" << t->label()
        << "\", \"spans\": \"" << t->ToCompactString() << "\"}\n";
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------- embed decorator

void CountingModel::Record(const std::string_view* texts, std::size_t n,
                           std::int64_t ns, std::uint64_t query) const {
  strings_.fetch_add(n, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                     std::memory_order_relaxed);
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) hashes[i] = cre::HashString(texts[i]);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t>& seen = hashes_[query];
  seen.insert(seen.end(), hashes.begin(), hashes.end());
}

void CountingModel::Embed(std::string_view text, float* out) const {
  cre::QueryTrace* trace = trace_.load(std::memory_order_acquire);
  const Clock::time_point start = Clock::now();
  {
    cre::ScopedSpan span(trace, span_.load(std::memory_order_relaxed),
                         "embed.call");
    inner_->Embed(text, out);
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  Record(&text, 1, ns, trace != nullptr ? trace->query_id() : 0);
}

void CountingModel::EmbedBatch(const std::vector<std::string>& texts,
                               float* out) const {
  cre::QueryTrace* trace = trace_.load(std::memory_order_acquire);
  const Clock::time_point start = Clock::now();
  {
    cre::ScopedSpan span(trace, span_.load(std::memory_order_relaxed),
                         "embed.call");
    inner_->EmbedBatch(texts, out);
  }
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  std::vector<std::string_view> views(texts.begin(), texts.end());
  Record(views.data(), views.size(), ns,
         trace != nullptr ? trace->query_id() : 0);
}

std::uint64_t CountingModel::distinct_per_query() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (auto& [query, seen] : hashes_) {
    std::sort(seen.begin(), seen.end());
    total += static_cast<std::uint64_t>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
  }
  return total;
}

// --------------------------------------------------------------- machine

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string MachineLine() {
  std::ostringstream out;
  out << "machine: nproc=" << std::thread::hardware_concurrency()
      << " kernel_variant=" << cre::KernelVariantName(cre::BestKernelVariant())
#if defined(__clang__)
      << " compiler=\"clang " << __VERSION__ << "\""
#else
      << " compiler=\"gcc " << __VERSION__ << "\""
#endif
      << " build_type=" << PERFBENCH_BUILD_TYPE;
  return out.str();
}

// ---------------------------------------------------------- result line

const std::vector<MetricDecl>& EndToEndMetrics() {
  static const std::vector<MetricDecl> kDecls = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"throughput_qps", "1/s"},
      {"ok_ratio", "ratio"},
      {"recall", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return kDecls;
}

const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> kDecls = {
      {"sql.parse_us", "us"},
      {"optimizer.optimize_ms", "ms"},
      {"optimizer.plan_cache_hit_ratio", "ratio"},
      {"optimizer.plan_cache_invalidations", "1/query"},
      {"engine.tasks_per_query", "1/query"},
      {"engine.queue_wait_task_ms", "ms"},
      {"engine.shed", "count"},
      {"engine.execute_self_ms", "ms"},
      {"expr.filter_ns_per_row", "ns"},
      {"exec.agg_ms", "ms"},
      {"exec.join_ms", "ms"},
      {"exec.topk_ms", "ms"},
      {"semantic.select_ms", "ms"},
      {"semantic.join_ms", "ms"},
      {"embed.strings_per_query", "1/query"},
      {"embed.distinct_ratio", "ratio"},
      {"embed.busy_ms", "ms"},
      {"embed.ns_per_string", "ns"},
      {"vecsim.dot_batch_ns", "ns"},
      {"vecsim.probe_us", "us"},
      {"index.hits", "1/query"},
      {"index.builds", "count"},
      {"index.refreshes", "1/query"},
      {"index.invalidations", "1/query"},
      {"index.build_s", "s"},
      {"storage.load_s", "s"},
      {"storage.append_p50_ms", "ms"},
      {"vision.images_per_query", "1/query"},
      {"vision.detect_ratio", "ratio"},
      {"core.governor_peak_bytes", "bytes"},
      {"trace.overhead_pct", "%"},
  };
  return kDecls;
}

std::string ResultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<MetricDecl>& decls,
                       const std::map<std::string, double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricDecl& d : decls) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name);
      return "";
    }
    if (!std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", d.name);
      return "";
    }
    out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
        << it->second << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
