#include "runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "sql/parser.h"

namespace perfbench {

cre::Result<cre::PlanPtr> PlanOf(const Op& op) {
  if (op.sql.empty()) return op.plan;
  return cre::sql::ParseSql(op.sql);
}

namespace {

std::uint64_t NextQueryId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Parses and executes `op`, with spans under `trace`'s root when it is
/// set; `model` (may be null) embeds under the execute span meanwhile.
cre::Result<cre::TablePtr> RunOp(cre::Engine* engine, const Op& op,
                                 cre::QueryTrace* trace, CountingModel* model) {
  cre::Result<cre::PlanPtr> plan = [&] {
    cre::ScopedSpan span(op.sql.empty() ? nullptr : trace, nullptr,
                         "sql.parse");
    return PlanOf(op);
  }();
  if (!plan.ok()) return plan.status();
  cre::ScopedSpan span(trace, nullptr, "engine.execute");
  if (model != nullptr) model->Attach(trace, span.span());
  auto result = engine->Execute(plan.ValueUnsafe());
  if (model != nullptr) model->Attach(nullptr, nullptr);
  return result;
}

}  // namespace

LoopResult RunLoop(Workload* w, cre::Engine* engine, double seconds,
                   TraceLog* log) {
  const std::size_t clients = w->clients();
  CountingModel* attach =
      log != nullptr && clients == 1 ? log->model : nullptr;
  const cre::MetricsSnapshot before = engine->metrics()->Snapshot();
  const std::size_t images_before = w->images_processed();
  std::vector<LoopResult> per_client(clients);
  std::vector<Traces> traces(clients);
  std::vector<double> untimed(clients, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](std::size_t c) {
    LoopResult& out = per_client[c];
    const std::vector<std::size_t>& stream = w->stream(c);
    for (std::size_t pos = 0; Clock::now() < deadline; ++pos) {
      const std::size_t idx = stream[pos % stream.size()];
      if (idx == kReset) {
        const Clock::time_point t0 = Clock::now();
        w->Reset(engine);
        untimed[c] += SecondsSince(t0);
        continue;
      }
      const Op& op = w->pool()[idx];
      std::shared_ptr<cre::QueryTrace> trace;
      if (log != nullptr) {
        trace = std::make_shared<cre::QueryTrace>(NextQueryId(), op.cls);
        traces[c].push_back(trace);
      }
      if (op.cls == "append") {
        const Clock::time_point t0 = Clock::now();
        cre::Result<cre::TablePtr> r = [&] {
          cre::ScopedSpan span(trace.get(), nullptr, "storage.append");
          return engine->catalog().Append(op.append_table, *op.append_rows);
        }();
        out.append_seconds.push_back(SecondsSince(t0));
        if (trace != nullptr) trace->Finish();
        if (!r.ok()) ++out.append_failed;
        continue;
      }
      Answer a;
      a.op = idx;
      const Clock::time_point t0 = Clock::now();
      cre::Result<cre::TablePtr> r = RunOp(engine, op, trace.get(), attach);
      if (trace != nullptr) trace->Finish();
      const double latency = SecondsSince(t0);
      a.ok = r.ok();
      if (a.ok) {
        const cre::Table& t = *r.ValueUnsafe();
        if (op.approximate) {
          a.ids = IdColumn(t, "id");
        } else {
          a.checksum = TableChecksum(t, op.ordered);
        }
      } else {
        a.error = r.status().ToString();
      }
      out.samples.push_back({op.cls, latency, !a.ok,
                             SecondsSince(start) - untimed[c] - latency});
      out.answers.push_back(std::move(a));
      out.image_candidates += op.image_candidates;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (auto& t : threads) t.join();
  const double wall = SecondsSince(start);

  LoopResult all;
  for (std::size_t c = 0; c < clients; ++c) {
    LoopResult& r = per_client[c];
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    for (auto& a : r.answers) all.answers.push_back(std::move(a));
    all.append_seconds.insert(all.append_seconds.end(),
                              r.append_seconds.begin(),
                              r.append_seconds.end());
    all.append_failed += r.append_failed;
    all.image_candidates += r.image_candidates;
    if (log != nullptr) {
      log->traces.insert(log->traces.end(), traces[c].begin(),
                         traces[c].end());
    }
  }
  // Episode restarts are not measured; with one client they are the only
  // untimed stretch of the loop.
  all.busy_seconds = wall - (clients == 1 ? untimed[0] : 0);
  all.images_detected = w->images_processed() - images_before;
  all.final_snapshot = engine->metrics()->Snapshot();
  all.counters.Add(before, all.final_snapshot);
  return all;
}

std::map<std::size_t, Reference> ComputeReferences(
    Workload* w, const std::set<std::size_t>& used) {
  std::unique_ptr<cre::Engine> ref = w->MakeReferenceEngine();
  std::map<std::size_t, Reference> out;
  const auto& pool = w->pool();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Op& op = pool[i];
    if (op.cls == "append") {
      auto r = ref->catalog().Append(op.append_table, *op.append_rows);
      if (!r.ok()) {
        std::fprintf(stderr, "perfbench: reference append failed: %s\n",
                     r.status().ToString().c_str());
      }
      continue;
    }
    if (used.count(i) == 0) continue;
    auto plan = PlanOf(op);
    auto r = plan.ok() ? ref->ExecuteUnoptimized(plan.ValueUnsafe())
                       : cre::Result<cre::TablePtr>(plan.status());
    Reference rf;
    rf.ok = r.ok();
    if (rf.ok) {
      const cre::Table& t = *r.ValueUnsafe();
      rf.checksum = TableChecksum(t, op.ordered);
      rf.ids = IdColumn(t, "id");
      std::sort(rf.ids.begin(), rf.ids.end());
    } else {
      std::fprintf(stderr, "perfbench: reference failed: %s\n",
                   r.status().ToString().c_str());
    }
    out[i] = std::move(rf);
  }
  return out;
}


/// Marks wrong answers as failed samples and accumulates recall.
CheckTotals CheckAnswers(Workload* w, LoopResult* loop,
                         const std::map<std::size_t, Reference>& refs) {
  CheckTotals t;
  for (std::size_t i = 0; i < loop->answers.size(); ++i) {
    const Answer& a = loop->answers[i];
    Sample& s = loop->samples[i];
    if (!a.ok) {
      if (t.errors++ == 0) {
        std::fprintf(stderr, "perfbench: query failed: %s\n", a.error.c_str());
      }
      continue;
    }
    const Op& op = w->pool()[a.op];
    const Reference& ref = refs.at(a.op);
    Verdict v;
    if (op.approximate) {
      v = CheckIds(a.ids, ref);
    } else {
      v.correct = ref.ok && a.checksum == ref.checksum;
    }
    if (v.expected > 0) {
      auto& [found, expected] = t.recall_by_op[a.op];
      found += v.found;
      expected += v.expected;
    }
    if (!v.correct) {
      if (t.wrong++ == 0) {
        std::fprintf(stderr, "perfbench: wrong answer for: %s\n",
                     op.sql.empty() ? op.cls.c_str() : op.sql.c_str());
      }
      s.failed = true;
      s.seconds = INFINITY;
    }
  }
  return t;
}

double MeanRecall(const std::vector<const CheckTotals*>& totals) {
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> merged;
  for (const CheckTotals* t : totals) {
    for (const auto& [op, fe] : t->recall_by_op) {
      merged[op].first += fe.first;
      merged[op].second += fe.second;
    }
  }
  if (merged.empty()) return 1.0;
  double sum = 0;
  for (const auto& [op, fe] : merged) {
    sum += static_cast<double>(fe.first) / static_cast<double>(fe.second);
  }
  return sum / static_cast<double>(merged.size());
}

}  // namespace perfbench
