#ifndef CRE_OBS_TRACE_H_
#define CRE_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/timer.h"

namespace cre {

/// One timed phase: name, begin/end relative to the trace epoch,
/// children. Spans form a tree rooted at the traced unit
/// ("query:select" → "engine.execute", ...).
/// Nodes are owned by their parent; the QueryTrace owns the root.
struct TraceSpan {
  std::string name;
  double begin_seconds = 0;  ///< offset from the trace epoch
  double end_seconds = -1;   ///< -1 while the span is open
  std::vector<std::unique_ptr<TraceSpan>> children;

  double DurationSeconds() const {
    return end_seconds < 0 ? -1 : end_seconds - begin_seconds;
  }
};

/// A span tree for one timed unit of work, for callers that time phases
/// around the engine (the perfbench harness does; the engine itself
/// records a QueryProfile instead). Begin/End are mutex-guarded
/// so spans may open on any thread; a null QueryTrace* makes every
/// ScopedSpan a no-op. Span pointers remain valid for the trace's
/// lifetime.
class QueryTrace {
 public:
  QueryTrace(std::uint64_t query_id, std::string label);

  std::uint64_t query_id() const { return query_id_; }
  const std::string& label() const { return label_; }

  /// Opens a child span under `parent` (nullptr → under the root).
  TraceSpan* Begin(TraceSpan* parent, const std::string& name);
  /// Closes `span` at now. No-op if already closed.
  void End(TraceSpan* span);
  /// Closes the root span; call once when the query finishes.
  void Finish();

  TraceSpan* root() { return &root_; }

  /// Single-line rendering of the span tree:
  ///   query:select=12.345ms[optimize=0.210ms,engine.execute=9.100ms]
  std::string ToCompactString() const;

 private:
  std::uint64_t query_id_;
  std::string label_;
  Timer epoch_;
  mutable Mutex mu_;
  /// Span-tree mutations go through Begin/End under mu_; root()
  /// hands out the root pointer, deref'd by callers only via those entry
  /// points (or after Finish, when the tree is quiescent).
  TraceSpan root_ CRE_GUARDED_BY(mu_);
};

/// RAII span: begins on construction, ends on destruction. Null-trace
/// tolerant — all members no-op without a trace.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, TraceSpan* parent, const std::string& name)
      : trace_(trace) {
    if (trace_) span_ = trace_->Begin(parent, name);
  }
  ~ScopedSpan() {
    if (trace_ && span_) trace_->End(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The opened span (nullptr without a trace) — pass as the parent of
  /// nested spans.
  TraceSpan* span() const { return span_; }

 private:
  QueryTrace* trace_;
  TraceSpan* span_ = nullptr;
};

}  // namespace cre

#endif  // CRE_OBS_TRACE_H_
