#include "obs/trace.h"

#include <cstdio>

namespace cre {

namespace {

std::string FormatMillis(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
  return buf;
}

void RenderCompact(const TraceSpan& span, std::string* out) {
  *out += span.name;
  *out += "=";
  *out += span.end_seconds < 0 ? "open" : FormatMillis(span.DurationSeconds());
  if (!span.children.empty()) {
    *out += "[";
    bool first = true;
    for (const auto& child : span.children) {
      if (!first) *out += ",";
      first = false;
      RenderCompact(*child, out);
    }
    *out += "]";
  }
}

}  // namespace

QueryTrace::QueryTrace(std::uint64_t query_id, std::string label)
    : query_id_(query_id), label_(std::move(label)) {
  root_.name = "query:" + label_;
  root_.begin_seconds = 0;
}

TraceSpan* QueryTrace::Begin(TraceSpan* parent, const std::string& name) {
  const double now = epoch_.Seconds();
  MutexLock lock(mu_);
  TraceSpan* target = parent != nullptr ? parent : &root_;
  target->children.push_back(std::make_unique<TraceSpan>());
  TraceSpan* span = target->children.back().get();
  span->name = name;
  span->begin_seconds = now;
  return span;
}

void QueryTrace::End(TraceSpan* span) {
  const double now = epoch_.Seconds();
  MutexLock lock(mu_);
  if (span->end_seconds < 0) span->end_seconds = now;
}

void QueryTrace::Finish() {
  const double now = epoch_.Seconds();
  MutexLock lock(mu_);
  if (root_.end_seconds < 0) root_.end_seconds = now;
}

std::string QueryTrace::ToCompactString() const {
  MutexLock lock(mu_);
  std::string out;
  RenderCompact(root_, &out);
  return out;
}

}  // namespace cre
