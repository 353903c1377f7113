#include "engine/query_profile.h"

#include <chrono>
#include <cstdio>

namespace cre {

namespace {

std::string Millis(const std::string& label, double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "=%.3fms", seconds * 1e3);
  return label + buf;
}

}  // namespace

std::int64_t ProfileNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NodeProfile::SelfSeconds() const {
  std::int64_t self = cpu_ns.load(std::memory_order_relaxed);
  if (inner != nullptr) self -= inner->cpu_ns.load(std::memory_order_relaxed);
  return static_cast<double>(self) * 1e-9;
}

Status ProfiledOperator::Open() {
  const std::int64_t start = ProfileNowNs();
  Status s = child_->Open();
  target_->fetch_add(ProfileNowNs() - start, std::memory_order_relaxed);
  return s;
}

Result<TablePtr> ProfiledOperator::Next() {
  const std::int64_t start = ProfileNowNs();
  auto r = child_->Next();
  target_->fetch_add(ProfileNowNs() - start, std::memory_order_relaxed);
  if (r.ok() && r.ValueUnsafe() != nullptr) {
    node_->AddOutput(r.ValueUnsafe()->num_rows());
  }
  return r;
}

void QueryProfile::Bind(PlanPtr plan) {
  plan_ = std::move(plan);
  std::vector<const PlanNode*> stack{plan_.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    nodes_.emplace(n, std::make_unique<NodeProfile>());
    for (const PlanPtr& child : n->children) stack.push_back(child.get());
  }
}

NodeProfile* QueryProfile::node(const PlanNode* node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void QueryProfile::RenderNode(const PlanNode& node, int depth,
                              std::string* out) const {
  const NodeProfile& p = *nodes_.at(&node);
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  *out += indent + node.Describe() + "  [";
  const std::int64_t cpu = p.cpu_ns.load(std::memory_order_relaxed);
  const std::int64_t wall = p.wall_ns.load(std::memory_order_relaxed);
  const std::uint64_t batches = p.batches.load(std::memory_order_relaxed);
  if (cpu == 0 && wall == 0 && batches == 0) {
    // Never executed, e.g. the Sort under a LIMIT 0.
    *out += "not run]\n";
  } else {
    *out += "rows=" + std::to_string(p.rows.load(std::memory_order_relaxed)) +
            " batches=" + std::to_string(batches);
    if (wall > 0) {
      *out += " " + Millis("wall", p.WallSeconds());
    } else if (cpu > 0) {
      *out += " " + Millis("self", p.SelfSeconds()) + " " +
              Millis("incl", p.InclusiveSeconds());
    }
    const std::size_t node_dop =
        node.kind == PlanKind::kSemanticGroupBy ? 1 : dop;
    *out += " dop=" + std::to_string(node_dop) + "]\n";
  }
  const std::string sub = indent + "  ";
  if (p.sort_runs > 0) {
    *out += sub + "local sort (" + std::to_string(p.sort_runs) + " runs)  " +
            Millis("wall", p.sort_local_seconds) + "\n";
    *out += sub + "merge (" + std::to_string(p.sort_merge_partitions) +
            " partitions)  " + Millis("wall", p.sort_merge_seconds) + "\n";
  }
  if (p.agg_mode != nullptr) {
    std::string shape = std::string(p.agg_mode) + ", " +
                        std::to_string(p.agg_chunks) + " chunks";
    if (p.agg_partitions > 0) {
      shape += ", " + std::to_string(p.agg_partitions) + " partitions";
    }
    *out += sub + "accumulate (" + shape + ")  " +
            Millis("wall", p.agg_accumulate_seconds) + "\n";
    *out += sub + "merge  " + Millis("wall", p.agg_merge_seconds) + "\n";
  }
  if (node.kind == PlanKind::kJoin && batches > 0) {
    *out += sub + "build  " + Millis("wall", p.join_build_seconds) + "\n";
  }
  if (p.embed_queries > 0) {
    *out += sub + "embed:queries (" + std::to_string(p.embed_queries) +
            " queries)  " + Millis("wall", p.embed_queries_seconds) + "\n";
  }
  if (p.limit_morsels_total > 0) {
    *out += sub + "shared row budget: " + std::to_string(p.limit_morsels_run) +
            "/" + std::to_string(p.limit_morsels_total) + " morsels run\n";
  }
  for (const PlanPtr& child : node.children) {
    RenderNode(*child, depth + 1, out);
  }
}

std::string QueryProfile::ToString() const {
  std::string out;
  if (plan_ != nullptr) RenderNode(*plan_, 0, &out);
  out += "driver steps (wall on the driver thread):\n";
  for (const Step& step : steps_) {
    out += "  " + step.name + "  " + Millis("wall", step.wall_seconds) + "\n";
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "scheduling: tasks submitted=%llu dispatched=%llu "
                "queue wait (summed over tasks)=%.3fms admission=%.3fms\n",
                static_cast<unsigned long long>(scheduling.tasks_submitted),
                static_cast<unsigned long long>(scheduling.tasks_dispatched),
                scheduling.queue_wait_seconds * 1e3,
                scheduling.admission_seconds * 1e3);
  out += line;
  return out;
}

std::string QueryProfile::ToCompactString() const {
  std::string out = Millis("optimize", optimize_seconds) + " " +
                    Millis("execute", execute_seconds) + " [";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (i > 0) out += ",";
    out += Millis(steps_[i].name, steps_[i].wall_seconds);
  }
  return out + "]";
}

}  // namespace cre
