#include "semantic/semantic_select.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "vecsim/kernels.h"

namespace cre {

namespace {

/// Distinct strings of a batch plus a row -> distinct index mapping. The
/// scanning selects look each distinct string of a batch up in the
/// query's match memo and embed only the misses.
struct DistinctBatch {
  std::vector<std::string> unique;
  std::vector<std::uint32_t> row_to_unique;
};

DistinctBatch CollectDistinct(const std::vector<std::string>& words) {
  DistinctBatch out;
  out.row_to_unique.resize(words.size());
  std::unordered_map<std::string_view, std::uint32_t> index;
  index.reserve(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    auto [it, inserted] = index.emplace(
        std::string_view(words[i]),
        static_cast<std::uint32_t>(out.unique.size()));
    if (inserted) out.unique.push_back(words[i]);
    out.row_to_unique[i] = it->second;
  }
  return out;
}

/// Estimated bytes of one memo entry: the key's heap bytes plus the
/// string header, hash node and bucket slot.
std::size_t MemoEntryBytes(const std::string& key) {
  return key.size() + sizeof(std::string) + 4 * sizeof(void*);
}

/// The one match routine of the scanning selects: indices of the rows of
/// `words` whose string matches any query of `state` at `threshold`.
/// Dedups the batch, looks the distinct strings up in the memo, sends
/// only the misses through one EmbedBatch, scores them, and publishes
/// their bits.
std::vector<std::uint32_t> MatchRows(const std::vector<std::string>& words,
                                     const EmbeddingModel& model,
                                     float threshold,
                                     SemanticSelectState* state) {
  DistinctBatch distinct = CollectDistinct(words);
  std::vector<std::int8_t> match;
  state->memo.Lookup(distinct.unique, &match);

  std::vector<std::string> misses;
  std::vector<std::uint32_t> miss_slots;
  for (std::size_t u = 0; u < match.size(); ++u) {
    if (match[u] != MatchMemo::kUnknown) continue;
    misses.push_back(std::move(distinct.unique[u]));
    miss_slots.push_back(static_cast<std::uint32_t>(u));
  }
  if (!misses.empty()) {
    const std::size_t dim = model.dim();
    const std::size_t num_queries = state->queries.size() / dim;
    std::vector<float> matrix(misses.size() * dim);
    model.EmbedBatch(misses, matrix.data());
    const DotFn dot = GetDotKernel(BestKernelVariant());
    std::vector<std::int8_t> miss_bits(misses.size(), 0);
    for (std::size_t m = 0; m < misses.size(); ++m) {
      const float* v = matrix.data() + m * dim;
      for (std::size_t q = 0; q < num_queries; ++q) {
        if (dot(v, state->queries.data() + q * dim, dim) >= threshold) {
          miss_bits[m] = 1;
          break;
        }
      }
      match[miss_slots[m]] = miss_bits[m];
    }
    state->memo.Publish(misses, miss_bits);
  }

  std::vector<std::uint32_t> keep;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (match[distinct.row_to_unique[i]] == 1) {
      keep.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return keep;
}

}  // namespace

MatchMemo::~MatchMemo() {
  if (budget_ != nullptr) {
    budget_->Release(charged_bytes_.load(std::memory_order_relaxed));
  }
}

std::size_t MatchMemo::ShardOf(const std::string& key) {
  return std::hash<std::string>{}(key) % kShards;
}

void MatchMemo::Lookup(const std::vector<std::string>& keys,
                       std::vector<std::int8_t>* bits) const {
  bits->assign(keys.size(), kUnknown);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Shard& shard = shards_[ShardOf(keys[i])];
    MutexLock lock(shard.mu);
    auto it = shard.bits.find(keys[i]);
    if (it != shard.bits.end()) (*bits)[i] = it->second ? 1 : 0;
  }
}

void MatchMemo::Publish(const std::vector<std::string>& keys,
                        const std::vector<std::int8_t>& bits) {
  if (full()) return;
  std::size_t bytes = 0;
  if (budget_ != nullptr) {
    for (const std::string& key : keys) bytes += MemoEntryBytes(key);
    if (!budget_->Charge(bytes, "semantic select match memo").ok()) {
      full_.store(true, std::memory_order_relaxed);
      return;
    }
  }
  std::size_t duplicate_bytes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Shard& shard = shards_[ShardOf(keys[i])];
    MutexLock lock(shard.mu);
    // Another worker may have published the same string meanwhile.
    if (!shard.bits.emplace(keys[i], bits[i] == 1).second &&
        budget_ != nullptr) {
      duplicate_bytes += MemoEntryBytes(keys[i]);
    }
  }
  if (budget_ != nullptr) {
    budget_->Release(duplicate_bytes);
    charged_bytes_.fetch_add(bytes - duplicate_bytes,
                             std::memory_order_relaxed);
  }
}

std::size_t MatchMemo::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.bits.size();
  }
  return total;
}

SemanticSelectStatePtr MakeSemanticSelectState(
    const EmbeddingModel& model, const std::vector<std::string>& queries,
    QueryBudgetPtr budget) {
  std::vector<float> matrix(queries.size() * model.dim());
  model.EmbedBatch(queries, matrix.data());
  return std::make_shared<SemanticSelectState>(std::move(matrix),
                                               std::move(budget));
}

ScanningSelectOperator::ScanningSelectOperator(
    OperatorPtr child, std::string column, std::vector<std::string> queries,
    EmbeddingModelPtr model, float threshold, SemanticSelectStatePtr state)
    : child_(std::move(child)),
      column_(std::move(column)),
      queries_(std::move(queries)),
      model_(std::move(model)),
      threshold_(threshold),
      state_(std::move(state)) {}

Status ScanningSelectOperator::Open() {
  CRE_RETURN_NOT_OK(child_->Open());
  CRE_ASSIGN_OR_RETURN(std::size_t idx,
                       child_->output_schema().RequireField(column_));
  if (child_->output_schema().field(idx).type != DataType::kString) {
    return Status::TypeError("semantic select column '" + column_ +
                             "' must be a string column");
  }
  if (state_ == nullptr) {
    state_ = MakeSemanticSelectState(*model_, queries_, nullptr);
  } else if (state_->queries.size() != queries_.size() * model_->dim()) {
    return Status::InvalidArgument(
        "shared query matrix size does not match query count * model dim");
  }
  return Status::OK();
}

Result<TablePtr> ScanningSelectOperator::Next() {
  for (;;) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, child_->Next());
    if (batch == nullptr) return TablePtr(nullptr);
    CRE_ASSIGN_OR_RETURN(const Column* col, batch->ColumnByName(column_));
    const std::vector<std::uint32_t> keep =
        MatchRows(col->strings(), *model_, threshold_, state_.get());
    if (keep.empty()) continue;
    if (keep.size() == batch->num_rows()) return batch;
    return batch->Take(keep);
  }
}

SemanticIndexSelectOperator::SemanticIndexSelectOperator(
    TablePtr table, std::string column, std::string query,
    EmbeddingModelPtr model, float threshold,
    std::shared_ptr<const VectorIndex> index)
    : table_(std::move(table)),
      column_(std::move(column)),
      query_(std::move(query)),
      model_(std::move(model)),
      threshold_(threshold),
      index_(std::move(index)) {}

Status SemanticIndexSelectOperator::Open() {
  matches_.clear();
  next_ = 0;
  if (index_ == nullptr) {
    return Status::InvalidArgument("semantic index select requires an index");
  }
  CRE_ASSIGN_OR_RETURN(const Column* col, table_->ColumnByName(column_));
  if (col->type() != DataType::kString) {
    return Status::TypeError("semantic index select column '" + column_ +
                             "' must be a string column");
  }
  if (index_->size() != table_->num_rows()) {
    return Status::Internal(
        "index over '" + column_ + "' covers " +
        std::to_string(index_->size()) + " rows but the table has " +
        std::to_string(table_->num_rows()) +
        " (stale index served for a changed table?)");
  }
  std::vector<float> query_vec(model_->dim());
  model_->Embed(query_, query_vec.data());
  std::vector<ScoredId> hits;
  CRE_RETURN_NOT_OK(index_->RangeSearchChecked(query_vec.data(), model_->dim(),
                                               threshold_, &hits));
  matches_.reserve(hits.size());
  for (const ScoredId& h : hits) matches_.push_back(h.id);
  // Emit in base-table row order, exactly like the scanning select would.
  std::sort(matches_.begin(), matches_.end());
  matches_.erase(std::unique(matches_.begin(), matches_.end()),
                 matches_.end());
  return Status::OK();
}

Result<TablePtr> SemanticIndexSelectOperator::Next() {
  if (next_ >= matches_.size()) return TablePtr(nullptr);
  const std::size_t count =
      std::min(kDefaultBatchSize, matches_.size() - next_);
  std::vector<std::uint32_t> batch_ids(matches_.begin() + next_,
                                       matches_.begin() + next_ + count);
  next_ += count;
  return table_->Take(batch_ids);
}

Result<TablePtr> SemanticFilter(const TablePtr& table,
                                const std::string& column,
                                const std::string& query,
                                const EmbeddingModel& model,
                                float threshold) {
  CRE_ASSIGN_OR_RETURN(const Column* col, table->ColumnByName(column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("semantic filter column must be string");
  }
  const SemanticSelectStatePtr state =
      MakeSemanticSelectState(model, {query}, nullptr);
  return table->Take(MatchRows(col->strings(), model, threshold, state.get()));
}

}  // namespace cre
