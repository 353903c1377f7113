#ifndef CRE_SEMANTIC_SEMANTIC_SELECT_H_
#define CRE_SEMANTIC_SEMANTIC_SELECT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/resource_governor.h"
#include "embed/model_registry.h"
#include "exec/operator.h"
#include "vecsim/vector_index.h"

namespace cre {

/// Distinct column value -> match bit for one scanning select within one
/// query. Every per-morsel instance of the select reads and extends the
/// same memo, so each distinct value embeds once per worker that first
/// meets it instead of once per morsel. It stores match bits, not
/// vectors. Sharded by string hash; each shard's map is guarded by its
/// own mutex.
///
/// Entries are charged to the query budget before they are inserted. On
/// a breach the memo stops growing and keeps serving what it holds: the
/// select still answers exactly, it just embeds more.
class MatchMemo {
 public:
  /// `budget` may be null (nothing is charged).
  explicit MatchMemo(QueryBudgetPtr budget = nullptr)
      : budget_(std::move(budget)) {}
  ~MatchMemo();
  MatchMemo(const MatchMemo&) = delete;
  MatchMemo& operator=(const MatchMemo&) = delete;

  /// Bit value for a string the memo does not hold.
  static constexpr std::int8_t kUnknown = -1;

  /// Sets bits[i] to the memoized match bit (0/1) of keys[i], or to
  /// kUnknown; `bits` is resized to keys.size().
  void Lookup(const std::vector<std::string>& keys,
              std::vector<std::int8_t>* bits) const;
  /// Inserts keys[i] -> bits[i] for every i, unless the charge for the
  /// new entries breaches the budget (then the memo stops growing).
  void Publish(const std::vector<std::string>& keys,
               const std::vector<std::int8_t>& bits);

  std::size_t size() const;
  /// True once a budget breach stopped the memo from growing.
  bool full() const { return full_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, bool> bits CRE_GUARDED_BY(mu);
  };
  static std::size_t ShardOf(const std::string& key);

  std::array<Shard, kShards> shards_;
  QueryBudgetPtr budget_;
  std::atomic<std::size_t> charged_bytes_{0};
  std::atomic<bool> full_{false};
};

/// Per-(query, select node) state shared by every per-morsel instance of
/// one scanning SemanticSelect / SemanticMultiSelect: the query
/// constant(s), embedded once, and the match memo.
struct SemanticSelectState {
  SemanticSelectState(std::vector<float> query_matrix, QueryBudgetPtr budget)
      : queries(std::move(query_matrix)), memo(std::move(budget)) {}

  /// Row-major [num_queries x dim].
  const std::vector<float> queries;
  MatchMemo memo;
};
using SemanticSelectStatePtr = std::shared_ptr<SemanticSelectState>;

/// Embeds `queries` through one EmbedBatch and pairs them with an empty
/// memo charging `budget` (may be null).
SemanticSelectStatePtr MakeSemanticSelectState(
    const EmbeddingModel& model, const std::vector<std::string>& queries,
    QueryBudgetPtr budget);

/// Body shared by the two scanning selects: keeps the rows whose string
/// column matches ANY query at the cosine threshold. Without a shared
/// state (standalone use) Open() builds a private one.
class ScanningSelectOperator : public PhysicalOperator {
 public:
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;

 protected:
  ScanningSelectOperator(OperatorPtr child, std::string column,
                         std::vector<std::string> queries,
                         EmbeddingModelPtr model, float threshold,
                         SemanticSelectStatePtr state);

  OperatorPtr child_;
  std::string column_;
  std::vector<std::string> queries_;
  EmbeddingModelPtr model_;
  float threshold_;
  SemanticSelectStatePtr state_;
};

/// The paper's Semantic Select operator extension (Sec. IV):
///   column ~= "query" USING MODEL m WITH COSINE THRESHOLD >= t
/// Keeps rows whose string column embeds within the cosine threshold of
/// the query.
class SemanticSelectOperator : public ScanningSelectOperator {
 public:
  SemanticSelectOperator(OperatorPtr child, std::string column,
                         std::string query, EmbeddingModelPtr model,
                         float threshold,
                         SemanticSelectStatePtr state = nullptr)
      : ScanningSelectOperator(std::move(child), std::move(column),
                               {std::move(query)}, std::move(model),
                               threshold, std::move(state)) {}

  std::string name() const override {
    return "SemanticSelect(" + column_ + " ~ '" + queries_[0] + "' >= " +
           std::to_string(threshold_) + ")";
  }
};

/// Multi-query variant: keeps rows whose string column matches ANY of the
/// query strings at the threshold. This is the executable form of a
/// data-induced predicate (paper Sec. IV, [23]): the optimizer derives the
/// query set from the data of a small join side at optimization time and
/// pushes this operator below expensive downstream work.
class SemanticMultiSelectOperator : public ScanningSelectOperator {
 public:
  SemanticMultiSelectOperator(OperatorPtr child, std::string column,
                              std::vector<std::string> queries,
                              EmbeddingModelPtr model, float threshold,
                              SemanticSelectStatePtr state = nullptr)
      : ScanningSelectOperator(std::move(child), std::move(column),
                               std::move(queries), std::move(model),
                               threshold, std::move(state)) {}

  std::string name() const override {
    return "SemanticMultiSelect(" + column_ + " ~ " +
           std::to_string(queries_.size()) + " queries >= " +
           std::to_string(threshold_) + ")";
  }
};

/// Index-backed semantic select: instead of embedding and scoring every
/// row of the input, probes a prebuilt VectorIndex over the base table's
/// column embeddings (served by the IndexManager) with one range search
/// and gathers the matching rows in original row order. This is the
/// "index-based access for similarity search" physical alternative the
/// optimizer chooses when the amortized index cost beats the scan
/// (Sec. V / E6); it acts as a leaf over the catalog table, so the plan's
/// child scan must be a bare (predicate-free, unprojected) table scan.
class SemanticIndexSelectOperator : public PhysicalOperator {
 public:
  SemanticIndexSelectOperator(TablePtr table, std::string column,
                              std::string query, EmbeddingModelPtr model,
                              float threshold,
                              std::shared_ptr<const VectorIndex> index);

  const Schema& output_schema() const override { return table_->schema(); }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "SemanticIndexSelect[" + (index_ ? index_->name() : "?") + "](" +
           column_ + " ~ '" + query_ + "' >= " + std::to_string(threshold_) +
           ")";
  }

 private:
  TablePtr table_;
  std::string column_;
  std::string query_;
  EmbeddingModelPtr model_;
  float threshold_;
  std::shared_ptr<const VectorIndex> index_;
  /// Matching row ids in ascending order (same order a scan would emit).
  std::vector<std::uint32_t> matches_;
  std::size_t next_ = 0;
};

/// Function form used outside operator trees: rows of `table` whose
/// `column` is semantically similar to `query`.
Result<TablePtr> SemanticFilter(const TablePtr& table,
                                const std::string& column,
                                const std::string& query,
                                const EmbeddingModel& model, float threshold);

}  // namespace cre

#endif  // CRE_SEMANTIC_SEMANTIC_SELECT_H_
