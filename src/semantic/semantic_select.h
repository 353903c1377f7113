#ifndef CRE_SEMANTIC_SEMANTIC_SELECT_H_
#define CRE_SEMANTIC_SEMANTIC_SELECT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "embed/model_registry.h"
#include "exec/operator.h"
#include "vecsim/vector_index.h"

namespace cre {

/// Pre-embedded query vectors shared across operator instances. The
/// morsel-driven driver instantiates one SemanticSelect per morsel chain;
/// embedding the query constant(s) once per *query* instead of once per
/// *morsel* removes the last redundant embedding work (ROADMAP item).
/// Layout: row-major [num_queries x dim].
using SharedQueryMatrix = std::shared_ptr<const std::vector<float>>;

/// The paper's Semantic Select operator extension (Sec. IV):
///   column ~= "query" USING MODEL m WITH COSINE THRESHOLD >= t
/// Embeds the query once at Open() — or adopts a pre-embedded shared
/// vector — and keeps rows whose string column embeds within the cosine
/// threshold.
class SemanticSelectOperator : public PhysicalOperator {
 public:
  SemanticSelectOperator(OperatorPtr child, std::string column,
                         std::string query, EmbeddingModelPtr model,
                         float threshold,
                         SharedQueryMatrix shared_query = nullptr);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "SemanticSelect(" + column_ + " ~ '" + query_ + "' >= " +
           std::to_string(threshold_) + ")";
  }

 private:
  OperatorPtr child_;
  std::string column_;
  std::string query_;
  EmbeddingModelPtr model_;
  float threshold_;
  /// Non-null when the driver pre-embedded the query for all morsels.
  SharedQueryMatrix shared_query_;
  std::vector<float> query_vec_;   ///< used when shared_query_ is null
  const float* query_data_ = nullptr;
};

/// Multi-query variant: keeps rows whose string column matches ANY of the
/// query strings at the threshold. This is the executable form of a
/// data-induced predicate (paper Sec. IV, [23]): the optimizer derives the
/// query set from the data of a small join side at optimization time and
/// pushes this operator below expensive downstream work.
class SemanticMultiSelectOperator : public PhysicalOperator {
 public:
  SemanticMultiSelectOperator(OperatorPtr child, std::string column,
                              std::vector<std::string> queries,
                              EmbeddingModelPtr model, float threshold,
                              SharedQueryMatrix shared_queries = nullptr);

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "SemanticMultiSelect(" + column_ + " ~ " +
           std::to_string(queries_.size()) + " queries >= " +
           std::to_string(threshold_) + ")";
  }

 private:
  OperatorPtr child_;
  std::string column_;
  std::vector<std::string> queries_;
  EmbeddingModelPtr model_;
  float threshold_;
  SharedQueryMatrix shared_queries_;
  std::vector<float> query_matrix_;  ///< used when shared_queries_ is null
  const float* query_data_ = nullptr;
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
