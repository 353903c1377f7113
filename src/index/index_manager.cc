#include "index/index_manager.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/index_io.h"
#include "vecsim/ivf_index.h"
#include "vecsim/lsh_index.h"

namespace cre {

namespace {

/// Refresh-vs-rebuild crossover: a stale-by-append entry refreshes while
/// the appended rows are at most this fraction of the table. Each
/// incrementally inserted row costs ~4x a bulk-build row (HNSW: a full
/// beam search against the grown graph with none of the batched build's
/// sharing, plus the clone), so past 25% the rebuild is cheaper, and it
/// also re-trains IVF centroids and re-balances the graph.
constexpr double kRefreshMaxAppendedFraction = 0.25;

/// Write-through attempts per image, and the first retry's backoff
/// (doubling per retry).
constexpr int kPersistAttempts = 3;
constexpr double kPersistFirstBackoffMs = 1.0;

/// Order-sensitive digest of an indexed string column (row count + every
/// value). This — not the process-local catalog stamp — is what proves a
/// persisted index image still matches the live table across restarts.
std::uint64_t ColumnContentHash(const std::vector<std::string>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, words.size());
  for (const auto& w : words) h = HashCombine(h, HashString(w));
  return h;
}

/// Constructs an unbuilt index of the requested managed family. `serial`
/// strips the HNSW build pool (see IndexManager::BuildIndex).
std::unique_ptr<VectorIndex> MakeInnerIndex(SemanticJoinStrategy kind,
                                            const IndexManagerOptions& options,
                                            bool serial) {
  switch (kind) {
    case SemanticJoinStrategy::kBruteForce:
      return nullptr;
    case SemanticJoinStrategy::kLsh:
      return std::make_unique<LshIndex>(options.lsh);
    case SemanticJoinStrategy::kIvf:
      return std::make_unique<IvfIndex>(options.ivf);
    case SemanticJoinStrategy::kHnsw: {
      HnswOptions hnsw = options.hnsw;
      if (serial) hnsw.build_pool = nullptr;
      return std::make_unique<HnswIndex>(hnsw);
    }
    case SemanticJoinStrategy::kIvfPq:
      return std::make_unique<IvfPqIndex>(options.ivfpq);
  }
  return nullptr;
}

/// Serves hits in base-table row ids from an index built over the
/// column's *distinct* values. Each distinct string embeds (and indexes)
/// once regardless of how often it repeats — on Zipfian corpora this
/// shrinks the index by the duplication factor — and the inner graph/
/// partition structures never degenerate into duplicate cliques. Hits
/// expand through the postings lists back to every base row holding the
/// value, so callers see ids 0..num_rows as if the index covered the
/// full column.
///
/// The distinct values themselves are retained: the incremental refresh
/// path needs them to tell "appended row holds a known value" (a postings
/// append) from "appended row introduces a new value" (an embedding + an
/// incremental insert into the inner index).
class DistinctExpandedIndex : public VectorIndex {
 public:
  DistinctExpandedIndex(std::unique_ptr<VectorIndex> inner,
                        std::vector<std::string> distinct,
                        std::vector<std::vector<std::uint32_t>> postings,
                        std::size_t num_rows)
      : inner_(std::move(inner)),
        distinct_(std::move(distinct)),
        postings_(std::move(postings)),
        rows_(num_rows) {}

  Status Build(const float*, std::size_t, std::size_t) override {
    return Status::Internal(
        "DistinctExpandedIndex is constructed over a prebuilt inner index");
  }

  /// Incremental append of base rows [first, words.size()): known values
  /// extend their postings list, new values embed once and insert into
  /// the inner index. Deterministic given (current state, appended rows).
  Status AppendRows(const std::vector<std::string>& words, std::size_t first,
                    const EmbeddingModel& model) {
    if (first != rows_ || words.size() < first) {
      return Status::Internal("append prefix does not line up with index");
    }
    std::unordered_map<std::string, std::uint32_t> seen;
    seen.reserve(distinct_.size() * 2);
    for (std::size_t i = 0; i < distinct_.size(); ++i) {
      seen.emplace(distinct_[i], static_cast<std::uint32_t>(i));
    }
    std::vector<std::string> fresh;
    for (std::size_t i = first; i < words.size(); ++i) {
      auto it = seen.find(words[i]);
      std::uint32_t id;
      if (it == seen.end()) {
        id = static_cast<std::uint32_t>(distinct_.size());
        seen.emplace(words[i], id);
        distinct_.push_back(words[i]);
        postings_.emplace_back();
        fresh.push_back(words[i]);
      } else {
        id = it->second;
      }
      postings_[id].push_back(static_cast<std::uint32_t>(i));
    }
    if (!fresh.empty()) {
      const std::size_t dim = model.dim();
      std::vector<float> matrix(fresh.size() * dim);
      model.EmbedBatch(fresh, matrix.data());
      CRE_RETURN_NOT_OK(inner_->Add(matrix.data(), fresh.size(), dim));
    }
    rows_ = words.size();
    return Status::OK();
  }

  void RangeSearch(const float* query, float threshold,
                   std::vector<ScoredId>* out) const override {
    std::vector<ScoredId> hits;
    inner_->RangeSearch(query, threshold, &hits);
    for (const ScoredId& h : hits) {
      for (const std::uint32_t row : postings_[h.id]) {
        out->push_back({row, h.score});
      }
    }
  }

  std::vector<ScoredId> TopK(const float* query,
                             std::size_t k) const override {
    // k distinct hits expand to >= k rows (every value has >= 1 row), so
    // asking the inner index for k is always sufficient.
    std::vector<ScoredId> out;
    out.reserve(k);
    for (const ScoredId& h : inner_->TopK(query, k)) {
      for (const std::uint32_t row : postings_[h.id]) {
        if (out.size() >= k) return out;
        out.push_back({row, h.score});
      }
    }
    return out;
  }

  std::size_t size() const override { return rows_; }
  std::size_t dim() const override { return inner_->dim(); }
  std::string name() const override { return inner_->name(); }
  std::size_t MemoryBytes() const override {
    std::size_t bytes = inner_->MemoryBytes();
    for (const auto& p : postings_) {
      bytes += p.size() * sizeof(std::uint32_t);
    }
    for (const auto& d : distinct_) bytes += d.size();
    return bytes;
  }

  std::unique_ptr<VectorIndex> Clone() const override {
    std::unique_ptr<VectorIndex> inner = inner_->Clone();
    if (inner == nullptr) return nullptr;
    return std::make_unique<DistinctExpandedIndex>(std::move(inner), distinct_,
                                                   postings_, rows_);
  }

  Status Save(std::ostream& out) const override {
    CRE_RETURN_NOT_OK(vecio::WriteTag(out, kWrapperMagic, kWrapperVersion));
    CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, rows_));
    CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, distinct_.size()));
    for (const auto& d : distinct_) {
      CRE_RETURN_NOT_OK(vecio::WriteString(out, d));
    }
    CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, postings_.size()));
    for (const auto& p : postings_) {
      CRE_RETURN_NOT_OK(vecio::WriteVec(out, p));
    }
    return inner_->Save(out);
  }

  /// Deserializes a wrapper image into `inner` (an unbuilt index of the
  /// right family) and returns the reassembled managed index. Every
  /// structural claim in the file is validated before it is trusted.
  static Result<std::unique_ptr<DistinctExpandedIndex>> LoadManaged(
      std::istream& in, std::unique_ptr<VectorIndex> inner) {
    CRE_RETURN_NOT_OK(
        vecio::ExpectTag(in, kWrapperMagic, kWrapperVersion, "managed index"));
    std::uint64_t rows = 0, distinct_count = 0, postings_count = 0;
    CRE_RETURN_NOT_OK(vecio::ReadPod(in, &rows));
    CRE_RETURN_NOT_OK(vecio::ReadPod(in, &distinct_count));
    if (distinct_count > rows) {
      return Status::InvalidArgument(
          "managed index load: more distinct values than rows");
    }
    std::vector<std::string> distinct(
        static_cast<std::size_t>(distinct_count));
    for (auto& d : distinct) {
      CRE_RETURN_NOT_OK(vecio::ReadString(in, &d));
    }
    CRE_RETURN_NOT_OK(vecio::ReadPod(in, &postings_count));
    if (postings_count != distinct_count) {
      return Status::InvalidArgument(
          "managed index load: postings/distinct mismatch");
    }
    std::vector<std::vector<std::uint32_t>> postings(
        static_cast<std::size_t>(postings_count));
    std::uint64_t total = 0;
    for (auto& p : postings) {
      CRE_RETURN_NOT_OK(vecio::ReadVec(in, &p));
      total += p.size();
      for (const std::uint32_t row : p) {
        if (row >= rows) {
          return Status::InvalidArgument(
              "managed index load: posting row out of range");
        }
      }
    }
    if (total != rows) {
      return Status::InvalidArgument(
          "managed index load: postings do not partition the rows");
    }
    CRE_RETURN_NOT_OK(inner->Load(in));
    if (inner->size() != distinct.size()) {
      return Status::InvalidArgument(
          "managed index load: inner size does not match distinct values");
    }
    return std::make_unique<DistinctExpandedIndex>(
        std::move(inner), std::move(distinct), std::move(postings),
        static_cast<std::size_t>(rows));
  }

 private:
  static constexpr std::uint32_t kWrapperMagic = 0x43575250;  // "CWRP"
  static constexpr std::uint32_t kWrapperVersion = 1;

  std::unique_ptr<VectorIndex> inner_;
  std::vector<std::string> distinct_;
  std::vector<std::vector<std::uint32_t>> postings_;
  std::size_t rows_;
};

// ---- persisted image header ----
// One image = [manager header][wrapper payload][inner payload]. The
// header carries the full index identity plus the freshness evidence, so
// a scan can build the on-disk catalog from headers alone and a load can
// reject a stale or foreign image before touching the payload.

constexpr std::uint32_t kImageMagic = 0x43524D47;  // "CRMG"
constexpr std::uint32_t kImageVersion = 1;

Status WriteImageHeader(std::ostream& out, const IndexKey& key,
                        std::uint64_t catalog_stamp,
                        std::uint64_t content_hash, std::uint64_t rows) {
  CRE_RETURN_NOT_OK(vecio::WriteTag(out, kImageMagic, kImageVersion));
  CRE_RETURN_NOT_OK(vecio::WriteString(out, key.table));
  CRE_RETURN_NOT_OK(vecio::WriteString(out, key.column));
  CRE_RETURN_NOT_OK(vecio::WriteString(out, key.model));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint32_t>(out, static_cast<std::uint32_t>(key.kind)));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, catalog_stamp));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, content_hash));
  return vecio::WritePod<std::uint64_t>(out, rows);
}

Status ReadImageHeader(std::istream& in, IndexKey* key,
                       std::uint64_t* catalog_stamp,
                       std::uint64_t* content_hash, std::uint64_t* rows) {
  CRE_RETURN_NOT_OK(
      vecio::ExpectTag(in, kImageMagic, kImageVersion, "index image"));
  CRE_RETURN_NOT_OK(vecio::ReadString(in, &key->table));
  CRE_RETURN_NOT_OK(vecio::ReadString(in, &key->column));
  CRE_RETURN_NOT_OK(vecio::ReadString(in, &key->model));
  std::uint32_t kind = 0;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &kind));
  if (kind > static_cast<std::uint32_t>(SemanticJoinStrategy::kIvfPq)) {
    return Status::InvalidArgument("index image: unknown family");
  }
  key->kind = static_cast<SemanticJoinStrategy>(kind);
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, catalog_stamp));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, content_hash));
  return vecio::ReadPod(in, rows);
}

}  // namespace

std::string IndexKey::ToString() const {
  return table + "." + column + " @" + model + " [" +
         SemanticJoinStrategyName(kind) + "]";
}

std::size_t IndexKeyHash::operator()(const IndexKey& k) const {
  std::uint64_t h = HashString(k.table);
  h = HashCombine(h, HashString(k.column));
  h = HashCombine(h, HashString(k.model));
  h = HashCombine(h, static_cast<std::uint64_t>(k.kind));
  return static_cast<std::size_t>(h);
}

IndexManager::IndexManager(const Catalog* catalog, const ModelRegistry* models,
                           IndexManagerOptions options)
    : catalog_(catalog), models_(models), options_(std::move(options)) {
  ScanPersistDir();
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::BuildIndex(
    const IndexKey& key, std::uint64_t* table_version,
    std::uint64_t* content_hash, bool serial) const {
  // Snapshot table + version atomically: the entry must never pair a new
  // table's contents with an older stamp (it would mask an invalidation).
  CRE_ASSIGN_OR_RETURN(Catalog::VersionedTable vt,
                       catalog_->GetVersioned(key.table));
  *table_version = vt.version;
  CRE_ASSIGN_OR_RETURN(const Column* col, vt.table->ColumnByName(key.column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("index column '" + key.column +
                             "' of table '" + key.table +
                             "' must be a string column");
  }
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_->Get(key.model));

  const auto& words = col->strings();
  if (content_hash != nullptr) *content_hash = ColumnContentHash(words);
  const std::size_t dim = model->dim();

  // Embed and index each distinct value once; remember which rows hold it.
  std::vector<std::string> distinct;
  std::vector<std::vector<std::uint32_t>> postings;
  {
    std::unordered_map<std::string_view, std::uint32_t> seen;
    seen.reserve(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      auto [it, inserted] = seen.emplace(
          std::string_view(words[i]),
          static_cast<std::uint32_t>(distinct.size()));
      if (inserted) {
        distinct.push_back(words[i]);
        postings.emplace_back();
      }
      postings[it->second].push_back(static_cast<std::uint32_t>(i));
    }
  }
  // The transient embed matrix is the build's allocation spike; charge it
  // against the engine-wide governor before allocating. A breach fails
  // the build with kResourceExhausted and the semantic strategies fall
  // back to brute force — never std::bad_alloc.
  const std::size_t matrix_bytes = distinct.size() * dim * sizeof(float);
  struct GovernorGuard {
    ResourceGovernor* governor = nullptr;
    std::size_t bytes = 0;
    ~GovernorGuard() {
      if (governor != nullptr) governor->Release(bytes);
    }
  } guard;
  if (options_.governor != nullptr) {
    CRE_RETURN_NOT_OK(
        options_.governor->Charge(matrix_bytes, "index build embed matrix"));
    guard.governor = options_.governor;
    guard.bytes = matrix_bytes;
  }
  CRE_RETURN_IF_FAULT("index.build.embed");
  std::vector<float> matrix(distinct.size() * dim);
  model->EmbedBatch(distinct, matrix.data());

  CRE_RETURN_IF_FAULT("index.build.construct");
  // Background builds execute on a pool worker; fanning construction out
  // over the pool from there would make a worker block in Wait (deadlock
  // on small pools), so they build serially inside their one task.
  std::unique_ptr<VectorIndex> index = MakeInnerIndex(key.kind, options_,
                                                      serial);
  if (index == nullptr) {
    return Status::InvalidArgument(
        "brute force is not an index kind (nothing to cache)");
  }
  CRE_RETURN_NOT_OK(index->Build(matrix.data(), distinct.size(), dim));
  return std::shared_ptr<const VectorIndex>(std::make_shared<
      DistinctExpandedIndex>(std::move(index), std::move(distinct),
                             std::move(postings), words.size()));
}

bool IndexManager::RefreshableLocked(const IndexKey& key,
                                     const Entry& entry) const {
  auto found = catalog_->AppendedSince(key.table, entry.table_version);
  if (!found.ok()) return false;  // a destructive change broke the chain
  const Catalog::AppendChain& chain = found.ValueUnsafe();
  const double total = static_cast<double>(chain.table->num_rows());
  const double appended = total - static_cast<double>(chain.prefix_rows);
  return appended <= kRefreshMaxAppendedFraction * total;
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::RefreshIndex(
    const IndexKey& key, const std::shared_ptr<const VectorIndex>& old_index,
    std::uint64_t old_version, std::uint64_t* new_version,
    std::uint64_t* content_hash) const {
  // Re-fetch the chain under the catalog lock: the table, its head
  // stamp, and the proof that everything since old_version was
  // append-style arrive as one consistent unit, so the refreshed entry
  // is stamped with exactly the contents it indexed. If yet another
  // append lands while we refresh, the entry comes out stale again and
  // the next lookup refreshes once more — never wrong, at worst late.
  CRE_ASSIGN_OR_RETURN(Catalog::AppendChain chain,
                       catalog_->AppendedSince(key.table, old_version));
  const auto* old_wrapper =
      dynamic_cast<const DistinctExpandedIndex*>(old_index.get());
  if (old_wrapper == nullptr || old_wrapper->size() != chain.prefix_rows) {
    return Status::Internal("refresh prefix does not match resident index");
  }
  CRE_ASSIGN_OR_RETURN(const Column* col,
                       chain.table->ColumnByName(key.column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("index column '" + key.column +
                             "' must be a string column");
  }
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_->Get(key.model));
  const auto& words = col->strings();

  // Copy-on-write: queries holding the old shared_ptr keep probing an
  // untouched immutable graph; all mutation goes into the clone.
  std::unique_ptr<VectorIndex> cloned = old_wrapper->Clone();
  auto* wrapper = dynamic_cast<DistinctExpandedIndex*>(cloned.get());
  if (wrapper == nullptr) {
    return Status::Internal("managed index family does not support cloning");
  }
  CRE_RETURN_IF_FAULT("index.refresh.append");
  CRE_RETURN_NOT_OK(wrapper->AppendRows(words, chain.prefix_rows, *model));
  *new_version = chain.to_version;
  if (content_hash != nullptr) *content_hash = ColumnContentHash(words);
  return std::shared_ptr<const VectorIndex>(std::move(cloned));
}

std::string IndexManager::PersistPathFor(const IndexKey& key) const {
  return options_.persist_dir + "/cre_" +
         std::to_string(IndexKeyHash{}(key)) + ".idx";
}

void IndexManager::ScanPersistDir() {
  if (options_.persist_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.persist_dir, ec);
  std::filesystem::directory_iterator dir(options_.persist_dir, ec);
  if (ec) return;
  for (const auto& de : dir) {
    if (!de.is_regular_file(ec)) continue;
    const std::string path = de.path().string();
    if (de.path().extension() != ".idx") continue;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) continue;
    IndexKey key;
    PersistedMeta meta;
    if (!ReadImageHeader(in, &key, &meta.catalog_stamp, &meta.content_hash,
                         &meta.rows)
             .ok()) {
      continue;  // foreign or corrupt header: not a warm-start candidate
    }
    meta.path = path;
    std::error_code sec;
    const auto size = de.file_size(sec);
    meta.bytes = sec ? 0 : static_cast<std::uint64_t>(size);
    const auto mtime = de.last_write_time(sec);
    meta.mtime_ns =
        sec ? 0 : static_cast<std::int64_t>(mtime.time_since_epoch().count());
    persisted_[key] = std::move(meta);
  }
}

Status IndexManager::PersistToDiskOnce(
    const IndexKey& key, const std::shared_ptr<const VectorIndex>& index,
    std::uint64_t catalog_stamp, std::uint64_t content_hash) {
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string path = PersistPathFor(key);
  // Unique across threads (counter) AND across processes sharing one
  // persist_dir (pid) — e.g. a blue-green restart overlap; colliding tmp
  // names would interleave two writers' bytes and publish garbage over a
  // good image.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "_" +
                          std::to_string(tmp_seq.fetch_add(1));
  {
    CRE_RETURN_IF_FAULT("persist.open");
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot create index image tmp file: " + tmp);
    }
    Status s = CRE_INJECT_FAULT("persist.write");
    if (s.ok()) {
      s = WriteImageHeader(out, key, catalog_stamp, content_hash,
                           index->size());
    }
    if (s.ok()) s = index->Save(out);
    out.flush();
    if (s.ok() && !out.good()) {
      s = Status::IoError("short write persisting index image: " + tmp);
    }
    if (!s.ok()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return s;
    }
  }
  // Atomic publish: readers only ever see a complete image. The rename
  // runs under mu_ so a slow writer that lost the race to a newer
  // install (a refresh that finished after this build released the
  // lock) cannot roll the published image back to an older stamp.
  std::error_code ec;
  bool published = false;
  Status rename_status;
  std::vector<std::string> doomed;
  {
    MutexLock lock(mu_);
    auto it = persisted_.find(key);
    // Only a stamp written by THIS process is comparable (catalog
    // stamps restart with the process); a scanned image from a previous
    // run never outranks a fresh write.
    if (it != persisted_.end() && it->second.stamp_local &&
        it->second.catalog_stamp > catalog_stamp) {
      // A newer image is already published; discard ours (a success: the
      // key is persisted, just by someone fresher).
    } else {
      Status fault = CRE_INJECT_FAULT("persist.rename");
      if (fault.ok()) {
        std::filesystem::rename(tmp, path, ec);
      }
      if (!fault.ok() || ec) {
        rename_status =
            fault.ok() ? Status::IoError("cannot publish index image: " +
                                         path + " (" + ec.message() + ")")
                       : fault;
      } else {
        PersistedMeta meta{path, catalog_stamp, content_hash, index->size(),
                           /*stamp_local=*/true};
        std::error_code sec;
        const auto size = std::filesystem::file_size(path, sec);
        meta.bytes = sec ? 0 : static_cast<std::uint64_t>(size);
        const auto mtime = std::filesystem::last_write_time(path, sec);
        meta.mtime_ns = sec ? 0 : static_cast<std::int64_t>(
                                      mtime.time_since_epoch().count());
        persisted_[key] = std::move(meta);
        ++counters_.disk_writes;
        published = true;
        SweepPersistBudgetLocked(key, &doomed);
      }
    }
  }
  for (const auto& victim : doomed) {
    std::filesystem::remove(victim, ec);
  }
  if (!published) std::filesystem::remove(tmp, ec);
  return rename_status;
}

void IndexManager::PersistToDisk(
    const IndexKey& key, const std::shared_ptr<const VectorIndex>& index,
    std::uint64_t catalog_stamp, std::uint64_t content_hash) {
  if (options_.persist_dir.empty() || index == nullptr) return;
  double backoff_ms = kPersistFirstBackoffMs;
  for (int attempt = 0; attempt < kPersistAttempts; ++attempt) {
    if (attempt > 0) {
      // Transient write failure (fd pressure, a racing unlink, a slow
      // filesystem): back off exponentially, then try a fresh tmp file.
      {
        MutexLock lock(mu_);
        ++counters_.disk_retries;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= 2;
    }
    Status s = PersistToDiskOnce(key, index, catalog_stamp, content_hash);
    if (s.ok()) return;
  }
  // Attempts exhausted: the image is simply not persisted this round —
  // resident serving is unaffected, and the next install tries again.
}

void IndexManager::SchedulePersist(const IndexKey& key,
                                   std::shared_ptr<const VectorIndex> index,
                                   std::uint64_t catalog_stamp,
                                   std::uint64_t content_hash) {
  if (options_.persist_dir.empty() || index == nullptr) return;
  TaskRunner* runner = nullptr;
  {
    MutexLock lock(mu_);
    runner = background_runner_;
    // The pending write counts like a build so WaitForBuilds covers it:
    // a waiter may destroy the manager the moment the count drops, so
    // the task must decrement as its very last manager touch.
    if (runner != nullptr) ++builds_in_flight_;
  }
  if (runner == nullptr) {
    PersistToDisk(key, index, catalog_stamp, content_hash);
    return;
  }
  runner->Submit([this, key, index = std::move(index), catalog_stamp,
                  content_hash] {
    PersistToDisk(key, index, catalog_stamp, content_hash);
    MutexLock lock(mu_);
    --builds_in_flight_;
    cv_.NotifyAll();
  });
}

void IndexManager::SweepPersistBudgetLocked(const IndexKey& just_written,
                                            std::vector<std::string>* doomed) {
  if (options_.persist_budget_bytes == 0) return;
  std::uint64_t total = 0;
  for (const auto& [key, meta] : persisted_) {
    (void)key;
    total += meta.bytes;
  }
  while (total > options_.persist_budget_bytes) {
    auto victim = persisted_.end();
    for (auto it = persisted_.begin(); it != persisted_.end(); ++it) {
      if (it->first == just_written) continue;
      if (victim == persisted_.end() ||
          it->second.mtime_ns < victim->second.mtime_ns) {
        victim = it;
      }
    }
    // Never reclaim the image that triggered the sweep: an over-budget
    // singleton would otherwise write-then-delete itself forever.
    if (victim == persisted_.end()) return;
    total -= victim->second.bytes;
    doomed->push_back(victim->second.path);
    persisted_.erase(victim);
    ++counters_.disk_gc;
  }
}

void IndexManager::DropPersisted(const IndexKey& key) {
  std::string path;
  {
    MutexLock lock(mu_);
    auto it = persisted_.find(key);
    if (it == persisted_.end()) return;
    path = it->second.path;
    persisted_.erase(it);
    ++counters_.disk_rejects;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::LoadFromDisk(
    const IndexKey& key, std::uint64_t* table_version,
    std::uint64_t* content_hash) const {
  std::string path;
  {
    MutexLock lock(mu_);
    auto it = persisted_.find(key);
    if (it == persisted_.end()) {
      return Status::NotFound("no persisted image for " + key.ToString());
    }
    path = it->second.path;
  }
  CRE_RETURN_IF_FAULT("load.open");
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("persisted image unreadable: " + path);
  }
  CRE_RETURN_IF_FAULT("load.read");
  IndexKey file_key;
  std::uint64_t saved_stamp = 0, saved_hash = 0, saved_rows = 0;
  CRE_RETURN_NOT_OK(
      ReadImageHeader(in, &file_key, &saved_stamp, &saved_hash, &saved_rows));
  if (!(file_key == key)) {
    return Status::InvalidArgument("persisted image identity mismatch");
  }
  // Freshness is judged against the *live* table, by content: catalog
  // stamps are process-local, so after a restart only the column digest
  // can prove the image still matches. A mismatch (the table changed
  // while the image sat on disk) is a rejection, never a stale serve.
  CRE_ASSIGN_OR_RETURN(Catalog::VersionedTable vt,
                       catalog_->GetVersioned(key.table));
  CRE_ASSIGN_OR_RETURN(const Column* col, vt.table->ColumnByName(key.column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("persisted image over non-string column");
  }
  const auto& words = col->strings();
  if (words.size() != saved_rows ||
      ColumnContentHash(words) != saved_hash) {
    return Status::InvalidArgument(
        "persisted image stale: table content changed since save");
  }
  std::unique_ptr<VectorIndex> inner =
      MakeInnerIndex(key.kind, options_, /*serial=*/true);
  if (inner == nullptr) {
    return Status::InvalidArgument("persisted image of non-index family");
  }
  CRE_ASSIGN_OR_RETURN(std::unique_ptr<DistinctExpandedIndex> wrapper,
                       DistinctExpandedIndex::LoadManaged(in, std::move(inner)));
  if (wrapper->size() != words.size()) {
    return Status::InvalidArgument("persisted image row count mismatch");
  }
  *table_version = vt.version;
  if (content_hash != nullptr) *content_hash = saved_hash;
  return std::shared_ptr<const VectorIndex>(std::move(wrapper));
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::GetOrBuild(
    const IndexKey& key, std::uint64_t* built_version) {
  CRE_ASSIGN_OR_RETURN(AsyncIndex found, Lookup(key, /*nonblocking=*/false));
  if (built_version != nullptr) *built_version = found.built_version;
  return found.index;
}

Result<IndexManager::AsyncIndex> IndexManager::GetOrBuildAsync(
    const IndexKey& key) {
  return Lookup(key, /*nonblocking=*/true);
}

IndexManager::Job IndexManager::DecideLocked(const IndexKey& key,
                                             bool background) {
  Job job;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    job.entry = it->second;
    if (job.entry->building) {
      // Single-flight: someone else is on this key.
      job.step = background ? Step::kInFlight : Step::kWait;
      return job;
    }
    if (job.entry->table_version == catalog_->Version(key.table)) {
      job.step = Step::kHit;
      return job;
    }
    if (RefreshableLocked(key, *job.entry)) {
      // Copy-on-write renewal: queries holding the old index keep probing
      // it until the refreshed clone is installed.
      job.step = Step::kRefresh;
      job.old_index = job.entry->index;
      job.old_version = job.entry->table_version;
      job.entry->building = true;
      ++builds_in_flight_;
      return job;
    }
    // Version-stamped invalidation: the table changed destructively (or
    // grew past the refresh crossover) since the build. A this-process
    // image stamped before the change can never validate again (the
    // content hash now disagrees); reclaim it instead of leaving a dead
    // file for the next startup scan. Scanned images keep their benefit
    // of the doubt until load time.
    resident_bytes_ -= job.entry->bytes;
    entries_.erase(it);
    ++counters_.invalidations;
    auto pit = persisted_.find(key);
    if (pit != persisted_.end() && pit->second.stamp_local &&
        pit->second.catalog_stamp != catalog_->Version(key.table)) {
      job.doomed_image = pit->second.path;
      persisted_.erase(pit);
      ++counters_.disk_gc;
    }
    CheckAccountingLocked();
  }
  // Miss: install a building placeholder; the work runs outside the lock
  // so lookups of other keys (and waiters on this one) don't serialize
  // behind embedding + construction. Deserializing an image is orders of
  // magnitude cheaper than a build, so even a background caller warm-
  // starts inline — but only from an image plausible for the live table.
  job.step = persisted_.count(key) != 0 &&
                     (!background || PersistedPlausibleLocked(key))
                 ? Step::kDiskLoad
                 : Step::kBuild;
  job.entry = std::make_shared<Entry>();
  job.entry->building = true;
  entries_[key] = job.entry;
  ++builds_in_flight_;
  return job;
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::RunJob(
    const IndexKey& key, Job* job, bool serial) {
  // The content hash only feeds the persisted-image header; skip the
  // O(column) hashing pass entirely when persistence is off.
  std::uint64_t* hash = options_.persist_dir.empty() ? nullptr : &job->hash;
  if (job->step == Step::kRefresh) {
    return RefreshIndex(key, job->old_index, job->old_version, &job->version,
                        hash);
  }
  if (job->step == Step::kDiskLoad) {
    auto loaded = LoadFromDisk(key, &job->version, hash);
    if (loaded.ok()) return loaded;
    // Only a validation verdict (foreign/corrupt/truncated/stale content)
    // proves the image bad. Transient failures — the file unreadable
    // under fd pressure, the table momentarily dropped — must leave a
    // still-valid image in place for the next start.
    if (loaded.status().IsInvalidArgument() ||
        loaded.status().code() == StatusCode::kOutOfRange) {
      DropPersisted(key);
    }
    job->step = Step::kBuild;
  }
  return BuildIndex(key, &job->version, hash, serial);
}

Result<IndexManager::AsyncIndex> IndexManager::Lookup(const IndexKey& key,
                                                      bool nonblocking) {
  MutexLock lock(mu_);
  lookup_keys_.insert(key);
  TaskRunner* const runner =
      nonblocking && options_.async_builds ? background_runner_ : nullptr;
  bool counted_miss = false;
  for (;;) {
    Job job = DecideLocked(key, runner != nullptr);
    switch (job.step) {
      case Step::kHit:
        job.entry->lru_tick = ++tick_;
        ++counters_.hits;
        return AsyncIndex{job.entry->index, job.entry->table_version, false};
      case Step::kInFlight:
        ++counters_.async_fallbacks;
        return AsyncIndex{nullptr, 0, true};
      case Step::kWait:
        while (job.entry->building) cv_.Wait(lock);
        continue;  // decide again: the entry may be replaced or removed
      default:
        break;
    }
    if (!counted_miss) ++counters_.misses;
    counted_miss = true;
    const bool in_background = runner != nullptr && job.step != Step::kDiskLoad;
    if (in_background) {
      ++counters_.background_builds;
      ++counters_.async_fallbacks;
    }
    lock.Unlock();
    if (!job.doomed_image.empty()) {
      std::error_code ec;
      std::filesystem::remove(job.doomed_image, ec);
    }

    if (in_background) {
      // Builds serially: this task runs *on* a pool worker (see
      // BuildIndex). The building placeholder keeps it single-flight.
      runner->Submit([this, key, job = std::move(job)]() mutable {
        auto built = RunJob(key, &job, /*serial=*/true);
        // Persist BEFORE installing: FinishInstallLocked releases
        // WaitForBuilds (builds_in_flight_), so nothing in this task may
        // touch the manager after it — a waiter is free to destroy the
        // manager the moment the count drops.
        if (built.ok()) {
          PersistToDisk(key, built.ValueUnsafe(), job.version, job.hash);
        }
        MutexLock task_lock(mu_);
        FinishInstallLocked(key, job, std::move(built));
      });
      return AsyncIndex{nullptr, 0, true};
    }

    auto built = RunJob(key, &job, /*serial=*/false);
    lock.Lock();
    const Status status = built.ok() ? Status::OK() : built.status();
    FinishInstallLocked(key, job, std::move(built));
    if (!status.ok()) {
      // A refresh whose chain broke mid-flight dropped its entry: decide
      // again, which now rebuilds.
      if (job.step == Step::kRefresh) continue;
      return status;
    }
    AsyncIndex found{job.entry->index, job.version, false};
    lock.Unlock();
    if (job.step != Step::kDiskLoad) {
      // Write-through after install, on the background runner when one
      // is wired, so file I/O stays off the query's latency.
      SchedulePersist(key, found.index, job.version, job.hash);
    }
    return found;
  }
}

void IndexManager::FinishInstallLocked(
    const IndexKey& key, const Job& job,
    Result<std::shared_ptr<const VectorIndex>>&& built) {
  Entry* entry = job.entry.get();
  entry->building = false;
  --builds_in_flight_;
  if (!built.ok()) {
    if (job.step == Step::kBuild) ++counters_.build_failures;
    if (job.step == Step::kRefresh) ++counters_.invalidations;
    // Only remove our own entry (an invalidation never replaces a
    // building entry, but stay defensive). A failed refresh drops the
    // stale entry it was renewing — its footprint leaves the aggregate
    // with it — and the caller falls back to a rebuild.
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == job.entry) {
      resident_bytes_ -= entry->bytes;
      entries_.erase(it);
    }
    cv_.NotifyAll();
    CheckAccountingLocked();
    return;
  }
  // Byte accounting is recomputed on every install: refreshes grow the
  // index, so a footprint captured at first build would drift under the
  // real one and the budget would silently over-admit.
  resident_bytes_ -= entry->bytes;
  entry->index = std::move(built).ValueUnsafe();
  entry->table_version = job.version;
  entry->bytes = entry->index->MemoryBytes();
  resident_bytes_ += entry->bytes;
  entry->lru_tick = ++tick_;
  switch (job.step) {
    case Step::kRefresh:
      ++counters_.refreshes;
      break;
    case Step::kDiskLoad: {
      ++counters_.disk_loads;
      // The adopted image is now proven fresh for the live table at
      // job.version: localize its stamp so plausibility probes and
      // anti-rollback checks compare real (this-process) versions.
      auto pit = persisted_.find(key);
      if (pit != persisted_.end()) {
        pit->second.catalog_stamp = job.version;
        pit->second.stamp_local = true;
      }
      break;
    }
    default:
      ++counters_.builds;
      break;
  }
  EvictForBudgetLocked(entry);
  cv_.NotifyAll();
  CheckAccountingLocked();
}

void IndexManager::EnableAsyncBuilds(TaskRunner* background_runner) {
  MutexLock lock(mu_);
  background_runner_ = background_runner;
}

void IndexManager::WaitForBuilds() {
  MutexLock lock(mu_);
  while (builds_in_flight_ != 0) cv_.Wait(lock);
}

void IndexManager::EvictForBudgetLocked(const Entry* keep) {
  while (resident_bytes_ > options_.memory_budget_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->building || it->second.get() == keep) continue;
      if (victim == entries_.end() ||
          it->second->lru_tick < victim->second->lru_tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // nothing evictable
    // The persisted image (write-through at install) outlives the
    // eviction, so the key degrades to kOnDisk rather than kAbsent.
    resident_bytes_ -= victim->second->bytes;
    entries_.erase(victim);
    ++counters_.evictions;
  }
}

void IndexManager::CheckAccountingLocked() const {
#ifndef NDEBUG
  std::size_t sum = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    sum += entry->bytes;
  }
  CRE_CHECK(sum == resident_bytes_);
#endif
}

bool IndexManager::IsResident(const IndexKey& key) const {
  return Residency(key) == IndexResidency::kResident;
}

bool IndexManager::PersistedPlausibleLocked(const IndexKey& key) const {
  // Cheap probe only (the optimizer calls this per considered strategy,
  // and the async serving path gates its synchronous warm start on it).
  // An image stamped by this process is exact: fresh iff the stamp
  // still matches, so a same-cardinality Put can't lure the serving
  // path into a doomed blocking load. A scanned image (previous run)
  // can only be row-count plausible; the content-hash proof runs at
  // load time, and a lying image is rejected there — the plan's
  // load-cost estimate was merely optimistic.
  auto it = persisted_.find(key);
  if (it == persisted_.end()) return false;
  if (it->second.stamp_local) {
    return it->second.catalog_stamp == catalog_->Version(key.table);
  }
  auto vt = catalog_->GetVersioned(key.table);
  return vt.ok() && vt.ValueOrDie().table->num_rows() == it->second.rows;
}

IndexResidency IndexManager::Residency(const IndexKey& key) const {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second->building) return IndexResidency::kBuilding;
    if (it->second->table_version == catalog_->Version(key.table)) {
      return IndexResidency::kResident;
    }
    // Stale — but refreshable means the next lookup renews it
    // incrementally at a fraction of a rebuild. The optimizer must see
    // that (kRefreshable), or with a conservative reuse horizon it would
    // flip to brute force after every append and planned queries would
    // never reach the refresh path at all. Past the crossover the lookup
    // rebuilds, so the entry reports like any other stale entry.
    if (RefreshableLocked(key, *it->second)) {
      return IndexResidency::kRefreshable;
    }
  }
  if (PersistedPlausibleLocked(key)) return IndexResidency::kOnDisk;
  return IndexResidency::kAbsent;
}

void IndexManager::InvalidateTable(const std::string& table) {
  std::vector<std::string> doomed;
  {
    MutexLock lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.table == table && !it->second->building) {
        resident_bytes_ -= it->second->bytes;
        it = entries_.erase(it);
        ++counters_.invalidations;
      } else {
        ++it;
      }
    }
    // An explicit invalidation is a destructive signal: the persisted
    // images over this table can never validate again, so reclaim them.
    for (auto it = persisted_.begin(); it != persisted_.end();) {
      if (it->first.table == table) {
        doomed.push_back(it->second.path);
        it = persisted_.erase(it);
      } else {
        ++it;
      }
    }
    CheckAccountingLocked();
  }
  for (const auto& path : doomed) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

void IndexManager::Clear() {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->building) {
      ++it;
    } else {
      resident_bytes_ -= it->second->bytes;
      it = entries_.erase(it);
    }
  }
  CheckAccountingLocked();
}

IndexManager::Stats IndexManager::stats() const {
  MutexLock lock(mu_);
  Stats s = counters_;
  s.resident_bytes = resident_bytes_;
  s.distinct_lookup_keys = lookup_keys_.size();
  s.resident_count = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (!entry->building) ++s.resident_count;
  }
  return s;
}

}  // namespace cre
