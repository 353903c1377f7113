#ifndef CRE_INDEX_INDEX_MANAGER_H_
#define CRE_INDEX_INDEX_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/hash.h"
#include "core/mutex.h"
#include "core/resource_governor.h"
#include "core/result.h"
#include "embed/model_registry.h"
#include "semantic/semantic_join.h"
#include "storage/catalog.h"
#include "vecsim/vector_index.h"

namespace cre {

/// Identity of one persistent vector index: the embeddings of one string
/// column of one catalog table under one representation model, organized
/// as one physical index family. Two queries that agree on all four share
/// the same index instance.
struct IndexKey {
  std::string table;
  std::string column;
  std::string model;
  SemanticJoinStrategy kind = SemanticJoinStrategy::kHnsw;

  bool operator==(const IndexKey& o) const {
    return kind == o.kind && table == o.table && column == o.column &&
           model == o.model;
  }
  std::string ToString() const;
};

struct IndexKeyHash {
  std::size_t operator()(const IndexKey& k) const;
};

struct IndexManagerOptions {
  /// Master switch: when false the engine never consults the manager and
  /// semantic operators build per-execution indexes as before.
  bool enabled = true;
  /// Asynchronous builds: when true (and the engine has wired a
  /// background runner), a GetOrBuildAsync lookup that needs a build or
  /// a refresh enqueues it as one background-priority task and returns
  /// immediately, so the requesting query is served by the brute-force
  /// path and the cold-build latency is hidden from the query stream.
  /// When false, GetOrBuildAsync blocks exactly like GetOrBuild.
  bool async_builds = false;
  /// On-disk persistence: when non-empty, every successful build/refresh
  /// write-throughs a versioned index image into this directory
  /// (<dir>/cre_<keyhash>.idx, atomic tmp+rename), and a cold lookup
  /// warm-starts from the matching image instead of rebuilding — so
  /// resident indexes survive both LRU eviction and process restarts.
  /// Images carry the (table, column, model, family) identity, the
  /// catalog stamp at save time, and a content hash of the indexed
  /// column; a load whose identity/content does not match the live
  /// table, or whose file is truncated/corrupt, is rejected and the
  /// lookup falls back to a clean rebuild. Never serves stale data.
  /// A write that fails transiently is retried (3 attempts, backoff from
  /// 1 ms doubling); one that still fails is simply not persisted.
  std::string persist_dir;
  /// Total bytes of persisted images kept in persist_dir before the GC
  /// sweep reclaims the oldest (by file modification time). 0 = no
  /// budget (images accumulate until destructively invalidated). The
  /// image just written is never reclaimed by its own write-through.
  std::size_t persist_budget_bytes = 0;
  /// Total bytes of resident indexes before LRU eviction kicks in. The
  /// most recently built index is never evicted by its own insertion.
  std::size_t memory_budget_bytes = 256ull << 20;
  /// Engine-wide memory accountant (may be null). Builds charge the
  /// transient embed matrix against it before allocating; a breach fails
  /// the build with kResourceExhausted — the semantic strategies then
  /// degrade to the brute-force fallback instead of dying.
  ResourceGovernor* governor = nullptr;
  /// Build parameters for the index families the manager constructs.
  LshOptions lsh;
  IvfOptions ivf;
  HnswOptions hnsw;
  IvfPqOptions ivfpq;
};

/// The engine's persistent vector-index subsystem (paper Sec. V: "index
/// structures for expediting similarity and top-k searches" as first-class,
/// optimizer-visible state). Owns every cached VectorIndex, keyed by
/// IndexKey, and provides:
///
///  - cross-query reuse: GetOrBuild returns a shared, immutable index;
///    repeated queries over the same (table, column, model, kind) pay the
///    embedding + build cost once;
///  - versioned invalidation with incremental maintenance: each entry
///    records the Catalog version stamp of its base table at build time.
///    A destructive change (Put/Drop) makes the entry stale and the next
///    lookup rebuilds; an append-style change (Catalog::Append) makes the
///    next lookup *refresh* the entry in place — clone, insert only the
///    appended rows, swap — while the appended rows are at most 25% of
///    the table (past that a bulk rebuild is cheaper and re-balances the
///    structure, so the lookup rebuilds);
///  - a memory budget with LRU eviction over ready entries, with byte
///    accounting recomputed on every install (builds grow on refresh);
///  - on-disk persistence (persist_dir): built indexes spill to disk and
///    cold lookups warm-start from it, surviving process restarts;
///  - thread-safe concurrent access with single-flight builds: concurrent
///    queries needing the same absent index block on one build instead of
///    duplicating it.
///
/// Both lookups run one state machine: a single locked step decides hit,
/// wait, in flight, refresh, build or warm start from disk, and the
/// chosen work then runs either inline on the caller (GetOrBuild; a warm
/// start; GetOrBuildAsync without async builds) or as one background
/// task.
///
/// Returned indexes are immutable and safe to probe from any thread; they
/// stay alive (shared_ptr) even if evicted, refreshed, or invalidated
/// mid-query.
class IndexManager {
 public:
  struct Stats {
    std::uint64_t hits = 0;           ///< lookups served by a fresh entry
    std::uint64_t misses = 0;         ///< lookups that required a build
    std::uint64_t builds = 0;         ///< successful full constructions
    std::uint64_t build_failures = 0;
    /// Stale entries renewed by the incremental append path (no rebuild).
    std::uint64_t refreshes = 0;
    std::uint64_t evictions = 0;      ///< entries dropped for the budget
    std::uint64_t invalidations = 0;  ///< entries dropped as version-stale
    /// Builds enqueued onto the background runner by GetOrBuildAsync.
    std::uint64_t background_builds = 0;
    /// Async lookups answered "build in flight" (the caller served the
    /// query through the brute-force fallback instead of blocking).
    std::uint64_t async_fallbacks = 0;
    /// Lookups served by deserializing a persisted image (no rebuild).
    std::uint64_t disk_loads = 0;
    /// Successful write-throughs of built/refreshed indexes to disk.
    std::uint64_t disk_writes = 0;
    /// Persisted images rejected at load time: identity/stamp/content
    /// mismatch against the live table, or a truncated/corrupt file.
    std::uint64_t disk_rejects = 0;
    /// Persisted images deleted by GC: a destructive table change proved
    /// the image permanently stale, or the size-budget sweep reclaimed
    /// the oldest images to fit persist_budget_bytes.
    std::uint64_t disk_gc = 0;
    /// Write-through attempts retried after a transient failure (each
    /// backed off exponentially; an image that exhausts its attempts is
    /// simply not persisted — resident serving is unaffected).
    std::uint64_t disk_retries = 0;
    std::size_t resident_count = 0;
    std::size_t resident_bytes = 0;
    /// Distinct keys ever looked up (GetOrBuild/GetOrBuildAsync).
    /// hits+misses over this is the manager's measured lookups-per-key
    /// reuse rate — what the knob tuner refits index_reuse_horizon from.
    std::size_t distinct_lookup_keys = 0;
  };

  IndexManager(const Catalog* catalog, const ModelRegistry* models,
               IndexManagerOptions options = {});

  /// Returns the shared index for `key`, building it if absent or stale.
  /// Stale-by-append entries refresh incrementally; cold lookups try the
  /// persisted on-disk image before paying a build. Concurrent callers
  /// with the same key wait for a single build. Errors (missing
  /// table/model, non-string column, failed build) are returned to every
  /// waiter and nothing is cached. When `built_version` is non-null it
  /// receives the catalog version stamp the returned index was built
  /// against — callers pairing the index with their own table snapshot
  /// compare stamps (not just row counts) to rule out a same-cardinality
  /// table replacement racing the lookup.
  Result<std::shared_ptr<const VectorIndex>> GetOrBuild(
      const IndexKey& key, std::uint64_t* built_version = nullptr);

  /// Outcome of a non-blocking lookup: either a ready index (with the
  /// catalog version it was built against) or "a build is in flight" —
  /// never both, never a wait.
  struct AsyncIndex {
    std::shared_ptr<const VectorIndex> index;  ///< null while building
    std::uint64_t built_version = 0;
    bool build_in_flight = false;
  };

  /// Non-blocking variant of GetOrBuild for the serving path. A fresh
  /// resident entry returns immediately (a hit, same as GetOrBuild). On
  /// a miss with async builds enabled, the build — or the incremental
  /// refresh, when the staleness is append-only — is enqueued once on
  /// the background runner (single-flight: concurrent misses and lookups
  /// of a building key all get build_in_flight) — lowering then emits
  /// the brute-force fallback, so a cold semantic query never blocks
  /// behind index construction. A cold key with a persisted on-disk
  /// image loads synchronously instead (deserialization is orders of
  /// magnitude cheaper than a build), so the first query after a restart
  /// is index-backed. Without a background runner (or with
  /// options().async_builds off) this behaves exactly like GetOrBuild,
  /// including blocking on another caller's in-flight single-flight
  /// build.
  Result<AsyncIndex> GetOrBuildAsync(const IndexKey& key);

  /// Wires the executor background builds run on — the engine passes a
  /// QueryScheduler group admitted at QueryPriority::kBackground, so
  /// builds only consume pool cycles the query stream leaves idle. Call
  /// before serving; the runner must outlive the manager's last build.
  void EnableAsyncBuilds(TaskRunner* background_runner);

  /// True when a fresh (current-version) index for `key` is resident —
  /// the optimizer's amortization signal: a resident index makes the
  /// index-backed strategy's build cost zero.
  bool IsResident(const IndexKey& key) const;

  /// Four-state amortization signal for the optimizer: resident, build
  /// in flight (sunk cost), persisted on disk (load cost ≪ rebuild
  /// cost), or absent. The on-disk probe is intentionally cheap — image
  /// identity and row count only; the full content-hash validation runs
  /// at load time, falling back to a rebuild on mismatch (costing is
  /// advisory, correctness never depends on it).
  IndexResidency Residency(const IndexKey& key) const;

  /// Blocks until no build (background or single-flight synchronous) is
  /// in flight. Test/shutdown aid; new builds may start afterwards.
  void WaitForBuilds();

  /// Drops every entry built over `table` (any column/model/kind), along
  /// with their persisted images — an explicit destructive signal.
  void InvalidateTable(const std::string& table);

  /// Drops every resident entry. Persisted on-disk images are kept: they
  /// are the warm-start source, and stale ones are rejected at load.
  void Clear();

  Stats stats() const;
  const IndexManagerOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const VectorIndex> index;  ///< null while building
    std::uint64_t table_version = 0;
    std::size_t bytes = 0;
    std::uint64_t lru_tick = 0;
    bool building = false;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Identity card of one persisted image, cached so Residency() and
  /// warm-start probes never re-read headers. Populated by the startup
  /// directory scan and by write-throughs.
  struct PersistedMeta {
    std::string path;
    std::uint64_t catalog_stamp = 0;
    std::uint64_t content_hash = 0;
    std::uint64_t rows = 0;
    /// True when catalog_stamp came from THIS process (a write-through
    /// or an adoption), false for stamps read off disk at scan time.
    /// Catalog stamps are process-local counters, so only local stamps
    /// may ever be compared against live catalog versions — a scanned
    /// stamp from a previous run is just provenance.
    bool stamp_local = false;
    /// On-disk footprint and age, for the size-budget GC sweep (oldest
    /// modification time reclaimed first). Filled by the startup scan
    /// and refreshed on every write-through.
    std::uint64_t bytes = 0;
    std::int64_t mtime_ns = 0;
  };

  /// What one lookup does, chosen by DecideLocked.
  enum class Step {
    kHit,       ///< a fresh resident entry serves it
    kWait,      ///< blocking caller: join the in-flight build, decide again
    kInFlight,  ///< non-blocking caller: report the in-flight build
    kRefresh,   ///< stale by appends under the crossover: renew in place
    kBuild,     ///< absent, or stale entry dropped: full build
    kDiskLoad,  ///< absent with a persisted image: warm start, else build
  };

  /// A lookup's decision and the work it hands to the executor (inline
  /// on the caller or one background task). `step` ends as the work
  /// that actually ran: a rejected warm start becomes kBuild.
  struct Job {
    Step step = Step::kBuild;
    /// The existing entry (hit/wait/refresh) or the fresh placeholder.
    EntryPtr entry;
    std::shared_ptr<const VectorIndex> old_index;  ///< refresh source
    std::uint64_t old_version = 0;
    /// This-process image of a dropped entry, unlinked outside mu_.
    std::string doomed_image;
    std::uint64_t version = 0;  ///< catalog stamp of the produced index
    std::uint64_t hash = 0;     ///< its content hash (with persistence)
  };

  /// The one lookup path behind GetOrBuild (`nonblocking` false) and
  /// GetOrBuildAsync (true).
  Result<AsyncIndex> Lookup(const IndexKey& key, bool nonblocking);

  /// The single locked decision step. `background` is true when the
  /// work would run on the background runner: a building entry is then
  /// reported in flight instead of waited on, and a cold key warm-starts
  /// from disk only when its image is plausible (a stale image must not
  /// drag a serving-path lookup into a blocking rebuild). For refresh,
  /// build and load it marks the entry building; a stale entry that
  /// cannot refresh is dropped first, and its this-process image with it.
  Job DecideLocked(const IndexKey& key, bool background) CRE_REQUIRES(mu_);

  /// Runs the work a decision chose (no locks held). `serial` as for
  /// BuildIndex.
  Result<std::shared_ptr<const VectorIndex>> RunJob(const IndexKey& key,
                                                    Job* job, bool serial);

  /// Embeds the key's column and constructs+builds the index (no locks).
  /// `serial` forces a pool-free build: background builds run *on* a
  /// worker thread, and a task that fanned out and waited on the pool
  /// would break the workers-never-block invariant (deadlock on small
  /// pools). `content_hash` receives the indexed column's content hash.
  Result<std::shared_ptr<const VectorIndex>> BuildIndex(
      const IndexKey& key, std::uint64_t* table_version,
      std::uint64_t* content_hash, bool serial = false) const;

  /// Incremental renewal of a stale-by-append entry (no locks): clones
  /// `old_index`, embeds the rows appended since `old_version`, inserts
  /// them, and returns the refreshed instance stamped with the append
  /// chain's head version. Fails (caller then rebuilds) when the chain
  /// broke or the clone does not line up with the prefix.
  Result<std::shared_ptr<const VectorIndex>> RefreshIndex(
      const IndexKey& key,
      const std::shared_ptr<const VectorIndex>& old_index,
      std::uint64_t old_version, std::uint64_t* new_version,
      std::uint64_t* content_hash) const;

  /// Deserializes the persisted image for `key` and validates it against
  /// the *live* table (identity, row count, content hash) — a mismatch
  /// or short file is an error, never a stale index (no locks).
  Result<std::shared_ptr<const VectorIndex>> LoadFromDisk(
      const IndexKey& key, std::uint64_t* table_version,
      std::uint64_t* content_hash) const;

  /// Installs a finished build/refresh/load into `job.entry` (or removes
  /// the entry on failure) and wakes waiters. Recomputes the entry's byte
  /// footprint from the installed index — entries grow across refreshes,
  /// so bytes are never trusted from a previous install. A warm start
  /// also localizes the adopted image's stamp. Caller holds mu_.
  void FinishInstallLocked(const IndexKey& key, const Job& job,
                           Result<std::shared_ptr<const VectorIndex>>&& built)
      CRE_REQUIRES(mu_);

  /// Write-through of a ready index image (tmp + atomic rename), with
  /// bounded retry + exponential backoff on transient failures, then
  /// records it in persisted_. No-op when persist_dir is empty. No locks
  /// held during file IO.
  void PersistToDisk(const IndexKey& key,
                     const std::shared_ptr<const VectorIndex>& index,
                     std::uint64_t catalog_stamp, std::uint64_t content_hash);

  /// One write-through attempt (the body PersistToDisk retries around).
  /// Returns OK on publish AND on deliberate discard (a newer image beat
  /// us); errors are transient I/O failures worth retrying.
  Status PersistToDiskOnce(const IndexKey& key,
                           const std::shared_ptr<const VectorIndex>& index,
                           std::uint64_t catalog_stamp,
                           std::uint64_t content_hash);

  /// Queues PersistToDisk on the background runner when one is wired
  /// (write-through off the query's latency), falling back to inline.
  /// The pending write counts in builds_in_flight_ so WaitForBuilds
  /// covers it — nothing may touch the manager after the count drops.
  void SchedulePersist(const IndexKey& key,
                       std::shared_ptr<const VectorIndex> index,
                       std::uint64_t catalog_stamp,
                       std::uint64_t content_hash);

  /// Scans persist_dir for image headers at construction. Unreadable or
  /// foreign files are ignored.
  void ScanPersistDir();

  /// Forgets (and deletes) a rejected/stale persisted image.
  void DropPersisted(const IndexKey& key);

  /// Reclaims the oldest persisted images (by modification time) until
  /// the on-disk footprint fits persist_budget_bytes, never touching
  /// `just_written`. Victim paths go into `doomed` for the caller to
  /// unlink after releasing mu_ (file IO never runs under the manager
  /// lock). No-op when the budget is 0. Caller holds mu_.
  void SweepPersistBudgetLocked(const IndexKey& just_written,
                                std::vector<std::string>* doomed)
      CRE_REQUIRES(mu_);

  /// The refresh predicate for a stale `entry`: everything since its
  /// build was append-style AND the appended rows are at most 25% of the
  /// table (past that, a bulk rebuild is cheaper than per-row inserts).
  /// Both the lookup and Residency ask it, so the optimizer's
  /// kRefreshable signal and what a lookup does never disagree.
  bool RefreshableLocked(const IndexKey& key, const Entry& entry) const
      CRE_REQUIRES(mu_);

  /// Cheap plausibility of the persisted image against the live table
  /// (identity known, row counts agree) — the same probe Residency uses.
  /// Gates the async path's synchronous warm start: a stale image must
  /// not lure a serving-path lookup into a blocking rebuild. Caller
  /// holds mu_.
  bool PersistedPlausibleLocked(const IndexKey& key) const CRE_REQUIRES(mu_);

  std::string PersistPathFor(const IndexKey& key) const;

  /// Debug-mode invariant: resident_bytes_ equals the sum of every
  /// entry's recorded bytes (placeholders count 0). Catches the class of
  /// accounting drift where an entry's footprint changes without the
  /// aggregate following. Caller holds mu_. No-op in release builds.
  void CheckAccountingLocked() const CRE_REQUIRES(mu_);

  /// Evicts least-recently-used ready entries (never `keep`) until the
  /// budget holds. Caller holds mu_.
  void EvictForBudgetLocked(const Entry* keep) CRE_REQUIRES(mu_);

  const Catalog* catalog_;
  const ModelRegistry* models_;
  IndexManagerOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<IndexKey, EntryPtr, IndexKeyHash> entries_
      CRE_GUARDED_BY(mu_);
  std::unordered_map<IndexKey, PersistedMeta, IndexKeyHash> persisted_
      CRE_GUARDED_BY(mu_);
  std::uint64_t tick_ CRE_GUARDED_BY(mu_) = 0;
  std::size_t resident_bytes_ CRE_GUARDED_BY(mu_) = 0;
  std::size_t builds_in_flight_ CRE_GUARDED_BY(mu_) = 0;
  TaskRunner* background_runner_ CRE_GUARDED_BY(mu_) = nullptr;
  Stats counters_ CRE_GUARDED_BY(mu_);
  /// Every key ever looked up, for Stats::distinct_lookup_keys.
  std::unordered_set<IndexKey, IndexKeyHash> lookup_keys_
      CRE_GUARDED_BY(mu_);
};

}  // namespace cre

#endif  // CRE_INDEX_INDEX_MANAGER_H_
