// Database: the catalog of named relations, named enumeration types, and
// permanent component indexes (paper Example 3.1's enrindex).
//
// Permanent indexes are self-maintaining: each records the relation
// mod_count it was built at and is rebuilt lazily when the relation has
// changed since (the paper maintains them inside application code; a
// library must do it for the user).
//
// Concurrent serving (src/concurrency/): one Database can serve many
// Sessions at once. EnableConcurrentServing() — done by SessionManager —
// flips the relations into versioned mode and activates:
//
//  - TakeSnapshot(): captures a consistent read point (db_version + one
//    published watermark and live count per relation) under commit_mu, so
//    readers never block behind writers and never observe a half-applied
//    statement. Returns null while serving is off — the legacy
//    single-threaded path pays nothing.
//  - BeginWriteStatement(): serialises writers on write_mu_ and installs
//    an ambient WriteBatch; the guard's commit publishes every touched
//    relation and bumps db_version in one atomic step.
//  - Compact()/MaybeCompact(): reclaim dead versions under the
//    SnapshotRegistry's exclusive quiesce; retired permanent indexes and
//    statistics (replaced while readers might still hold pointers) are
//    parked in graveyards and freed here too.
//  - shared_plans(): the process-wide prepared-plan cache — N sessions
//    preparing the same selection share one plan search.
//
// Lock order (outermost first): write_mu_ → registry.mu_ → commit_mu →
// catalog_mu_. Catalog reads take catalog_mu_ shared; snapshot readers
// resolve FindRelation through their snapshot and skip the catalog lock.

#ifndef PASCALR_CATALOG_DATABASE_H_
#define PASCALR_CATALOG_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/atomic_util.h"
#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "catalog/relation_stats.h"
#include "concurrency/plan_cache.h"
#include "concurrency/snapshot.h"
#include "index/index.h"
#include "obs/metrics.h"
#include "obs/stmt_stats.h"
#include "storage/relation.h"
#include "value/type.h"

namespace pascalr {

class Database {
 public:
  Database() { shared_plans_.AttachCounters(&concurrency_.counters); }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Declares `TYPE name = (label, ...)`.
  Status RegisterEnum(std::shared_ptr<const EnumInfo> info);
  /// Returns nullptr if no enum type of this name exists.
  std::shared_ptr<const EnumInfo> FindEnum(const std::string& name) const;

  /// Declares `VAR name : RELATION <key> OF RECORD ... END`.
  Result<Relation*> CreateRelation(const std::string& name, Schema schema);
  Status DropRelation(const std::string& name);

  /// Lookup by name / id; nullptr when absent. Snapshot-aware: under an
  /// ambient snapshot of this database, resolution goes through the
  /// snapshot's captured catalog — a relation dropped after capture stays
  /// readable, one created after capture is not yet visible.
  Relation* FindRelation(const std::string& name) const;
  Relation* FindRelation(RelationId id) const;
  /// FindRelation(id) as a strong ref: the relation stays readable for as
  /// long as the caller holds it, even if it is dropped meanwhile.
  std::shared_ptr<const Relation> ShareRelation(RelationId id) const;

  /// Routes a reference to its owning relation and dereferences it.
  Result<const Tuple*> Deref(const Ref& ref) const;

  /// Ensures a permanent index on `relation.component` exists and is fresh.
  /// `ordered` selects a sorted index (binary search for <, <=, >, >=)
  /// over a hash index. A stale index is rebuilt from scratch.
  /// Requesting an ordered index where an unordered one exists (or vice
  /// versa) replaces it.
  Result<ComponentIndex*> EnsureIndex(const std::string& relation,
                                      const std::string& component,
                                      bool ordered);

  /// Returns the permanent index on `relation.component` if it exists AND
  /// is fresh at the caller's watermark; nullptr otherwise. Never builds.
  ComponentIndex* FindFreshIndex(const std::string& relation,
                                 const std::string& component) const;

  /// Declared permanent indexes, in catalog order. Used by ExportScript to
  /// emit `INDEX rel component [ORDERED];` declarations.
  struct IndexDescription {
    std::string relation;
    std::string component;
    bool ordered = false;
  };
  std::vector<IndexDescription> ListIndexes() const;

  /// ANALYZE: computes (or refreshes) catalog statistics for `relation` by
  /// one full scan. Statistics record the relation's mod_count and go
  /// stale — FindFreshStats returns nullptr — after any mutation.
  Result<const RelationStats*> Analyze(const std::string& relation);

  /// ANALYZE with no argument: refreshes statistics for every relation.
  Status AnalyzeAll();

  /// Returns the statistics for `relation` if they exist AND match the
  /// relation's mod_count at the caller's watermark; nullptr otherwise.
  /// Never computes. The pointer stays valid until the next compaction
  /// (replaced statistics are parked in a graveyard, not freed).
  const RelationStats* FindFreshStats(const std::string& relation) const;

  /// Monotonic counter bumped whenever catalog statistics change (ANALYZE
  /// recomputation, STATS seeding, relation drop). Together with per-
  /// relation mod_counts this keys the prepared-query plan cache: a plan
  /// chosen under one (epoch, mod_counts) snapshot is stale under any
  /// other.
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_acquire);
  }

  /// Installs externally supplied statistics (the STATS directive that
  /// ExportScript emits) as if ANALYZE had just run: they are stamped
  /// with the relation's current mod_count and stay fresh until the next
  /// mutation. `stats.columns` must match the schema's component count
  /// (column names are trusted to have been resolved by the caller).
  Status SeedStats(RelationStats stats);

  /// SeedStats without the stats-epoch bump. Reserved for the system
  /// relations (obs/system_relations.cc): their statistics change on
  /// every refresh, and bumping the epoch each time would invalidate
  /// every cached plan in the server. Plans over the views themselves
  /// still revalidate through the per-relation mod_count watermarks.
  Status SeedStatsQuiet(RelationStats stats);

  std::vector<std::string> RelationNames() const;

  /// Human-readable catalog summary.
  std::string DebugString() const;

  // ---- concurrent serving -------------------------------------------

  /// Flips every relation (current and future) into versioned serving
  /// mode. One-way; called by SessionManager's constructor.
  void EnableConcurrentServing();
  /// Relaxed: the one-way flip happens before any concurrent session
  /// exists (SessionManager's constructor), so no reader can race it.
  bool serving() const { return RelaxedLoad(concurrency_.serving); }

  /// The commit version: bumped once per committed write statement and
  /// once per catalog change while serving. Relaxed: ordered by commit_mu
  /// where it matters; bare reads are monitoring only.
  uint64_t db_version() const { return RelaxedLoad(concurrency_.db_version); }

  /// Captures a consistent read point and registers it with the
  /// SnapshotRegistry (so compaction waits for it). Returns null while
  /// serving is off: ScopedSnapshotInstall(nullptr) is a no-op and every
  /// read goes down the legacy path.
  SnapshotRef TakeSnapshot() const;

  /// The snapshot a read entry point should install: the ambient one when
  /// it is already ours (a nested entry point keeps its caller's read
  /// point instead of capturing twice), else a fresh TakeSnapshot().
  SnapshotRef SnapshotForRead() const;

  /// One write statement: holds the database write mutex and keeps an
  /// ambient WriteBatch installed, so relation mutators stamp versions and
  /// defer publication until the guard commits (explicitly or at scope
  /// exit). Member order gives the destructor the right sequence:
  /// uninstall the ambient batch, commit, release the mutex.
  class WriteStatementGuard {
   public:
    WriteStatementGuard() = default;
    WriteStatementGuard(WriteStatementGuard&&) = default;
    WriteStatementGuard& operator=(WriteStatementGuard&&) = default;

    /// Publishes and returns the commit version (idempotent; the stress
    /// test keys its serial-oracle log on this).
    uint64_t Commit();

   private:
    friend class Database;
    MovableMutexLock lock_;
    std::unique_ptr<WriteBatch> batch_;
    std::unique_ptr<ScopedWriteBatchInstall> install_;
  };
  WriteStatementGuard BeginWriteStatement();

  /// Blocking compaction: waits out every live snapshot (registry
  /// quiesce), reclaims all dead versions, folds deltas into bases, and
  /// frees the index/stats graveyards. Returns versions retired.
  size_t Compact();

  /// Opportunistic compaction for the write path: runs only if the write
  /// mutex and an empty registry are available *right now* (a thread
  /// holding a SnapshotRef can call this safely — it simply won't run).
  /// Triggers once the accumulated dead-version count crosses a threshold.
  bool MaybeCompact();

  ConcurrencyCounters::View ConcurrencyCountersView() const {
    return concurrency_.counters.Read();
  }

  SharedPlanCache& shared_plans() { return shared_plans_; }
  const SharedPlanCache& shared_plans() const { return shared_plans_; }

  // ---- self-observation (obs/) --------------------------------------
  // Server-wide: every session folds into these, and the sys$ system
  // relations (obs/system_relations.h) materialize them as queryable
  // catalog relations. Each is internally synchronized.

  /// Per-normalized-statement execution statistics (sys$statements).
  StmtStatsStore& stmt_stats() { return stmt_stats_; }
  const StmtStatsStore& stmt_stats() const { return stmt_stats_; }

  /// Server-wide named counters/gauges/latency histograms (sys$metrics,
  /// `.metrics` in the shell, the Prometheus exporter).
  MetricsRegistry& server_metrics() { return server_metrics_; }
  const MetricsRegistry& server_metrics() const { return server_metrics_; }

  /// Bounded ring of above-threshold queries (SET SLOWLOG <usec>).
  SlowQueryLog& slow_log() { return slow_log_; }
  const SlowQueryLog& slow_log() const { return slow_log_; }

  /// Live sessions with per-session tallies (sys$sessions).
  SessionRegistry& session_registry() { return session_registry_; }
  const SessionRegistry& session_registry() const { return session_registry_; }

 private:
  struct IndexEntry {
    std::unique_ptr<ComponentIndex> index;
    uint64_t built_at_mod = 0;
    size_t component_pos = 0;
    bool ordered = false;
  };

  static std::string IndexKey(const std::string& relation,
                              const std::string& component) {
    return relation + "." + component;
  }

  /// Accumulated dead versions that trigger MaybeCompact.
  static constexpr size_t kCompactionThreshold = 4096;

  /// Snapshot-aware id resolution shared by FindRelation overloads.
  const Snapshot* AmbientSnapshot() const;

  /// Compaction body: caller holds write_mu_ and the registry quiesce.
  size_t CompactAllLocked();

  mutable SharedMutex catalog_mu_;
  // index == RelationId
  std::vector<std::shared_ptr<Relation>> relations_ GUARDED_BY(catalog_mu_);
  std::map<std::string, RelationId> by_name_ GUARDED_BY(catalog_mu_);
  std::map<std::string, std::shared_ptr<const EnumInfo>> enums_
      GUARDED_BY(catalog_mu_);
  std::map<std::string, IndexEntry> indexes_ GUARDED_BY(catalog_mu_);
  std::map<std::string, std::shared_ptr<const RelationStats>> stats_
      GUARDED_BY(catalog_mu_);
  std::atomic<uint64_t> stats_epoch_{0};

  /// Replaced/dropped permanent indexes and statistics that an executing
  /// plan in another session may still reference. Freed at compaction
  /// (quiesce ⇒ no snapshot ⇒ no plan mid-execution).
  std::vector<std::unique_ptr<ComponentIndex>> retired_indexes_
      GUARDED_BY(catalog_mu_);
  std::vector<std::shared_ptr<const RelationStats>> retired_stats_
      GUARDED_BY(catalog_mu_);

  /// Serialises write statements; outermost lock of the order above.
  /// lint: mutex-protocol(guards the one-writer-statement-at-a-time
  /// discipline, not data members — the statement's effects live in the
  /// relations and publish under commit_mu; held across BeginWriteStatement
  /// ... guard.Commit() via MovableMutexLock, which scope-based analysis
  /// cannot follow)
  Mutex write_mu_;

  /// Shared SeedStats body; the quiet variant skips the epoch bump.
  Status SeedStatsImpl(RelationStats stats, bool bump_epoch);

  mutable ConcurrencyState concurrency_;
  SharedPlanCache shared_plans_;

  StmtStatsStore stmt_stats_;
  MetricsRegistry server_metrics_;
  SlowQueryLog slow_log_;
  SessionRegistry session_registry_;
};

}  // namespace pascalr

#endif  // PASCALR_CATALOG_DATABASE_H_
