#include "catalog/database.h"

#include "base/str_util.h"
#include "index/hash_index.h"
#include "index/sorted_index.h"
#include "obs/system_relations.h"

namespace pascalr {

const Snapshot* Database::AmbientSnapshot() const {
  // A write statement reads the live catalog — mirrors ReadWatermark's
  // batch-before-snapshot priority in storage/relation.cc.
  WriteBatch* batch = CurrentWriteBatch();
  if (batch != nullptr && batch->state() == &concurrency_) return nullptr;
  const Snapshot* snap = CurrentSnapshot();
  if (snap != nullptr && snap->origin == &concurrency_) return snap;
  return nullptr;
}

namespace {
/// Catalog mutation prologue for serving mode: DDL self-commits — the
/// change plus its db_version bump happen atomically under commit_mu, so
/// a snapshot never observes a half-created or half-dropped relation.
/// Holds nothing while serving is off.
//
// Unanalyzed: conditional acquisition is outside clang's scope-based
// analysis; commit_mu is a protocol lock with no GUARDED_BY members, so
// opting out forfeits no member checking.
class CommitLockIfServing {
 public:
  CommitLockIfServing(bool serving, Mutex& mu) NO_THREAD_SAFETY_ANALYSIS
      : mu_(serving ? &mu : nullptr) {
    if (mu_ != nullptr) mu_->Lock();
  }
  ~CommitLockIfServing() NO_THREAD_SAFETY_ANALYSIS {
    if (mu_ != nullptr) mu_->Unlock();
  }
  CommitLockIfServing(const CommitLockIfServing&) = delete;
  CommitLockIfServing& operator=(const CommitLockIfServing&) = delete;

  bool owns_lock() const { return mu_ != nullptr; }

 private:
  Mutex* mu_;
};
}  // namespace

Status Database::RegisterEnum(std::shared_ptr<const EnumInfo> info) {
  if (info == nullptr || info->name.empty()) {
    return Status::InvalidArgument("enum type needs a name");
  }
  WriterMutexLock cat(catalog_mu_);
  if (enums_.count(info->name) > 0) {
    return Status::AlreadyExists("type '" + info->name + "' already declared");
  }
  if (info->labels.empty()) {
    return Status::InvalidArgument("enum type '" + info->name +
                                   "' needs at least one label");
  }
  enums_[info->name] = std::move(info);
  return Status::OK();
}

std::shared_ptr<const EnumInfo> Database::FindEnum(
    const std::string& name) const {
  ReaderMutexLock cat(catalog_mu_);
  auto it = enums_.find(name);
  return it == enums_.end() ? nullptr : it->second;
}

Result<Relation*> Database::CreateRelation(const std::string& name,
                                           Schema schema) {
  if (name.empty()) return Status::InvalidArgument("relation needs a name");
  // DDL self-commits: while serving, the catalog change and its db_version
  // bump are one atomic step under commit_mu, so no snapshot can observe a
  // half-created relation.
  CommitLockIfServing commit(serving(), concurrency_.commit_mu);
  WriterMutexLock cat(catalog_mu_);
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already declared");
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(std::make_shared<Relation>(id, name, std::move(schema)));
  relations_.back()->AttachConcurrency(&concurrency_);
  by_name_[name] = id;
  if (commit.owns_lock()) {
    RelaxedFetchAdd(concurrency_.db_version, 1);
  }
  return relations_.back().get();
}

Status Database::DropRelation(const std::string& name) {
  CommitLockIfServing commit(serving(), concurrency_.commit_mu);
  WriterMutexLock cat(catalog_mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  // Ids are positional; keep the slot but null the entry. Snapshots hold
  // their own strong refs, so readers over the dropped relation are safe.
  relations_[it->second].reset();
  by_name_.erase(it);
  const std::string index_prefix = name + ".";
  for (auto idx = indexes_.begin(); idx != indexes_.end();) {
    if (idx->first.rfind(index_prefix, 0) == 0) {
      if (serving()) {
        // An executing plan in another session may still hold the raw
        // index pointer; park it until the next compaction quiesce.
        retired_indexes_.push_back(std::move(idx->second.index));
      }
      idx = indexes_.erase(idx);
    } else {
      ++idx;
    }
  }
  auto st = stats_.find(name);
  if (st != stats_.end()) {
    if (serving()) retired_stats_.push_back(std::move(st->second));
    stats_.erase(st);
  }
  stats_epoch_.fetch_add(1, std::memory_order_release);
  if (commit.owns_lock()) {
    RelaxedFetchAdd(concurrency_.db_version, 1);
  }
  return Status::OK();
}

std::vector<Database::IndexDescription> Database::ListIndexes() const {
  ReaderMutexLock cat(catalog_mu_);
  std::vector<IndexDescription> out;
  for (const auto& [key, entry] : indexes_) {
    std::string::size_type dot = key.rfind('.');
    if (dot == std::string::npos) continue;
    out.push_back({key.substr(0, dot), key.substr(dot + 1), entry.ordered});
  }
  return out;
}

Relation* Database::FindRelation(const std::string& name) const {
  if (const Snapshot* snap = AmbientSnapshot()) {
    // Resolve through the snapshot's captured catalog: relations dropped
    // after capture stay visible, ones created after capture do not.
    for (const auto& rel : snap->relations) {
      if (rel != nullptr && rel->name() == name) return rel.get();
    }
    return nullptr;
  }
  ReaderMutexLock cat(catalog_mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return relations_[it->second].get();
}

Relation* Database::FindRelation(RelationId id) const {
  if (const Snapshot* snap = AmbientSnapshot()) {
    return id < snap->relations.size() ? snap->relations[id].get() : nullptr;
  }
  ReaderMutexLock cat(catalog_mu_);
  if (id >= relations_.size()) return nullptr;
  return relations_[id].get();
}

std::shared_ptr<const Relation> Database::ShareRelation(RelationId id) const {
  if (const Snapshot* snap = AmbientSnapshot()) {
    return id < snap->relations.size() ? snap->relations[id] : nullptr;
  }
  ReaderMutexLock cat(catalog_mu_);
  if (id >= relations_.size()) return nullptr;
  return relations_[id];
}

Result<const Tuple*> Database::Deref(const Ref& ref) const {
  Relation* rel = FindRelation(ref.relation);
  if (rel == nullptr) {
    return Status::NotFound(
        StrFormat("reference into unknown relation %u", ref.relation));
  }
  return rel->Deref(ref);
}

Result<ComponentIndex*> Database::EnsureIndex(const std::string& relation,
                                              const std::string& component,
                                              bool ordered) {
  WriterMutexLock cat(catalog_mu_);
  auto rel_it = by_name_.find(relation);
  Relation* rel =
      rel_it == by_name_.end() ? nullptr : relations_[rel_it->second].get();
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  int pos = rel->schema().FindComponent(component);
  if (pos < 0) {
    return Status::NotFound("relation '" + relation + "' has no component '" +
                            component + "'");
  }
  std::string key = IndexKey(relation, component);
  auto it = indexes_.find(key);
  if (it != indexes_.end() && it->second.ordered == ordered &&
      it->second.built_at_mod == rel->mod_count()) {
    return it->second.index.get();
  }
  IndexEntry entry;
  entry.component_pos = static_cast<size_t>(pos);
  entry.ordered = ordered;
  std::string index_name = "ind_" + relation + "_" + component;
  if (ordered) {
    entry.index = std::make_unique<SortedIndex>(index_name);
  } else {
    entry.index = std::make_unique<HashIndex>(index_name);
  }
  rel->Scan([&](const Ref& r, const Tuple& t) {
    entry.index->Add(t.at(entry.component_pos), r);
    return true;
  });
  entry.index->Seal();  // before publishing: readers share it read-only
  entry.built_at_mod = rel->mod_count();
  ComponentIndex* out = entry.index.get();
  if (it != indexes_.end()) {
    if (serving()) retired_indexes_.push_back(std::move(it->second.index));
    it->second = std::move(entry);
  } else {
    indexes_[key] = std::move(entry);
  }
  // A new (or rebuilt) permanent index changes what the planner can
  // borrow; move the epoch so cached prepared plans reconsider it.
  stats_epoch_.fetch_add(1, std::memory_order_release);
  return out;
}

ComponentIndex* Database::FindFreshIndex(const std::string& relation,
                                         const std::string& component) const {
  // The relation's mod_count is ambient-aware, so a snapshot reader only
  // gets the index when it was built at exactly its watermark.
  Relation* rel = FindRelation(relation);
  if (rel == nullptr) return nullptr;
  ReaderMutexLock cat(catalog_mu_);
  auto it = indexes_.find(IndexKey(relation, component));
  if (it == indexes_.end()) return nullptr;
  if (it->second.built_at_mod != rel->mod_count()) return nullptr;
  return it->second.index.get();
}

Result<const RelationStats*> Database::Analyze(const std::string& relation) {
  WriterMutexLock cat(catalog_mu_);
  auto rel_it = by_name_.find(relation);
  Relation* rel =
      rel_it == by_name_.end() ? nullptr : relations_[rel_it->second].get();
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  auto it = stats_.find(relation);
  if (it != stats_.end() && it->second->built_at_mod == rel->mod_count()) {
    return it->second.get();
  }
  auto fresh =
      std::make_shared<const RelationStats>(ComputeRelationStats(*rel));
  if (it != stats_.end()) {
    if (serving()) retired_stats_.push_back(std::move(it->second));
    it->second = fresh;
  } else {
    stats_[relation] = fresh;
  }
  stats_epoch_.fetch_add(1, std::memory_order_release);
  return fresh.get();
}

Status Database::AnalyzeAll() {
  for (const std::string& name : RelationNames()) {
    // System relations keep their quietly seeded trivial statistics —
    // ANALYZE over them would bump the stats epoch on every refresh.
    if (IsSystemRelationName(name)) continue;
    PASCALR_ASSIGN_OR_RETURN(const RelationStats* ignored, Analyze(name));
    (void)ignored;
  }
  return Status::OK();
}

Status Database::SeedStats(RelationStats stats) {
  return SeedStatsImpl(std::move(stats), /*bump_epoch=*/true);
}

Status Database::SeedStatsQuiet(RelationStats stats) {
  return SeedStatsImpl(std::move(stats), /*bump_epoch=*/false);
}

Status Database::SeedStatsImpl(RelationStats stats, bool bump_epoch) {
  WriterMutexLock cat(catalog_mu_);
  auto rel_it = by_name_.find(stats.relation);
  Relation* rel =
      rel_it == by_name_.end() ? nullptr : relations_[rel_it->second].get();
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + stats.relation + "'");
  }
  if (stats.columns.size() != rel->schema().num_components()) {
    return Status::InvalidArgument(StrFormat(
        "statistics for %zu column(s) do not match schema arity %zu",
        stats.columns.size(), rel->schema().num_components()));
  }
  stats.built_at_mod = rel->mod_count();
  std::string name = stats.relation;
  auto fresh = std::make_shared<const RelationStats>(std::move(stats));
  auto it = stats_.find(name);
  if (it != stats_.end()) {
    if (serving()) retired_stats_.push_back(std::move(it->second));
    it->second = std::move(fresh);
  } else {
    stats_[name] = std::move(fresh);
  }
  if (bump_epoch) stats_epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

const RelationStats* Database::FindFreshStats(
    const std::string& relation) const {
  Relation* rel = FindRelation(relation);
  if (rel == nullptr) return nullptr;
  ReaderMutexLock cat(catalog_mu_);
  auto it = stats_.find(relation);
  if (it == stats_.end()) return nullptr;
  if (it->second->built_at_mod != rel->mod_count()) return nullptr;
  return it->second.get();
}

std::vector<std::string> Database::RelationNames() const {
  ReaderMutexLock cat(catalog_mu_);
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [name, id] : by_name_) out.push_back(name);
  return out;
}

std::string Database::DebugString() const {
  ReaderMutexLock cat(catalog_mu_);
  std::string out = "database:\n";
  for (const auto& [name, id] : by_name_) {
    const Relation* rel = relations_[id].get();
    out += StrFormat("  %s : %s  -- %zu elements\n", name.c_str(),
                     rel->schema().ToString().c_str(), rel->cardinality());
  }
  for (const auto& [key, entry] : indexes_) {
    out += StrFormat("  index %s (%s, %zu entries)\n", key.c_str(),
                     entry.ordered ? "ordered" : "hash", entry.index->size());
  }
  return out;
}

// ---- concurrent serving ---------------------------------------------

void Database::EnableConcurrentServing() {
  // Relations are attached to concurrency_ at creation; flipping the flag
  // is all it takes. One-way by design.
  concurrency_.serving.store(true, std::memory_order_release);
}

SnapshotRef Database::TakeSnapshot() const {
  if (!serving()) return nullptr;
  return concurrency_.registry.Register([this] {
    auto snap = std::make_unique<Snapshot>();
    snap->origin = &concurrency_;
    // commit_mu pins (db_version, watermarks, live counts) to one commit
    // boundary; the catalog shared lock pins the relation set.
    MutexLock commit(concurrency_.commit_mu);
    ReaderMutexLock cat(catalog_mu_);
    snap->db_version = RelaxedLoad(concurrency_.db_version);
    snap->relations = relations_;
    snap->watermarks.reserve(relations_.size());
    snap->live_counts.reserve(relations_.size());
    for (const auto& rel : relations_) {
      snap->watermarks.push_back(rel == nullptr ? 0 : rel->published_mod());
      snap->live_counts.push_back(rel == nullptr ? 0 : rel->published_live());
    }
    RelaxedFetchAdd(concurrency_.counters.snapshots_taken, 1);
    return std::unique_ptr<const Snapshot>(std::move(snap));
  });
}

SnapshotRef Database::SnapshotForRead() const {
  if (AmbientSnapshot() != nullptr) return CurrentSnapshotRef();
  return TakeSnapshot();
}

uint64_t Database::WriteStatementGuard::Commit() {
  install_.reset();
  uint64_t version = 0;
  if (batch_ != nullptr) {
    version = batch_->Commit();
    batch_.reset();
  }
  lock_.Unlock();  // no-op when the guard was default-constructed
  return version;
}

Database::WriteStatementGuard Database::BeginWriteStatement() {
  WriteStatementGuard guard;
  guard.lock_ = MovableMutexLock(write_mu_);
  guard.batch_ = std::make_unique<WriteBatch>(&concurrency_);
  guard.install_ =
      std::make_unique<ScopedWriteBatchInstall>(guard.batch_.get());
  return guard;
}

size_t Database::CompactAllLocked() {
  WriterMutexLock cat(catalog_mu_);
  size_t retired = 0;
  for (const auto& rel : relations_) {
    if (rel != nullptr) retired += rel->CompactVersions();
  }
  retired_indexes_.clear();
  retired_stats_.clear();
  return retired;
}

size_t Database::Compact() {
  MutexLock write_lock(write_mu_);
  size_t retired = 0;
  concurrency_.registry.Quiesce([&] { retired = CompactAllLocked(); });
  RelaxedFetchAdd(concurrency_.counters.compactions, 1);
  RelaxedFetchAdd(concurrency_.counters.versions_retired, retired);
  return retired;
}

bool Database::MaybeCompact() {
  if (!serving()) return false;
  size_t dead = 0;
  {
    ReaderMutexLock cat(catalog_mu_);
    for (const auto& rel : relations_) {
      if (rel != nullptr) dead += rel->delta().delta_deletes();
    }
  }
  if (dead < kCompactionThreshold) return false;
  // Callers must NOT hold a WriteStatementGuard (write_mu_ is
  // non-recursive); sessions call this after their statement commits.
  if (!write_mu_.TryLock()) return false;
  size_t retired = 0;
  const bool ran =
      concurrency_.registry.TryQuiesce([&] { retired = CompactAllLocked(); });
  if (ran) {
    RelaxedFetchAdd(concurrency_.counters.compactions, 1);
    RelaxedFetchAdd(concurrency_.counters.versions_retired, retired);
  }
  write_mu_.Unlock();
  return ran;
}

}  // namespace pascalr
