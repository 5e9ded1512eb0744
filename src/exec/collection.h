// The collection phase (paper §3.3, step 1): evaluates range expressions
// and join terms, producing single lists, indirect joins, indexes, and —
// under strategy 4 — value lists and derived single lists. Performs the
// paper's "data compression (records to references) and data reduction
// (testing join terms)".
//
// Collection runs in one eager pass before combination starts
// (CollectionBuilders::EnsureAll): one scan per planned scan, then the
// post-scan probes, building every structure, index, value list and
// range — the paper's phase-1/phase-2 split. Every cursor runs it at
// Open, and the pipeline compiles over the finished structures.
//
// Rows are flat throughout. A structure is a RefRelation (one
// arity-strided Ref array plus a RowIdTable, refstruct/ref_relation.h);
// the builders hand each emitted row to its Append as a RowView over refs
// already in hand — the scanned ref for a single list, a two-ref pair on
// the stack for an indirect join — so building allocates only when a
// structure's arrays grow, and hashes nothing.
//
// Append skips the dedup because every emitted row is new by
// construction: a pass visits each element of its relation once; the
// planner interns structures (opt/scan_plan.cc), so each has exactly one
// emitter; and an index holds each (value, ref) pair once, so a probe
// pairs its element with each build ref at most once. Checked builds
// (PASCALR_ROW_BOUNDS) verify it on every row. A structure's row index is
// built on its first membership probe, so the structures belong to the
// one cursor that built them and are never probed from two threads.
//
// Transient indexes are flat too: a HashIndex (index/hash_index.h) for
// `=` and `<>` terms, a SortedIndex (index/sorted_index.h) for ordering
// terms.

#ifndef PASCALR_EXEC_COLLECTION_H_
#define PASCALR_EXEC_COLLECTION_H_

#include <map>
#include <memory>
#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "refstruct/ref_relation.h"
#include "refstruct/value_list.h"

namespace pascalr {

struct CollectionResult {
  /// Indexed by structure id.
  std::vector<RefRelation> structures;
  /// Materialised (possibly extended) range of every prefix variable.
  std::map<std::string, std::vector<Ref>> range_refs;
  /// Indexed by index id. Entries either point into `owned_indexes` or —
  /// when a fresh permanent catalog index was reused (paper §3.2) — into
  /// the Database, which must outlive this result.
  std::vector<ComponentIndex*> indexes;
  std::vector<std::unique_ptr<ComponentIndex>> owned_indexes;
  /// Indexed by value list id.
  std::vector<ValueList> value_lists;
};

/// The collection builders over one (plan, database) pair. Owns the
/// CollectionResult and populates it in EnsureAll; `stats` (may be null)
/// receives the work counters. Not movable: pipeline iterators hold
/// pointers into the result, so cursors keep it behind a stable heap
/// allocation. The name, constructor, EnsureAll and result() are also
/// what bench_e2e/replay.cc compiles against.
class CollectionBuilders {
 public:
  CollectionBuilders(const QueryPlan& plan, const Database& db,
                     ExecStats* stats);
  CollectionBuilders(const CollectionBuilders&) = delete;
  CollectionBuilders& operator=(const CollectionBuilders&) = delete;

  /// Builds every structure, index, value list and range in planned scan
  /// order — one pass per planned scan, then the post-scan probes,
  /// exactly the phase-1 collection the paper describes. Call it once; a
  /// failed pass leaves the result partial, and the caller (Cursor::Open)
  /// fails instead of retrying.
  Status EnsureAll();

  const CollectionResult& result() const { return result_; }

  /// Moves the collection structures out (Figure 2 exhibits after a
  /// drain). The builders must not be used afterwards.
  CollectionResult Release() { return std::move(result_); }

 private:
  Status RunScan(const RelationScan& scan);
  Status RunPostProbe(const PostScanProbe& probe);

  const QueryPlan& plan_;
  const Database& db_;
  ExecStats* stats_;
  CollectionResult result_;
  /// By index id: a fresh permanent catalog index the pass must not add to.
  std::vector<char> borrowed_index_;
};

/// The eager collection phase as a single call: builds everything and
/// returns the result (CollectionBuilders + EnsureAll + Release).
Result<CollectionResult> ExecuteCollection(const QueryPlan& plan,
                                           const Database& db,
                                           ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_EXEC_COLLECTION_H_
