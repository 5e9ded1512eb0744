// The collection phase (paper §3.3, step 1): evaluates range expressions
// and join terms, producing single lists, indirect joins, indexes, and —
// under strategy 4 — value lists and derived single lists. Performs the
// paper's "data compression (records to references) and data reduction
// (testing join terms)".
//
// Two population regimes share one implementation (CollectionBuilders):
//
//  - Eager (ExecuteCollection / EnsureAll): one pass over every planned
//    scan builds everything before combination starts — the paper's
//    phase-1/phase-2 split and the correctness oracle.
//  - Demand-driven (CollectionPolicy::kLazy, pipelined cursors only):
//    construction registers empty structures and the builders wait.
//    Each structure can then (a) materialise fully at first use
//    (EnsureStructure), (b) populate per requested join key
//    (KeyedMatches: dereference the key element, re-check its range
//    restriction and gates, probe the supporting indexes — an O(probe)
//    step instead of an O(relation) scan), or (c) never materialise at
//    all, streaming its base relation element-at-a-time (EvalElement
//    under a pipeline scan iterator). ExecStats::structures_built /
//    structure_elements_built make the skipped work visible.
//
// Laziness trades repeat scans for skipped builds: demanding two units of
// one planned scan at different times scans the relation twice, where the
// eager pass reads it once. Cursors that stop early win; full drains of
// small relations can lose (see README "Demand-driven collection").
//
// Rows are flat throughout. A structure is a RefRelation (one
// arity-strided Ref array plus a RowIdTable, refstruct/ref_relation.h);
// the builders hand each emitted row to its Add as a RowView over refs
// already in hand — the scanned ref for a single list, a two-ref pair on
// the stack for an indirect join — so building allocates only when a
// structure's arrays grow. EvalElement's output and the keyed-partial
// cache are flat ref runs of the structure's arity too, read back as
// RowViews / RowSpans.

#ifndef PASCALR_EXEC_COLLECTION_H_
#define PASCALR_EXEC_COLLECTION_H_

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
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

/// The column a structure can be populated on per join key, or -1 when it
/// cannot: every emission producing the structure must scan the same
/// variable, and that variable must be one of the structure's columns —
/// then "the rows whose column holds ref r" are computable from r alone
/// (dereference, re-check restriction and gates, probe the index).
/// Derived from the plan only, so the pipeline compiler, EXPLAIN, and the
/// cost model agree on each structure's build mode by construction.
int StructureKeyedColumn(const QueryPlan& plan, size_t structure_id);

/// Per-structure lazy builders over one (plan, database) pair. Owns the
/// CollectionResult and populates it on demand; `stats` (may be null)
/// receives the work counters. Not movable: pipeline iterators hold
/// pointers into it, so cursors keep it behind a stable heap allocation.
class CollectionBuilders {
 public:
  CollectionBuilders(const QueryPlan& plan, const Database& db,
                     ExecStats* stats);
  CollectionBuilders(const CollectionBuilders&) = delete;
  CollectionBuilders& operator=(const CollectionBuilders&) = delete;

  /// The eager oracle: builds every remaining structure, index, value
  /// list and range in planned scan order — one pass per planned scan,
  /// exactly the phase-1 collection the paper describes.
  Status EnsureAll();

  /// Materialises the (possibly extended) range of `var` if needed.
  Status EnsureRange(const std::string& var);
  /// Fully materialises one structure (and its index / value-list
  /// prerequisites) if needed.
  Status EnsureStructure(size_t structure_id);
  Status EnsureIndex(size_t index_id);
  Status EnsureValueList(size_t value_list_id);

  bool structure_built(size_t structure_id) const {
    return structure_built_[structure_id];
  }
  /// Cached StructureKeyedColumn(plan, id): the per-element/keyed
  /// population capability of each structure.
  int KeyedColumn(size_t structure_id) const {
    return keyed_column_[structure_id];
  }
  bool range_built(const std::string& var) const {
    return range_built_.count(var) > 0;
  }

  /// Keyed-partial population (mode (b)): the structure's rows whose
  /// StructureKeyedColumn holds `key`, computed on first request and
  /// cached as one flat run of refs per key. The span stays valid for the
  /// builders' lifetime (later keys never move it). The structure itself
  /// is never marked built. Requires StructureKeyedColumn(plan, id) >= 0.
  Result<RowSpan> KeyedMatches(size_t structure_id, const Ref& key);

  /// Builds the indexes and value lists the producers of `structure_id`
  /// probe, without touching the structure itself — the prerequisite for
  /// EvalElement / KeyedMatches.
  Status EnsureElementPrereqs(size_t structure_id);

  /// Evaluates all producers of `structure_id` against the single range
  /// element `ref` (mode (c), the streaming scan): dereferences, applies
  /// the variable's range restriction and the emission gates, probes the
  /// supporting indexes, and appends the resulting rows (deduplicated)
  /// to `out` flat, arity-strided like a RefRelation's rows. Rows are NOT
  /// materialised into the structure and not counted as built elements.
  /// EnsureElementPrereqs must have succeeded.
  Status EvalElement(size_t structure_id, const Ref& ref,
                     std::vector<Ref>* out);

  /// The base relation the (per-element capable) structure's producers
  /// range over — the stream source for mode (c). Requires
  /// KeyedColumn(structure_id) >= 0.
  Result<const Relation*> StructureBaseRelation(size_t structure_id) const;

  const CollectionResult& result() const { return result_; }
  const QueryPlan& plan() const { return plan_; }
  const Database& db() const { return db_; }

  /// Moves the collection structures out (Figure 2 exhibits after a
  /// drain). The builders must not be used afterwards.
  CollectionResult Release() { return std::move(result_); }

 private:
  /// One emission feeding a structure, with the variable whose relation
  /// scan produces it. Post-scan probes are producers too (scan == npos).
  struct Producer {
    enum class Kind { kSingleList, kIndirectJoin, kQuantProbe };
    Kind kind = Kind::kSingleList;
    std::string var;
    size_t scan = 0;  ///< index into plan.scans; kNoScan for post-probes
    const SingleListEmit* sl = nullptr;
    const IndirectJoinEmit* ij = nullptr;
    const QuantProbeEmit* qp = nullptr;
  };
  static constexpr size_t kNoScan = static_cast<size_t>(-1);

  /// Which emissions a filtered scan pass executes. Empty selector =
  /// everything still unbuilt (the eager pass).
  struct ScanWants {
    bool all = false;
    size_t structure = 0;   ///< valid when want_structure
    bool want_structure = false;
    size_t index = 0;
    bool want_index = false;
    size_t value_list = 0;
    bool want_value_list = false;
  };

  Status RunScanFiltered(size_t scan_index, const ScanWants& wants);
  Status RunPostProbe(const PostScanProbe& probe);

  const QueryPlan& plan_;
  const Database& db_;
  ExecStats* stats_;
  CollectionResult result_;

  std::vector<std::vector<Producer>> producers_;  ///< by structure id
  /// By structure id: the variable the producers scan, resolved once
  /// (null without producers or when the standard form lacks it).
  std::vector<const QuantifiedVar*> producer_var_;
  std::vector<int> keyed_column_;                 ///< by structure id

  std::vector<char> structure_built_;
  std::vector<char> index_built_;      ///< borrowed permanents start built
  std::vector<char> vl_built_;
  std::vector<char> vl_building_;      ///< cascade cycle guard
  std::vector<char> prereqs_done_;     ///< by structure id
  std::set<std::string> range_built_;
  bool all_built_ = false;

  /// Keyed-partial caches, by structure id: key ref -> the matching
  /// rows, flat (map nodes are stable, so KeyedMatches spans are too).
  std::vector<std::unordered_map<Ref, std::vector<Ref>, RefHash>>
      keyed_cache_;
};

/// The eager collection phase as a single call: builds everything and
/// returns the result (CollectionBuilders + EnsureAll + Release).
Result<CollectionResult> ExecuteCollection(const QueryPlan& plan,
                                           const Database& db,
                                           ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_EXEC_COLLECTION_H_
