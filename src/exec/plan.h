// QueryPlan: the compiled physical form of a standard-form query.
//
// The same plan language expresses the naive Palermo evaluation (O0) and
// every strategy level:
//
//  - each *relation scan* lists, per variable ranging over the scanned
//    relation, the emissions performed one-element-at-a-time: single
//    lists, index builds, indirect-join probes, strategy-4 value lists and
//    quantifier probes;
//  - strategy 1 shows up as *one* scan per relation carrying many actions,
//    where the naive plan has one scan per join term;
//  - strategy 2 shows up as monadic *gates* attached to emissions (and the
//    absorbed terms disappear from the combination inputs) plus mutual
//    dyadic restriction via co-probe checks;
//  - strategy 3 rewrites the standard form itself (extended ranges);
//  - strategy 4 eliminates a quantified variable: its terms are replaced
//    by a derived single list on the remaining variable, fed by a
//    ValueList probe.
//
// The combination phase consumes `conj_inputs`: for every conjunction of
// the matrix, the structure ids to join; variables of the prefix missing
// from a conjunction are supplied by Cartesian product with the variable's
// materialised range, exactly as §3.3 prescribes. The plan fixes no join
// order: the executor joins greedily smallest-first on the actual sizes
// of the structures collection built (exec/combination.h).

#ifndef PASCALR_EXEC_PLAN_H_
#define PASCALR_EXEC_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "calculus/ast.h"
#include "normalize/standard_form.h"
#include "refstruct/value_list.h"

namespace pascalr {

/// Optimization levels exercised by benches and tests. Each level adds the
/// paper's strategy of the same number. kAuto is not a strategy of its
/// own: the planner enumerates candidate plans across levels 0-4 (and
/// physical knobs), costs each against catalog statistics, and executes
/// the cheapest — the chosen plan's `QueryPlan::level` is always concrete.
enum class OptLevel : int {
  kNaive = 0,      ///< Palermo baseline: term-at-a-time collection
  kParallel = 1,   ///< + S1: one scan per relation (§4.1)
  kOneStep = 2,    ///< + S2: monadic gates, mutual restriction (§4.2)
  kRangeExt = 3,   ///< + S3: extended range expressions (§4.3)
  kQuantPush = 4,  ///< + S4: collection-phase quantifiers (§4.4)
  kAuto = 5,       ///< cost-based selection over levels 0-4 (src/cost/)
};

std::string_view OptLevelToString(OptLevel level);

/// Collection always runs eagerly (exec/collection.h); the enum has no
/// effect. Kept only because bench_e2e/replay.cc reads kLazy.
enum class CollectionPolicy : uint8_t {
  kEager = 0,
  kLazy = 1,
};

/// A transient (or permanent) index to build: `var`'s range on one
/// component, restricted by monadic gates (S2).
struct IndexBuildSpec {
  size_t id = 0;
  std::string var;
  int component_pos = -1;
  bool ordered = false;              ///< sorted index instead of hash
  std::vector<JoinTerm> gates;       ///< monadic over `var`
  /// Use a fresh *permanent* catalog index when one exists instead of
  /// building a transient one (paper §3.2: "The first step can be
  /// omitted, if permanent indexes exist"). Only ungated specs qualify.
  bool try_permanent = false;
  std::string debug_name;
};

/// A strategy-4 probe against an already built value list: does
/// `x op w` hold for SOME / ALL list values w, where x is a component of
/// the element currently scanned?
struct QuantProbeGate {
  size_t value_list_id = 0;
  Quantifier quantifier = Quantifier::kSome;
  CompareOp op = CompareOp::kEq;
  int probe_component_pos = -1;  ///< on the scanned element
};

/// A strategy-4 value list: the joined component of the quantified
/// variable vn, in the cheapest sufficient mode. When eliminations
/// cascade (Example 4.7: c's list gates t's list), probe_gates carry the
/// derived predicates that restrict which elements feed the list.
struct ValueListSpec {
  size_t id = 0;
  std::string var;                   ///< vn
  int component_pos = -1;
  ValueList::Mode mode = ValueList::Mode::kFull;
  std::vector<JoinTerm> gates;       ///< monadic over vn
  std::vector<QuantProbeGate> probe_gates;  ///< cascaded derived gates
  std::string debug_name;
};

/// Output structure registry entry. Structures are reference relations
/// produced by the collection phase and consumed by the combination phase.
struct StructureDef {
  size_t id = 0;
  std::vector<std::string> columns;  ///< 1 = single list, 2 = indirect join
  std::string debug_name;
};

/// Emission of the scanned element's ref into a single list.
struct SingleListEmit {
  size_t structure_id = 0;
  std::vector<JoinTerm> gates;  ///< monadic terms over the scanned var
};

/// A secondary probe used for mutual dyadic restriction (S2): the scanned
/// element only emits if `probe_value op indexed_value` matches something.
struct ProbeCheck {
  size_t index_id = 0;
  CompareOp op = CompareOp::kEq;  ///< scanned-side value `op` indexed value
  int probe_component_pos = -1;   ///< on the scanned var
};

/// Emission of (scanned ref, matching build ref) pairs into an indirect
/// join by probing a previously built index.
struct IndirectJoinEmit {
  size_t structure_id = 0;
  size_t index_id = 0;
  CompareOp op = CompareOp::kEq;  ///< scanned value `op` indexed value
  int probe_component_pos = -1;
  bool probe_column_first = true;  ///< column order of the structure
  std::vector<JoinTerm> gates;
  std::vector<ProbeCheck> corestrictions;  ///< S2 mutual restriction
};

/// Strategy-4 emission: evaluates `Q vn (x op vn.c)` for the scanned
/// element x and emits its ref into a derived single list when the probe
/// holds.
struct QuantProbeEmit {
  size_t structure_id = 0;  ///< derived single list over the scanned var
  QuantProbeGate probe;
  std::vector<JoinTerm> gates;
};

/// Everything to do for one variable while scanning its range relation.
struct ScanAction {
  std::string var;
  std::vector<SingleListEmit> single_lists;
  std::vector<size_t> index_builds;       ///< ids into QueryPlan::indexes
  std::vector<size_t> value_list_builds;  ///< ids into QueryPlan::value_lists
  std::vector<IndirectJoinEmit> ij_emits;
  std::vector<QuantProbeEmit> quant_probes;
};

/// One pass over one relation (the unit §4.1 minimises).
struct RelationScan {
  std::string relation;
  std::vector<ScanAction> actions;
  std::string debug_label;
};

/// An indirect-join emission that cannot run during its variable's scan
/// (the index is built by the same scan, e.g. a self join); it runs after
/// all scans by iterating the variable's materialised range.
struct PostScanProbe {
  std::string var;
  IndirectJoinEmit emit;
};

struct QueryPlan {
  /// The (possibly strategy-3/4 rewritten) standard form this plan executes.
  StandardForm sf;
  OptLevel level = OptLevel::kNaive;

  std::vector<RelationScan> scans;
  std::vector<IndexBuildSpec> indexes;
  std::vector<ValueListSpec> value_lists;
  std::vector<StructureDef> structures;
  std::vector<PostScanProbe> post_probes;

  /// Per matrix conjunction: the structure ids whose join (extended to all
  /// prefix variables) realises it.
  std::vector<std::vector<size_t>> conj_inputs;

  /// Prefix variables eliminated by strategy 4 (they no longer take part
  /// in combination: no product extension, no projection/division).
  std::vector<std::string> eliminated_vars;

  /// Always true and set by no one; kept only because
  /// bench_e2e/replay.cc reads it.
  bool pipeline = true;

  /// Always kEager and set by no one; kept only because
  /// bench_e2e/replay.cc reads it.
  CollectionPolicy collection = CollectionPolicy::kEager;

  /// Rows per pipeline chunk (`SET BATCH <n>;`): the capacity of every
  /// NextBatch pull on the pipelined drain; 1 pulls 1-row chunks. A full
  /// drain yields the same rows, order, and counters at every size
  /// (batches_emitted aside) — the size only changes the call pattern.
  size_t batch_size = 1024;

  bool IsEliminated(const std::string& var) const {
    for (const std::string& v : eliminated_vars) {
      if (v == var) return true;
    }
    return false;
  }
};

}  // namespace pascalr

#endif  // PASCALR_EXEC_PLAN_H_
