// The query planner: normalises a bound query to the standard form,
// applies the requested strategy level, performs the paper's *runtime
// adaptation* for empty ranges (Lemma 1 / Example 2.2), compiles a
// QueryPlan and runs it.
//
// Adaptation rules (the compile-time standard form assumes non-empty
// ranges):
//  1. if the base relation of any quantified range — or a user-written
//     extended range — is empty, the original NNF formula is folded with
//     SOME v IN [] (B) = FALSE / ALL v IN [] (B) = TRUE and re-normalised;
//  2. if a strategy-3 extension turns out to denote an empty range, the
//     extension is abandoned: the query is re-planned at strategy level 2
//     (the unextended standard form is exact once rule 1 holds).

#ifndef PASCALR_OPT_PLANNER_H_
#define PASCALR_OPT_PLANNER_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "cost/cost_model.h"
#include "exec/evaluator.h"
#include "exec/plan.h"
#include "opt/quant_pushdown.h"
#include "opt/range_extension.h"
#include "semantics/binder.h"

namespace pascalr {

struct PlannerOptions {
  OptLevel level = OptLevel::kQuantPush;
  DivisionAlgorithm division = DivisionAlgorithm::kHash;
  /// Consult the catalog for fresh permanent indexes before building
  /// transient ones (paper §3.2). Ungated index specs only.
  bool use_permanent_indexes = false;
  /// Enable the paper's §4.3 closing suggestion: conjunctive-normal-form
  /// range extensions (disjunctive restrictions). Applies at level >= 3.
  bool use_cnf_extensions = true;
  /// Cost-based plan selection (same as level = OptLevel::kAuto): the
  /// plan-search driver plans strategy levels 0-4 with and without
  /// permanent-index use, costs each candidate against catalog
  /// statistics, and plans the cheapest. Run ANALYZE (Database::Analyze)
  /// for accurate estimates.
  bool cost_based = false;
  /// Selinger-style join ordering (src/joinorder/) over each
  /// conjunction's combination inputs: when every relation a conjunction
  /// ranges over has fresh statistics and its input count is within
  /// join_dp_max_inputs, a dynamic program picks the join tree; the
  /// executor keeps its greedy smallest-first heuristic otherwise (and
  /// whenever the DP predicts no strict improvement over greedy).
  bool join_order_dp = true;
  /// Conjunctions with more inputs than this skip the DP (2^n table).
  size_t join_dp_max_inputs = 12;
  /// Let the DP consider bushy join trees, not just left-deep ones.
  bool join_dp_bushy = false;
  /// Stream the combination phase through the join-iterator pipeline
  /// (src/pipeline/) when executing via Cursor: Open runs only the
  /// collection phase, Next pulls combination rows a chunk at a time, and an
  /// early Close skips unperformed join work. Off forces the
  /// materializing combination path everywhere. Both modes yield the same
  /// tuple multiset after dedup (asserted by the pipeline property
  /// tests); default on.
  bool pipeline = true;
  /// Collection-phase population policy (`SET COLLECTION EAGER|LAZY;`).
  /// kEager builds every structure at Cursor::Open (the paper's phase
  /// split and the oracle); kLazy defers all collection work behind Next
  /// on pipelined cursors — structures materialise fully on first use,
  /// per requested join key, or stream without materialising. Same tuple
  /// multiset either way (lazy property sweep); lazy wins when cursors
  /// stop early and can lose on full drains of small relations (repeat
  /// scans). Only the pipelined path can exploit it.
  CollectionPolicy collection = CollectionPolicy::kEager;
  /// Rows per pipeline chunk on the pipelined cursor drain
  /// (`SET BATCH <n>;`); 1 pulls 1-row chunks.
  size_t batch_size = 1024;
};

/// Field-wise equality — the prepared-query plan cache uses it to detect
/// that the session's options changed between executions.
inline bool operator==(const PlannerOptions& a, const PlannerOptions& b) {
  return a.level == b.level && a.division == b.division &&
         a.use_permanent_indexes == b.use_permanent_indexes &&
         a.use_cnf_extensions == b.use_cnf_extensions &&
         a.cost_based == b.cost_based && a.join_order_dp == b.join_order_dp &&
         a.join_dp_max_inputs == b.join_dp_max_inputs &&
         a.join_dp_bushy == b.join_dp_bushy && a.pipeline == b.pipeline &&
         a.collection == b.collection && a.batch_size == b.batch_size;
}
inline bool operator!=(const PlannerOptions& a, const PlannerOptions& b) {
  return !(a == b);
}

/// A fully planned (not yet executed) query with its transformation trail.
struct PlannedQuery {
  QueryPlan plan;
  RangeExtensionReport range_extension;
  QuantPushdownResult quant_pushdown_summary;  ///< value_lists empty; text only
  std::string adaptation_notes;  ///< runtime adaptations that fired
  uint64_t replans = 0;

  /// Cost-based selection trail (OptLevel::kAuto / cost_based): the
  /// chosen plan's estimate and one line per candidate considered.
  bool cost_based = false;
  CostEstimate estimate;
  std::string cost_candidates;

  /// Saved collection-phase cost walk (filled when the join-order
  /// optimizer needed structure estimates), so the plan-search driver can
  /// cost this candidate without a second collection walk.
  CollectionCost collection_cost;
};

/// The result of running a query end to end.
struct QueryRun {
  std::vector<Tuple> tuples;
  ExecStats stats;
  PlannedQuery planned;
  /// Materialised collection-phase structures (Figure 2 exhibits).
  CollectionResult collection;
};

BoundQuery CloneBoundQuery(const BoundQuery& query);

/// Deep copies (StandardForm is move-only; everything else is copyable).
/// The shared plan cache hands one compiled PlannedQuery to many sessions,
/// and plans are parameter-patched in place per execution — so every
/// adopter clones before patching.
QueryPlan CloneQueryPlan(const QueryPlan& plan);
PlannedQuery ClonePlannedQuery(const PlannedQuery& planned);

/// A standard form prepared for one strategy level, with its adaptation
/// trail. StandardFormWithFolding builds the form of levels 0-2 (rule 1
/// applied); LevelFormFor raises a copy of it: range extension with rule 2
/// at level >= 3 (`level` drops to kOneStep when rule 2 fires), then
/// quantifier push-down at level 4.
struct LevelForm {
  OptLevel level = OptLevel::kNaive;
  StandardForm sf;
  RangeExtensionReport range_extension;
  QuantPushdownResult pushdown;
  std::string notes;
  uint64_t replans = 0;

  LevelForm Clone() const;
};
Result<LevelForm> StandardFormWithFolding(const Database& db,
                                          BoundQuery query);
LevelForm LevelFormFor(const Database& db, const LevelForm& folded,
                       OptLevel level, bool use_cnf_extensions);

/// Compiles `form` and applies the physical knobs and join ordering of
/// `options` (whose level only labels the trace span).
Result<PlannedQuery> PlanLevelForm(const Database& db, LevelForm form,
                                   const PlannerOptions& options);

/// Normalise + optimise + compile. Performs adaptation rules 1 and 2.
Result<PlannedQuery> PlanQuery(const Database& db, BoundQuery query,
                               const PlannerOptions& options);

/// PlanQuery + ExecutePlan.
Result<QueryRun> RunQuery(const Database& db, BoundQuery query,
                          const PlannerOptions& options);

/// True if the (possibly extended) range currently denotes no element.
bool RangeIsEmpty(const Database& db, const RangeExpr& range);

}  // namespace pascalr

#endif  // PASCALR_OPT_PLANNER_H_
