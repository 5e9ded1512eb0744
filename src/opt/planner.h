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
#include "exec/collection.h"
#include "exec/plan.h"
#include "opt/quant_pushdown.h"
#include "opt/range_extension.h"
#include "opt/scan_plan.h"
#include "semantics/binder.h"

namespace pascalr {

struct PlannerOptions {
  OptLevel level = OptLevel::kQuantPush;
  /// Consult the catalog for fresh permanent indexes before building
  /// transient ones (paper §3.2). Ungated index specs only.
  bool use_permanent_indexes = false;
  /// Rows per pipeline chunk on the pipelined cursor drain
  /// (`SET BATCH <n>;`); 1 pulls 1-row chunks.
  size_t batch_size = 1024;
};

/// Field-wise equality — the prepared-query plan cache uses it to detect
/// that the session's options changed between executions. Every field
/// must appear here and in EncodePlannerOptions (concurrency/plan_cache.h);
/// tools/lint_invariants.py checks both.
inline bool operator==(const PlannerOptions& a, const PlannerOptions& b) {
  return a.level == b.level &&
         a.use_permanent_indexes == b.use_permanent_indexes &&
         a.batch_size == b.batch_size;
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

  /// Cost-based selection trail (OptLevel::kAuto): the
  /// chosen plan's estimate and one line per candidate considered.
  bool cost_based = false;
  CostEstimate estimate;
  std::string cost_candidates;
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
                       OptLevel level);

/// Compiles `form` at form.level, whose matrix `ids` interned as `terms`,
/// and applies the physical knobs of `options` (whose level only labels
/// the trace span). The form is not consumed, so one form can be compiled
/// for several candidates: the returned plan's `sf` is empty, and the
/// caller moves form.sf into it.
Result<PlannedQuery> PlanLevelForm(const LevelForm& form,
                                   const PlannerOptions& options,
                                   const PlanIds& ids,
                                   const MatrixTermIds& terms);

/// Normalise + optimise + compile. Performs adaptation rules 1 and 2.
Result<PlannedQuery> PlanQuery(const Database& db, BoundQuery query,
                               const PlannerOptions& options);

/// Drains a Cursor over `planned`'s plan to the end. The PlannedQuery and
/// the cursor's collection structures move into the QueryRun.
Result<QueryRun> RunPlanned(const Database& db, PlannedQuery planned);

/// PlanQuery + RunPlanned; the run's stats carry the plan's replans.
Result<QueryRun> RunQuery(const Database& db, BoundQuery query,
                          const PlannerOptions& options);

/// True if the (possibly extended) range currently denotes no element.
bool RangeIsEmpty(const Database& db, const RangeExpr& range);

}  // namespace pascalr

#endif  // PASCALR_OPT_PLANNER_H_
