// The plan-search driver behind OptLevel::kAuto: plans the paper's
// strategy levels 0-4, each with and without permanent-index reuse (when
// the catalog has a fresh permanent index), costs each candidate with the
// cost model, and returns the cheapest — the automatic version of the
// paper's strategy arguments.
//
// Each distinct plan is compiled once: the query is normalized once per
// search, and a level whose own step is a no-op (no range extended, rule 2
// abandoned the extension, no quantifier pushed) is the level below's plan
// and is listed as "O4: same plan as O3 (no quantifier pushed)". Levels
// 0-2 compile the one folded form; only levels 3 and 4 get copies, which
// their rewrites need. Candidates borrow their form to be priced and the
// winner keeps it. One PlanIds table (opt/scan_plan.h) serves the whole
// search: each form's terms are interned once, and the naive lower bound
// counts distinct terms by the same ids the naive plan interns by. Sorted
// transient indexes in place of hash ones are not searched: they only add
// a non-negative cost nudge to the hash variant, so they cannot win.
//
// Join order is not a search dimension: each candidate is priced over the
// executor's greedy smallest-first order (src/joinorder/) on its
// estimated structure sizes, with one collection-phase walk.
// Levels are visited strongest-first carrying the best cost so far, and
// candidates whose scan lower bound already exceeds it are pruned before
// compilation (the pruned count is logged in the EXPLAIN candidate table).
//
// Candidates are ranked by CostEstimate::weighted_cost, the price of the
// Cursor drain that will actually run; the regret sweep in
// auto_planner_test validates that ranking against every fixed level in
// measured work.

#ifndef PASCALR_COST_PLAN_SEARCH_H_
#define PASCALR_COST_PLAN_SEARCH_H_

#include "base/status.h"
#include "catalog/database.h"
#include "opt/planner.h"

namespace pascalr {

/// Plans `query` under every candidate configuration derived from `base`
/// (level, division and permanent-index use overridden), costs each
/// candidate, and returns the cheapest with its estimate and the
/// candidate table filled in. `base.level` is ignored —
/// the caller (PlanQuery) has already decided to search.
Result<PlannedQuery> SearchBestPlan(const Database& db, BoundQuery query,
                                    const PlannerOptions& base);

}  // namespace pascalr

#endif  // PASCALR_COST_PLAN_SEARCH_H_
