// The combination phase (paper §3.3, step 2): manipulates only reference
// relations. Per conjunction it joins the collected structures into
// n-tuples of references (n = number of prefix variables still active),
// unions the disjuncts, and evaluates quantifiers right to left —
// projection for SOME, relational division for ALL.

#ifndef PASCALR_EXEC_COMBINATION_H_
#define PASCALR_EXEC_COMBINATION_H_

#include "base/status.h"
#include "exec/collection.h"
#include "exec/plan.h"
#include "exec/stats.h"

namespace pascalr {

/// Returns the reference relation over the free variables that satisfies
/// the whole selection expression. The engine never calls it: it stays as
/// the paper's materialized phase-2 reference for combination_test,
/// figure2_test and pipeline_test, and because bench_e2e/replay.cc does.
Result<RefRelation> ExecuteCombination(const QueryPlan& plan,
                                       const CollectionResult& coll,
                                       ExecStats* stats);

/// The executor's runtime join-order decision for one conjunction's
/// actual inputs (non-empty): the plan's attached tree when it matches
/// and — recosted against actual structure sizes — still beats the greedy
/// smallest-first order by the required margin, otherwise that greedy
/// order reified as a left-deep JoinTree. Exposed so the materialized
/// reference and the pipeline (src/pipeline/) make the identical choice.
JoinTree RuntimeJoinOrder(const QueryPlan& plan, size_t conj,
                          const std::vector<const RefRelation*>& inputs);

}  // namespace pascalr

#endif  // PASCALR_EXEC_COMBINATION_H_
