// The cost model: walks a compiled QueryPlan and predicts the ExecStats
// work counters a Cursor drain of it would produce, in the same units, so
// estimates and measurements are directly comparable (and the plan-search
// driver can rank candidates by one predicted price).
//
// The walk mirrors the three execution phases:
//   collection   - per scan: elements visited, gate comparisons, index
//                  builds/probes, value-list probes, structure sizes;
//   combination  - the streamed join-iterator pipeline (src/pipeline/)
//                  over the executor's greedy smallest-first join order
//                  (src/joinorder/), ranked on estimated structure sizes:
//                  semi-joins, extensions, the dedup sink, division;
//   construction - dereferences per result row and output component.

#ifndef PASCALR_COST_COST_MODEL_H_
#define PASCALR_COST_COST_MODEL_H_

#include <string>

#include "catalog/database.h"
#include "exec/plan.h"
#include "exec/stats.h"

namespace pascalr {

struct CostEstimate {
  /// Predicted work counters of a full Cursor drain (rounded from the
  /// model's real-valued walk): no join intermediates, semi-joins that
  /// stop at the first match for purely existential probes, skipped
  /// Cartesian extensions. peak_intermediate_rows predicts the blocking
  /// buffers (division input, dedup sink).
  ExecStats predicted;
  /// The ranking score: predicted TotalWork plus est_batches plus
  /// structural nudges the counters cannot see (ordered-index build/probe
  /// log factors, sort division). Lower is better.
  double weighted_cost = 0.0;
  /// Predicted root chunk refills of the drain —
  /// ceil(final rows / QueryPlan::batch_size), the batches_emitted
  /// counterpart. One work unit per refill is folded into weighted_cost:
  /// the per-pull overhead batching amortises (~0.1% of work at the
  /// default 1024-row chunks; one pull per row with SET BATCH 1).
  double est_batches = 0.0;

  /// Predicted work before the first result tuple reaches the caller, in
  /// TotalWork units: the whole collection phase plus one row's
  /// join/construction work. A blocking division tail forces the full
  /// run.
  double est_time_to_first_tuple = 0.0;

  std::string ToString() const;
};

/// Costs `plan` against the catalog statistics of `db` (run ANALYZE for
/// accurate estimates; unanalyzed relations fall back to live cardinality
/// and textbook selectivities). Walks the collection phase once.
CostEstimate EstimatePlanCost(const QueryPlan& plan, const Database& db);

/// True when the evaluator would reuse a fresh permanent catalog index
/// for `spec` instead of building a transient one (the same rule
/// collection.cc applies: try_permanent, ungated, fresh index exists).
bool IndexBorrowsPermanent(const QueryPlan& plan, const Database& db,
                           const IndexBuildSpec& spec);

}  // namespace pascalr

#endif  // PASCALR_COST_COST_MODEL_H_
