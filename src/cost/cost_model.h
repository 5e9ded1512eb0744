// The cost model: walks a compiled QueryPlan and predicts the ExecStats
// work counters the evaluator would produce, in the same units, so
// estimates and measurements are directly comparable (and the plan-search
// driver can rank candidates by predicted TotalWork).
//
// The walk mirrors the three execution phases:
//   collection   - per scan: elements visited, gate comparisons, index
//                  builds/probes, value-list probes, structure sizes;
//   combination  - walks the plan's join tree (src/joinorder/) when one
//                  is attached, otherwise the executor's greedy
//                  smallest-first order, on estimated structure sizes;
//                  then product extension, union, projection, division;
//   construction - dereferences per result row and output component.

#ifndef PASCALR_COST_COST_MODEL_H_
#define PASCALR_COST_COST_MODEL_H_

#include <string>
#include <vector>

#include "catalog/database.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "joinorder/join_graph.h"

namespace pascalr {

struct CostEstimate {
  /// Predicted work counters (rounded from the model's real-valued walk).
  ExecStats predicted;
  /// Ranking score: predicted TotalWork plus structural nudges the
  /// counters cannot see (ordered-index build/probe log factors, sort
  /// division). Lower is better.
  double weighted_cost = 0.0;

  /// Pipelined-combination pricing (src/pipeline/): what the streaming
  /// cursor does instead of the materializing path — no join
  /// intermediates, semi-joins that stop at the first match for purely
  /// existential probes (EXISTS-style early termination), skipped
  /// Cartesian extensions. `predicted` / `weighted_cost` above always
  /// price the materializing reference path (candidates are ranked and
  /// validated against it); these fields price the pipelined mode.
  double pipelined_combination_rows = 0.0;
  double pipelined_total_work = 0.0;
  /// Ranking score for sessions that execute pipelined: the pipelined
  /// work plus the same structural nudges weighted_cost carries. The
  /// kAuto search ranks on this when PlannerOptions::pipeline is on
  /// (mode-aware ranking), and on weighted_cost otherwise.
  double pipelined_weighted_cost = 0.0;
  /// Predicted ExecStats::peak_intermediate_rows per combination mode.
  double est_peak_materialized = 0.0;
  double est_peak_pipelined = 0.0;
  /// Predicted root chunk refills of a pipelined drain —
  /// ceil(final rows / QueryPlan::batch_size), the batches_emitted
  /// counterpart. One work unit per refill is folded into the pipelined
  /// prices: the per-pull overhead batching amortises (~0.1% of work at
  /// the default 1024-row chunks; one pull per row with SET BATCH 1's
  /// 1-row chunks).
  double est_batches = 0.0;

  /// Predicted work before the first result tuple reaches the caller, in
  /// TotalWork units, for the mode the plan executes (pipeline flag +
  /// collection policy). Materializing: everything except the remaining
  /// rows' construction. Pipelined eager: the whole collection phase
  /// plus one row's join/construction work. Pipelined lazy: only the
  /// first conjunction's demanded builds — full builds for structures
  /// that cannot populate per key, index builds, one element evaluation
  /// per keyed probe. A blocking division tail forces the full pipelined
  /// run regardless of policy.
  double est_time_to_first_tuple = 0.0;

  std::string ToString() const;
};

/// The saved output of one collection-phase cost walk over a plan: the
/// per-structure estimates the join-order optimizer plans over plus the
/// accumulator state the combination walk resumes from. Computed by
/// EstimateStructureSizes (via AttachJoinOrders) and replayed by
/// EstimatePlanCost, so each kAuto candidate walks its collection phase
/// once instead of twice. Valid only for the exact (plan, db) pair it was
/// computed from — join trees attached *after* the walk are fine (they
/// only change the combination phase), any other plan or catalog change
/// is not.
struct CollectionCost {
  bool valid = false;
  std::vector<EstRel> structures;  ///< index [i] matches plan.structures[i]

  // Resumable walk state (collection-phase accumulators).
  std::vector<double> structure_rows;
  std::vector<double> index_rows;
  std::vector<double> index_distinct;
  std::vector<double> vl_count;
  std::vector<double> vl_distinct;
  std::vector<char> borrowed;
  double relations_read = 0.0;
  double elements_scanned = 0.0;
  double index_probes = 0.0;
  double single_list_refs = 0.0;
  double indirect_join_refs = 0.0;
  double quantifier_probes = 0.0;
  double comparisons = 0.0;
  double permanent_index_hits = 0.0;
  double extra_cost = 0.0;
};

/// Costs `plan` against the catalog statistics of `db` (run ANALYZE for
/// accurate estimates; unanalyzed relations fall back to live cardinality
/// and textbook selectivities). When `reuse` holds a valid CollectionCost
/// for this plan, the collection phase is replayed from it instead of
/// walked again.
CostEstimate EstimatePlanCost(const QueryPlan& plan, const Database& db,
                              const CollectionCost* reuse = nullptr);

/// Estimated row counts and per-column distinct counts of every
/// collection-phase structure of `plan`, by walking the collection phase
/// only — the leaf cardinalities the join-order optimizer
/// (src/joinorder/) plans over. Index [i] matches plan.structures[i].
/// When `save` is non-null the full walk state is stored there for a
/// later EstimatePlanCost to resume from.
std::vector<EstRel> EstimateStructureSizes(const QueryPlan& plan,
                                           const Database& db,
                                           CollectionCost* save = nullptr);

/// True when the evaluator would reuse a fresh permanent catalog index
/// for `spec` instead of building a transient one (the same rule
/// collection.cc applies: try_permanent, ungated, fresh index exists).
bool IndexBorrowsPermanent(const QueryPlan& plan, const Database& db,
                           const IndexBuildSpec& spec);

}  // namespace pascalr

#endif  // PASCALR_COST_COST_MODEL_H_
