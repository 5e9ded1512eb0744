// The cost model: walks a compiled QueryPlan and predicts the ExecStats
// work counters a Cursor drain of it would produce, in the same units, so
// estimates and measurements are directly comparable (and the plan-search
// driver can rank candidates by one predicted price).
//
// The walk mirrors the three execution phases:
//   collection   - per scan: elements visited, gate comparisons, index
//                  builds/probes, value-list probes, structure sizes;
//   combination  - the streamed join-iterator pipeline (src/pipeline/)
//                  over the plan's join tree (src/joinorder/) when one is
//                  attached, otherwise the executor's greedy
//                  smallest-first order, on estimated structure sizes:
//                  semi-joins, extensions, the dedup sink, division;
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
  /// Predicted work counters of a full Cursor drain (rounded from the
  /// model's real-valued walk): no join intermediates, semi-joins that
  /// stop at the first match for purely existential probes, skipped
  /// Cartesian extensions. peak_intermediate_rows predicts the blocking
  /// buffers (division input, dedup sink, bushy builds).
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
  /// TotalWork units, under the plan's collection policy. Eager: the
  /// whole collection phase plus one row's join/construction work. Lazy:
  /// only the first conjunction's demanded builds — full builds for
  /// structures that cannot populate per key, index builds, one element
  /// evaluation per keyed probe. A blocking division tail forces the full
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
