// The combination phase's one join order (paper §3.3): greedy
// smallest-first over a conjunction's reference structures, left-deep.
// The executor runs it on the actual sizes of the structures collection
// has built (exec/combination.cc); the cost model runs it on estimated
// sizes to price a candidate (src/cost/). Each structure is summarised
// as an estimated relation — a row count plus per-column (per-variable)
// distinct counts — and joins between summaries follow the textbook
// containment estimate, so the executed and the priced order agree.
//
// Columns are dense VarIds (normalize/var_ids.h) in variable-name order,
// and an EstRel keeps its columns sorted by id: every loop over columns
// runs in name order, as it did when columns were keyed by name.

#ifndef PASCALR_JOINORDER_HEURISTICS_H_
#define PASCALR_JOINORDER_HEURISTICS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "normalize/var_ids.h"

namespace pascalr {

/// An estimated combination-phase relation: expected (distinct) row count
/// plus per-column distinct counts. Columns are query variables.
struct EstRel {
  double rows = 0.0;
  /// (column, distinct count), ascending by column id.
  std::vector<std::pair<VarId, double>> distinct;

  const double* Find(VarId c) const;
  double* Find(VarId c) {
    return const_cast<double*>(static_cast<const EstRel*>(this)->Find(c));
  }
  bool HasCol(VarId c) const { return Find(c) != nullptr; }
  /// Sets column `c`'s distinct count, adding the column when absent.
  void Set(VarId c, double d);
  void Erase(VarId c);
  /// Caps every distinct count at `rows`.
  void CapDistinct(double rows);
};

/// Estimated natural join of `a` and `b`: Cartesian rows divided by the
/// larger distinct count of every shared column (containment assumption);
/// distinct counts of shared columns take the minimum, all counts capped
/// by the output row count. With no shared column this is the Cartesian
/// product estimate.
EstRel JoinEstimate(const EstRel& a, const EstRel& b);

/// Columns bound by both sides — the natural-join columns. Empty means a
/// join of the two degenerates to a Cartesian product.
std::vector<VarId> SharedColumns(const EstRel& a, const EstRel& b);

/// One step of a left-deep join order: input `input` (a position within
/// the conjunction's conj_inputs entry) joins the result of the steps
/// before it. The first step only starts the result.
struct JoinStep {
  size_t input = 0;
  /// Columns shared with the result so far (empty: a Cartesian step, and
  /// always for the first step).
  std::vector<VarId> join_columns;
  /// Estimated rows of the result after this step (the first step: the
  /// input's own rows); 0 when no estimate was made.
  double est_rows = 0.0;
};

/// A left-deep join order: every input of a conjunction once, in join
/// order.
using JoinOrder = std::vector<JoinStep>;

/// Greedy order over `inputs`: start from the smallest, repeatedly join
/// the smallest remaining input that shares a column with the result so
/// far, and fall back to the smallest overall (a genuine Cartesian step)
/// when none connects. Ties go to the first input of equal size. Steps
/// carry JoinEstimate cardinalities and the shared join columns. The one
/// join-order routine: the executor (RuntimeJoinOrder) and the cost model
/// both call it.
JoinOrder GreedyJoinOrder(const std::vector<EstRel>& inputs);

}  // namespace pascalr

#endif  // PASCALR_JOINORDER_HEURISTICS_H_
