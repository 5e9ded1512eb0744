// The combination phase's one join order (paper §3.3): greedy
// smallest-first over a conjunction's reference structures, left-deep.
// The executor runs it on the actual sizes of the structures collection
// has built (exec/combination.cc); the cost model runs it on estimated
// sizes to price a candidate (src/cost/). Each structure is summarised
// as an estimated relation — a row count plus per-column (per-variable)
// distinct counts — and joins between summaries follow the textbook
// containment estimate, so the executed and the priced order agree.

#ifndef PASCALR_JOINORDER_HEURISTICS_H_
#define PASCALR_JOINORDER_HEURISTICS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace pascalr {

/// An estimated combination-phase relation: expected (distinct) row count
/// plus per-column distinct counts. Columns are query variable names.
struct EstRel {
  double rows = 0.0;
  std::map<std::string, double> distinct;

  bool HasCol(const std::string& c) const { return distinct.count(c) > 0; }
};

/// Estimated natural join of `a` and `b`: Cartesian rows divided by the
/// larger distinct count of every shared column (containment assumption);
/// distinct counts of shared columns take the minimum, all counts capped
/// by the output row count. With no shared column this is the Cartesian
/// product estimate.
EstRel JoinEstimate(const EstRel& a, const EstRel& b);

/// Columns bound by both sides — the natural-join columns. Empty means a
/// join of the two degenerates to a Cartesian product.
std::vector<std::string> SharedColumns(const EstRel& a, const EstRel& b);

/// One step of a left-deep join order: input `input` (a position within
/// the conjunction's conj_inputs entry) joins the result of the steps
/// before it. The first step only starts the result.
struct JoinStep {
  size_t input = 0;
  /// Columns shared with the result so far (empty: a Cartesian step, and
  /// always for the first step).
  std::vector<std::string> join_columns;
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
/// carry JoinEstimate cardinalities and the shared join columns.
JoinOrder GreedyJoinOrder(const std::vector<EstRel>& inputs);

}  // namespace pascalr

#endif  // PASCALR_JOINORDER_HEURISTICS_H_
