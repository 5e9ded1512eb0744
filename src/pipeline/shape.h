// Static analysis of a QueryPlan's combination phase for pipelined
// (tuple-at-a-time) execution: which prefix variables survive to the
// blocking tail, which are *purely existential* — SOME-quantified inner
// to the outermost ALL, so their columns never reach a division and their
// joins may stop at the first match (EXISTS-style probes) — and which
// join steps qualify for that semi-join early termination.
//
// The compiler (compile.h), the cost model (src/cost/) and EXPLAIN
// (src/opt/explain.cc) all consume the same analysis, so executed,
// priced, and printed pipelines agree by construction.

#ifndef PASCALR_PIPELINE_SHAPE_H_
#define PASCALR_PIPELINE_SHAPE_H_

#include <string>
#include <vector>

#include "exec/plan.h"
#include "joinorder/heuristics.h"
#include "normalize/var_ids.h"

namespace pascalr {

struct PipelineShape {
  /// The prefix minus strategy-4 eliminations, in prefix order (free
  /// variables first by construction) — §3.3's n-tuple variables.
  /// Borrowed from plan.sf.prefix: the shape must not outlive the plan.
  std::vector<const QuantifiedVar*> active;
  std::vector<std::string> free_names;
  /// Columns a conjunction's stream must deliver upward: the free
  /// variables plus every quantified variable up to and including the
  /// outermost ALL (division consumes whole columns, so everything outer
  /// to it must be present when the divisions run). Prefix order; the
  /// free names are its leading entries.
  std::vector<std::string> needed;
  /// Purely existential variables: SOME-quantified and inner to every
  /// ALL. Their columns are dropped before any division, so a conjunction
  /// need only witness that a binding *exists* — semi-joins and skipped
  /// range extensions, never materialised columns.
  std::vector<std::string> existential;
  /// active[0 .. last ALL], the quantifiers the blocking tail evaluates
  /// right-to-left over the buffered stream. Empty when no ALL survives —
  /// the stream then feeds a dedup sink directly. Borrowed, like active.
  std::vector<const QuantifiedVar*> tail;
  bool has_division = false;

  /// The plan's variable ids (name order), and `needed` / `existential`
  /// as masks over them.
  VarIds ids;
  std::vector<bool> needed_mask;
  std::vector<bool> existential_mask;

  bool IsExistential(const std::string& var) const {
    for (const std::string& v : existential) {
      if (v == var) return true;
    }
    return false;
  }
  /// Ids of `cols`, in the same order.
  std::vector<VarId> IdsOf(const std::vector<std::string>& cols) const;
};

PipelineShape AnalyzePipelineShape(const QueryPlan& plan);

/// Per-step semi-join eligibility for `order` joining inputs with the
/// given column sets (input_cols[i], ids under shape.ids, belongs to input
/// i). A join step may
/// emit each left row once at the first match — and drop the input's
/// extra columns entirely — when every such column is purely existential
/// and no later step or the output needs it. Indexed like `order`; the
/// first step is false.
std::vector<bool> SemiJoinEligible(
    const JoinOrder& order, const std::vector<std::vector<VarId>>& input_cols,
    const PipelineShape& shape);

}  // namespace pascalr

#endif  // PASCALR_PIPELINE_SHAPE_H_
