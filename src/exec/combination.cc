#include "exec/combination.h"

#include "refstruct/division.h"
#include "refstruct/ops.h"

namespace pascalr {

namespace {

/// Executes a left-deep join order: the first input, then a NaturalJoin
/// with each next input. On return the result's rows are registered with
/// `tracker` (intermediates have been released and unregistered).
RefRelation ExecuteJoinOrder(const JoinOrder& order,
                             const std::vector<const RefRelation*>& inputs,
                             ExecStats* stats, PeakTracker* tracker) {
  if (order.size() == 1) {  // single input: a copy of the structure
    RefRelation out = *inputs[order[0].input];
    tracker->Add(out.size());
    return out;
  }
  // The first input is consumed in place; only join results are
  // materialised, and each is dropped as soon as the next join consumed
  // it — peak memory stays at an accumulator plus one.
  RefRelation acc =
      NaturalJoin(*inputs[order[0].input], *inputs[order[1].input], stats);
  tracker->Add(acc.size());
  for (size_t k = 2; k < order.size(); ++k) {
    RefRelation next = NaturalJoin(acc, *inputs[order[k].input], stats);
    tracker->Add(next.size());
    tracker->Sub(acc.size());
    acc = std::move(next);
  }
  return acc;
}

}  // namespace

JoinOrder RuntimeJoinOrder(const std::vector<const RefRelation*>& inputs,
                           const VarIds& ids) {
  // Row counts decide the picks and columns decide connectivity, so a
  // size-only summary is all the greedy order needs.
  std::vector<EstRel> actual;
  actual.reserve(inputs.size());
  for (const RefRelation* rel : inputs) {
    EstRel e;
    e.rows = static_cast<double>(rel->size());
    for (const std::string& col : rel->columns()) e.Set(ids.Of(col), e.rows);
    actual.push_back(std::move(e));
  }
  return GreedyJoinOrder(actual);
}

Result<RefRelation> ExecuteCombination(const QueryPlan& plan,
                                       const CollectionResult& coll,
                                       ExecStats* stats) {
  PeakTracker tracker(stats);

  // Active variables: the prefix minus strategy-4 eliminations, in prefix
  // order. Free variables come first by construction.
  std::vector<QuantifiedVar> active;
  for (const QuantifiedVar& qv : plan.sf.prefix) {
    if (!plan.IsEliminated(qv.var)) active.push_back(qv.Clone());
  }
  std::vector<std::string> active_names;
  for (const QuantifiedVar& qv : active) active_names.push_back(qv.var);

  std::vector<std::string> free_names;
  for (const QuantifiedVar& qv : active) {
    if (qv.quantifier == Quantifier::kFree) free_names.push_back(qv.var);
  }

  if (plan.sf.matrix.IsFalse()) {
    return RefRelation(free_names);  // no disjunct: empty result
  }

  // Step 1 + 2: evaluate each conjunction, union the n-tuple sets.
  const VarIds ids(plan.sf.vars);
  RefRelation combined(active_names);
  for (size_t c = 0; c < plan.sf.matrix.disjuncts.size(); ++c) {
    std::vector<const RefRelation*> inputs;
    for (size_t id : plan.conj_inputs[c]) {
      inputs.push_back(&coll.structures[id]);
    }
    RefRelation conj_result;
    if (inputs.empty()) {
      conj_result = RefRelation(std::vector<std::string>{});
      conj_result.Add({});  // arity-0 relation containing the empty row: TRUE
      tracker.Add(1);
    } else {
      conj_result = ExecuteJoinOrder(RuntimeJoinOrder(inputs, ids), inputs,
                                     stats, &tracker);
    }
    // Extend to all active variables (the n-tuple invariant of §3.3).
    for (const QuantifiedVar& qv : active) {
      if (conj_result.ColumnIndex(qv.var) >= 0) continue;
      auto it = coll.range_refs.find(qv.var);
      if (it == coll.range_refs.end()) {
        return Status::Internal("no materialised range for '" + qv.var + "'");
      }
      RefRelation extended =
          ProductWithRefs(conj_result, qv.var, it->second, stats);
      tracker.Add(extended.size());
      tracker.Sub(conj_result.size());
      conj_result = std::move(extended);
    }
    PASCALR_ASSIGN_OR_RETURN(RefRelation aligned,
                             Project(conj_result, active_names, stats));
    tracker.Add(aligned.size());
    tracker.Sub(conj_result.size());
    conj_result.Clear();
    PASCALR_ASSIGN_OR_RETURN(RefRelation next,
                             UnionRows(combined, aligned, stats));
    tracker.Add(next.size());
    tracker.Sub(combined.size());
    tracker.Sub(aligned.size());
    combined = std::move(next);
  }

  // Step 3: quantifiers right to left.
  for (size_t i = active.size(); i-- > 0;) {
    const QuantifiedVar& qv = active[i];
    if (qv.quantifier == Quantifier::kFree) break;
    RefRelation next;
    if (qv.quantifier == Quantifier::kSome) {
      std::vector<std::string> keep;
      for (const std::string& col : combined.columns()) {
        if (col != qv.var) keep.push_back(col);
      }
      PASCALR_ASSIGN_OR_RETURN(next, Project(combined, keep, stats));
    } else {
      auto it = coll.range_refs.find(qv.var);
      if (it == coll.range_refs.end()) {
        return Status::Internal("no materialised range for '" + qv.var + "'");
      }
      PASCALR_ASSIGN_OR_RETURN(
          next, Divide(combined, qv.var, it->second, stats));
    }
    tracker.Add(next.size());
    tracker.Sub(combined.size());
    combined = std::move(next);
  }

  {
    PASCALR_ASSIGN_OR_RETURN(RefRelation final_rel,
                             Project(combined, free_names, stats));
    tracker.Add(final_rel.size());
    tracker.Sub(combined.size());
    combined = std::move(final_rel);
  }
  return combined;
}

}  // namespace pascalr
