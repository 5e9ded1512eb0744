#include "exec/combination.h"

#include <algorithm>
#include <unordered_set>

#include "joinorder/heuristics.h"
#include "refstruct/division.h"
#include "refstruct/ops.h"

namespace pascalr {

namespace {

/// Size-only summaries of actual structures: the signal the greedy order
/// needs (row counts decide the picks, columns decide connectivity).
std::vector<EstRel> SizeOnlySummaries(
    const std::vector<const RefRelation*>& inputs) {
  std::vector<EstRel> actual;
  actual.reserve(inputs.size());
  for (const RefRelation* rel : inputs) {
    EstRel e;
    e.rows = static_cast<double>(rel->size());
    for (const std::string& col : rel->columns()) e.distinct[col] = e.rows;
    actual.push_back(std::move(e));
  }
  return actual;
}

/// Exact summary of a materialised structure: actual row count and exact
/// per-column distinct counts. The collection phase has already run, so
/// unlike the planner the executor need not estimate its leaves. Costs
/// one hash pass over the structure's refs — bounded by the work the
/// collection phase already spent materialising them.
EstRel ActualSummary(const RefRelation& rel) {
  EstRel out;
  out.rows = static_cast<double>(rel.size());
  for (size_t c = 0; c < rel.columns().size(); ++c) {
    std::unordered_set<uint64_t> seen;
    for (const RowView row : rel.rows()) seen.insert(row[c].Hash());
    out.distinct[rel.columns()[c]] = static_cast<double>(seen.size());
  }
  return out;
}

/// Same join order, node for node.
bool SameTreeShape(const JoinTree& a, const JoinTree& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    const JoinTreeNode& x = a.nodes[i];
    const JoinTreeNode& y = b.nodes[i];
    if (x.leaf != y.leaf) return false;
    if (x.leaf ? x.input != y.input
               : x.left != y.left || x.right != y.right) {
      return false;
    }
  }
  return true;
}

/// Runtime adaptation for an attached join tree (the same spirit as the
/// Lemma 1 empty-range adaptation): recost the planner's tree and the
/// greedy order against *actual* structure sizes and distinct counts, and
/// only keep the planner's tree if it still predicts substantially fewer
/// materialised rows. The bar is deliberately high — greedy re-ranks the
/// remaining inputs on real intermediate sizes after every join, an
/// adaptivity a precomputed tree lacks, so thin static margins lose to it
/// in practice.
bool TreeStillBeatsGreedy(const JoinTree& tree,
                          const std::vector<const RefRelation*>& inputs) {
  constexpr double kRequiredGain = 0.2;
  // First cut from sizes alone (the only signal greedy's order needs):
  // when the planner's tree IS the greedy order, executing it is the
  // fallback, so skip the per-column distinct pass entirely.
  std::vector<EstRel> actual = SizeOnlySummaries(inputs);
  JoinTree greedy = GreedyJoinOrder(actual);
  if (SameTreeShape(tree, greedy)) return true;
  // The orders differ: summarise exactly and compare. Penalty-free — at
  // this point every materialised row counts the same, Cartesian or not.
  for (size_t i = 0; i < inputs.size(); ++i) {
    actual[i] = ActualSummary(*inputs[i]);
  }
  return JoinTreeCost(tree, actual, /*cross_penalty=*/1.0) <
         (1.0 - kRequiredGain) *
             JoinTreeCost(greedy, actual, /*cross_penalty=*/1.0);
}

/// Executes an explicit join tree bottom-up: NaturalJoin at every
/// internal node, children before parents by construction. On return the
/// result's rows are registered with `tracker` (intermediates have been
/// released and unregistered).
RefRelation ExecuteJoinTree(const JoinTree& tree,
                            const std::vector<const RefRelation*>& inputs,
                            ExecStats* stats, PeakTracker* tracker) {
  if (tree.nodes.back().leaf) {  // single input: a copy of the structure
    RefRelation out = *inputs[tree.nodes.back().input];
    tracker->Add(out.size());
    return out;
  }
  // Leaves are consumed in place — only join results are materialised.
  std::vector<RefRelation> joined(tree.nodes.size());
  std::vector<const RefRelation*> node_rels(tree.nodes.size(), nullptr);
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const JoinTreeNode& node = tree.nodes[i];
    if (node.leaf) {
      node_rels[i] = inputs[node.input];
    } else {
      size_t left = static_cast<size_t>(node.left);
      size_t right = static_cast<size_t>(node.right);
      joined[i] = NaturalJoin(*node_rels[left], *node_rels[right], stats);
      tracker->Add(joined[i].size());
      node_rels[i] = &joined[i];
      // Each node feeds exactly one parent (Matches), so consumed
      // intermediates can be dropped immediately — peak memory stays at
      // the greedy path's accumulator-plus-one profile.
      tracker->Sub(joined[left].size());
      tracker->Sub(joined[right].size());
      joined[left] = RefRelation();
      joined[right] = RefRelation();
      node_rels[left] = nullptr;
      node_rels[right] = nullptr;
    }
  }
  return std::move(joined.back());
}

}  // namespace

JoinTree RuntimeJoinOrder(const QueryPlan& plan, size_t conj,
                          const std::vector<const RefRelation*>& inputs) {
  // Execute the optimizer's join tree when one is attached (and matches
  // these inputs, and still wins once actual structure sizes are in);
  // otherwise the greedy smallest-first heuristic on actual sizes.
  if (conj < plan.join_trees.size() &&
      plan.join_trees[conj].Matches(inputs.size()) &&
      TreeStillBeatsGreedy(plan.join_trees[conj], inputs)) {
    return plan.join_trees[conj];
  }
  return GreedyJoinOrder(SizeOnlySummaries(inputs));
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
      JoinTree tree = RuntimeJoinOrder(plan, c, inputs);
      conj_result = ExecuteJoinTree(tree, inputs, stats, &tracker);
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
          next, Divide(combined, qv.var, it->second, stats, plan.division));
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
