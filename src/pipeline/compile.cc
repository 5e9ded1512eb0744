#include "pipeline/compile.h"

#include <algorithm>

#include "base/str_util.h"
#include "exec/combination.h"
#include "obs/profile.h"

namespace pascalr {

namespace {

/// Registers `iter` as a profile node and wraps it in a ProfiledIter;
/// with no profile (every normal query) returns `iter` untouched, so the
/// unprofiled tree is bit-identical to the pre-profiling build.
/// `est_rows` < 0 marks operators the planner attaches no estimate to.
/// `*node_out` receives the profile node id (-1 unprofiled) for use as a
/// later wrap's child.
RefIteratorPtr ProfileWrap(PipelineProfile* profile, RefIteratorPtr iter,
                           std::string label, double est_rows,
                           std::vector<int> children, int* node_out) {
  if (profile == nullptr) {
    if (node_out != nullptr) *node_out = -1;
    return iter;
  }
  children.erase(std::remove(children.begin(), children.end(), -1),
                 children.end());
  int id = profile->Add(std::move(label), est_rows, std::move(children));
  if (node_out != nullptr) *node_out = id;
  return std::make_unique<ProfiledIter>(std::move(iter), profile->prof(id));
}

int IndexOf(const std::vector<std::string>& cols, const std::string& name) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == name) return static_cast<int>(i);
  }
  return -1;
}

/// One join step's lowering decisions (keys, output columns). The first
/// step carries only `cols`.
struct StepPlan {
  std::vector<int> left_key;
  std::vector<int> right_key;
  std::vector<int> right_extras;
  std::vector<std::string> cols;  ///< the step's output column layout
  /// Covered input: every column of the step's structure is already
  /// bound upstream (right_extras empty), so the "join" is a residual
  /// predicate — lowered to FilterIter membership probes instead of a
  /// probe-join (same rows in the same order: covered inputs are always
  /// semi-eligible, one emission per surviving row).
  bool filter = false;
};

/// Everything the lowering of one conjunction decides.
struct ConjunctionLowering {
  JoinOrder order;
  std::vector<bool> semi;       ///< indexed like order
  std::vector<StepPlan> steps;  ///< indexed like order
};

ConjunctionLowering PlanConjunctionLowering(const QueryPlan& plan,
                                            size_t conj, JoinOrder order,
                                            const PipelineShape& shape) {
  const std::vector<size_t>& ids = plan.conj_inputs[conj];
  ConjunctionLowering low;
  low.order = std::move(order);
  std::vector<std::vector<std::string>> input_cols;
  std::vector<std::vector<VarId>> input_ids;
  for (size_t id : ids) {
    input_cols.push_back(plan.structures[id].columns);
    input_ids.push_back(shape.IdsOf(plan.structures[id].columns));
  }
  low.semi = SemiJoinEligible(low.order, input_ids, shape);
  low.steps.resize(low.order.size());

  // The first input is the driving stream.
  low.steps[0].cols = input_cols[low.order[0].input];
  for (size_t k = 1; k < low.order.size(); ++k) {
    const size_t input = low.order[k].input;
    const std::vector<std::string>& left_cols = low.steps[k - 1].cols;
    const std::vector<std::string>& right_cols = input_cols[input];
    StepPlan& sp = low.steps[k];
    std::vector<std::string> extra_names;
    for (size_t r = 0; r < right_cols.size(); ++r) {
      int pos = IndexOf(left_cols, right_cols[r]);
      if (pos >= 0) {
        sp.left_key.push_back(pos);
        sp.right_key.push_back(static_cast<int>(r));
      } else {
        sp.right_extras.push_back(static_cast<int>(r));
        extra_names.push_back(right_cols[r]);
      }
    }
    // Residual-predicate lowering: a covered input (no new columns) runs
    // as a membership filter over the prebuilt structure — no hash
    // table, no match chains.
    sp.filter = !sp.left_key.empty() && sp.right_extras.empty();
    sp.cols = left_cols;
    if (!low.semi[k]) {
      sp.cols.insert(sp.cols.end(), extra_names.begin(), extra_names.end());
    }
  }
  return low;
}

/// Lowers one conjunction's join order + extension + projection-to-needed
/// into an iterator chain emitting rows in `shape.needed` layout.
/// `*root_node` receives the chain root's profile node id (-1 unprofiled).
Result<RefIteratorPtr> CompileConjunction(const QueryPlan& plan, size_t conj,
                                          const CollectionResult& coll,
                                          const PipelineShape& shape,
                                          ExecStats* stats,
                                          PeakTracker* tracker,
                                          PipelineProfile* profile,
                                          int* root_node) {
  const std::vector<size_t>& ids = plan.conj_inputs[conj];

  RefIteratorPtr chain;
  int chain_node = -1;
  *root_node = -1;
  std::vector<std::string> cols;
  if (ids.empty()) {
    // TRUE: the empty row.
    chain = ProfileWrap(profile, std::make_unique<UnitIter>(), "unit", -1.0,
                        {}, &chain_node);
  } else {
    std::vector<const RefRelation*> inputs;
    for (size_t id : ids) inputs.push_back(&coll.structures[id]);
    ConjunctionLowering low =
        PlanConjunctionLowering(plan, conj,
                                RuntimeJoinOrder(inputs, shape.ids), shape);

    // The first input is the driving stream.
    {
      const JoinStep& step = low.order[0];
      size_t id = ids[step.input];
      chain = ProfileWrap(
          profile, std::make_unique<ScanIter>(&coll.structures[id]),
          "scan " + plan.structures[id].debug_name,
          step.est_rows > 0.0 ? step.est_rows : -1.0, {}, &chain_node);
    }

    for (size_t k = 1; k < low.order.size(); ++k) {
      StepPlan& sp = low.steps[k];
      size_t right_id = ids[low.order[k].input];
      const std::string& right_name = plan.structures[right_id].debug_name;
      RefIteratorPtr join;
      std::string join_label;
      if (sp.filter) {
        // Covered input: residual predicate, vectorized selection-vector
        // filter against the prebuilt structure (see StepPlan::filter).
        join_label = StrFormat("filter %s", right_name.c_str());
        join = std::make_unique<FilterIter>(std::move(chain),
                                            &coll.structures[right_id],
                                            std::move(sp.left_key), stats);
      } else {
        join_label =
            StrFormat("%s %s", low.semi[k] ? "semi-join" : "probe-join",
                      right_name.c_str());
        join = std::make_unique<ProbeJoinIter>(
            std::move(chain), &coll.structures[right_id],
            std::move(sp.left_key), std::move(sp.right_key),
            std::move(sp.right_extras), low.semi[k], stats);
      }
      double est = low.order[k].est_rows;
      chain = ProfileWrap(profile, std::move(join), std::move(join_label),
                          est > 0.0 ? est : -1.0, {chain_node}, &chain_node);
    }
    cols = std::move(low.steps.back().cols);
  }

  // Extend to the active variables the conjunction does not bind. Purely
  // existential variables never extend: present in some structure, the
  // joins witnessed them; absent everywhere, a non-empty range is the
  // whole existence proof (and an empty one annihilates the conjunct,
  // exactly like the materializing path's product with an empty range).
  for (const QuantifiedVar* active : shape.active) {
    const QuantifiedVar& qv = *active;
    if (IndexOf(cols, qv.var) >= 0) continue;
    if (shape.IsExistential(qv.var)) {
      bool in_structures = false;
      for (size_t id : ids) {
        if (IndexOf(plan.structures[id].columns, qv.var) >= 0) {
          in_structures = true;
          break;
        }
      }
      if (in_structures) continue;  // semi-dropped: already witnessed
      auto it = coll.range_refs.find(qv.var);
      if (it == coll.range_refs.end()) {
        return Status::Internal("no materialised range for '" + qv.var + "'");
      }
      if (it->second.empty()) {
        return ProfileWrap(profile, RefIteratorPtr(new EmptyIter()), "empty",
                           -1.0, {}, root_node);
      }
      continue;
    }
    auto it = coll.range_refs.find(qv.var);
    if (it == coll.range_refs.end()) {
      return Status::Internal("no materialised range for '" + qv.var + "'");
    }
    chain = ProfileWrap(
        profile,
        std::make_unique<ExtendIter>(std::move(chain), &it->second, stats),
        "extend " + qv.var, -1.0, {chain_node}, &chain_node);
    cols.push_back(qv.var);
  }

  // Align onto the needed layout (drops leftover existential columns).
  // Already-aligned chains — the common single-structure conjunction —
  // skip the copy; the sink above dedups either way.
  std::vector<int> positions;
  for (const std::string& name : shape.needed) {
    int pos = IndexOf(cols, name);
    if (pos < 0) {
      return Status::Internal("pipeline: conjunction lacks column '" + name +
                              "'");
    }
    positions.push_back(pos);
  }
  if (cols.size() == shape.needed.size() &&
      std::is_sorted(positions.begin(), positions.end())) {
    *root_node = chain_node;
    return chain;  // identity layout
  }
  return ProfileWrap(
      profile,
      RefIteratorPtr(new ProjectIter(std::move(chain), std::move(positions),
                                     shape.needed,
                                     /*dedup=*/false, stats, tracker)),
      "project", -1.0, {chain_node}, root_node);
}

}  // namespace

Result<CompiledPipeline> CompilePipeline(const QueryPlan& plan,
                                         CollectionBuilders* builders,
                                         ExecStats* stats,
                                         PeakTracker* tracker,
                                         PipelineProfile* profile) {
  const CollectionResult& coll = builders->result();
  PipelineShape shape = AnalyzePipelineShape(plan);
  CompiledPipeline out;
  out.columns = shape.free_names;

  if (plan.sf.matrix.IsFalse()) {
    int node = -1;
    out.root = ProfileWrap(profile, std::make_unique<EmptyIter>(), "empty",
                           -1.0, {}, &node);
    if (profile != nullptr) profile->SetRoot(node);
    return out;
  }
  if (plan.conj_inputs.size() < plan.sf.matrix.disjuncts.size()) {
    return Status::Internal("pipeline: conjunction inputs out of sync");
  }

  std::vector<RefIteratorPtr> disjuncts;
  std::vector<int> disjunct_nodes;
  for (size_t c = 0; c < plan.sf.matrix.disjuncts.size(); ++c) {
    int node = -1;
    PASCALR_ASSIGN_OR_RETURN(
        RefIteratorPtr one,
        CompileConjunction(plan, c, coll, shape, stats, tracker, profile,
                           &node));
    disjuncts.push_back(std::move(one));
    disjunct_nodes.push_back(node);
  }
  int stream_node = disjunct_nodes.front();
  RefIteratorPtr stream;
  if (disjuncts.size() == 1) {
    stream = std::move(disjuncts.front());
  } else {
    stream = ProfileWrap(profile,
                         RefIteratorPtr(new ConcatIter(std::move(disjuncts))),
                         "concat", -1.0, std::move(disjunct_nodes),
                         &stream_node);
  }

  int root_node = -1;
  if (shape.has_division) {
    // Universal quantification is inherently blocking: buffer the needed
    // columns (set semantics) and run the tail right-to-left. The iterator
    // owns copies of the tail quantifiers.
    std::vector<QuantifiedVar> tail;
    tail.reserve(shape.tail.size());
    for (const QuantifiedVar* qv : shape.tail) tail.push_back(qv->Clone());
    out.root = ProfileWrap(
        profile,
        RefIteratorPtr(new QuantifierTailIter(
            std::move(stream), std::move(tail), shape.needed,
            shape.free_names, &coll, stats, tracker)),
        "quantifier-tail", -1.0, {stream_node}, &root_node);
    if (profile != nullptr) profile->SetRoot(root_node);
    return out;
  }

  // No division: `needed` already IS the free layout; a streaming dedup
  // sink makes the row set identical to the materializing path's final
  // projection.
  std::vector<int> identity;
  for (size_t i = 0; i < shape.needed.size(); ++i) {
    identity.push_back(static_cast<int>(i));
  }
  out.root = ProfileWrap(
      profile,
      RefIteratorPtr(new ProjectIter(std::move(stream), std::move(identity),
                                     shape.needed,
                                     /*dedup=*/true, stats, tracker)),
      "dedup-sink", -1.0, {stream_node}, &root_node);
  if (profile != nullptr) profile->SetRoot(root_node);
  return out;
}

}  // namespace pascalr
