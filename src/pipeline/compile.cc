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

/// Left-deep chain over the inputs in declaration order — the lazy
/// fallback when no optimizer tree is attached: actual structure sizes
/// are unknown by design (nothing is built yet), so there is no signal
/// for the greedy smallest-first order to rank on.
JoinTree LeftDeepChain(size_t num_inputs) {
  JoinTree tree;
  tree.source = JoinOrderSource::kGreedy;
  JoinTreeNode leaf;
  leaf.leaf = true;
  leaf.input = 0;
  tree.nodes.push_back(leaf);
  int root = 0;
  for (size_t i = 1; i < num_inputs; ++i) {
    JoinTreeNode next_leaf;
    next_leaf.leaf = true;
    next_leaf.input = i;
    tree.nodes.push_back(next_leaf);
    JoinTreeNode join;
    join.left = root;
    join.right = static_cast<int>(tree.nodes.size()) - 1;
    tree.nodes.push_back(join);
    root = static_cast<int>(tree.nodes.size()) - 1;
  }
  return tree;
}

/// The lazy policy's join-tree choice: the optimizer's attached tree,
/// trusted as planned (re-validating against actual structure sizes
/// would force the very builds laziness defers), else a left-deep chain.
JoinTree LazyJoinTree(const QueryPlan& plan, size_t conj, size_t num_inputs) {
  if (conj < plan.join_trees.size() &&
      plan.join_trees[conj].Matches(num_inputs)) {
    return plan.join_trees[conj];
  }
  return LeftDeepChain(num_inputs);
}

/// One tree node's lowering decisions (keys, output columns, keyed-probe
/// position). Leaves carry only `cols`.
struct NodePlan {
  std::vector<int> left_key;
  std::vector<int> right_key;
  std::vector<int> right_extras;
  std::vector<std::string> cols;  ///< the node's output column layout
  /// Right-leaf joins only: the left column whose ref keys the lazy
  /// per-join-key population of the right structure, or -1 when keyed
  /// population does not apply (capability column not in the probe key).
  int keyed_probe_pos = -1;
  /// Covered right leaf under eager collection: every right column is
  /// already bound upstream (right_extras empty), so the "join" is a
  /// residual predicate — lowered to FilterIter membership probes
  /// instead of a probe-join (same rows in the same order: covered
  /// leaves are always semi-eligible, one emission per surviving row).
  bool filter = false;
};

/// Everything the lowering of one conjunction decides, computed in ONE
/// walk shared by the iterator compiler, EXPLAIN, and the cost model —
/// the single source of truth that keeps printed/priced build modes
/// equal to executed ones.
struct ConjunctionLowering {
  JoinTree tree;
  std::vector<bool> semi;
  std::vector<NodePlan> nodes;           ///< indexed like tree.nodes
  std::vector<LazyLeafMode> leaf_modes;  ///< indexed like conj_inputs[conj]
};

ConjunctionLowering PlanConjunctionLowering(const QueryPlan& plan,
                                            size_t conj, JoinTree tree,
                                            const PipelineShape& shape) {
  const std::vector<size_t>& ids = plan.conj_inputs[conj];
  ConjunctionLowering low;
  low.tree = std::move(tree);
  low.leaf_modes.assign(ids.size(), LazyLeafMode::kDeferred);
  std::vector<std::vector<std::string>> input_cols;
  for (size_t id : ids) input_cols.push_back(plan.structures[id].columns);
  low.semi = SemiJoinEligible(low.tree, input_cols, shape);
  low.nodes.resize(low.tree.nodes.size());

  auto scan_mode = [&](size_t input) {
    return StructureKeyedColumn(plan, ids[input]) >= 0
               ? LazyLeafMode::kStreamed
               : LazyLeafMode::kDeferred;
  };
  for (size_t i = 0; i < low.tree.nodes.size(); ++i) {
    const JoinTreeNode& node = low.tree.nodes[i];
    NodePlan& np = low.nodes[i];
    if (node.leaf) {
      np.cols = input_cols[node.input];
      continue;
    }
    const JoinTreeNode& lnode = low.tree.nodes[static_cast<size_t>(node.left)];
    const JoinTreeNode& rnode =
        low.tree.nodes[static_cast<size_t>(node.right)];
    const NodePlan& left = low.nodes[static_cast<size_t>(node.left)];
    const NodePlan& right = low.nodes[static_cast<size_t>(node.right)];
    std::vector<std::string> extra_names;
    for (size_t r = 0; r < right.cols.size(); ++r) {
      int pos = IndexOf(left.cols, right.cols[r]);
      if (pos >= 0) {
        np.left_key.push_back(pos);
        np.right_key.push_back(static_cast<int>(r));
      } else {
        np.right_extras.push_back(static_cast<int>(r));
        extra_names.push_back(right.cols[r]);
      }
    }
    if (lnode.leaf) {
      // Consumed as this join's driving stream.
      low.leaf_modes[lnode.input] = scan_mode(lnode.input);
    }
    if (rnode.leaf) {
      int keyed_col = StructureKeyedColumn(plan, ids[rnode.input]);
      for (size_t k = 0; k < np.right_key.size(); ++k) {
        if (np.right_key[k] == keyed_col) {
          np.keyed_probe_pos = np.left_key[k];
          break;
        }
      }
      low.leaf_modes[rnode.input] = np.keyed_probe_pos >= 0
                                        ? LazyLeafMode::kKeyed
                                        : LazyLeafMode::kDeferred;
      // Residual-predicate lowering: a covered leaf (no new columns)
      // under eager collection runs as a membership filter over the
      // prebuilt structure — no hash table, no match chains. Lazy keeps
      // the probe-join so keyed/deferred demand-builds stay in play.
      if (!np.left_key.empty() && np.right_extras.empty() &&
          plan.collection != CollectionPolicy::kLazy) {
        np.filter = true;
      }
    }
    np.cols = left.cols;
    if (!low.semi[i]) {
      np.cols.insert(np.cols.end(), extra_names.begin(), extra_names.end());
    }
  }
  if (low.tree.nodes.back().leaf) {
    // Single-input conjunction: the structure is scanned directly.
    low.leaf_modes[low.tree.nodes.back().input] =
        scan_mode(low.tree.nodes.back().input);
  }
  return low;
}

/// Lowers one conjunction's join tree + extension + projection-to-needed
/// into an iterator chain emitting rows in `shape.needed` layout.
/// `*root_node` receives the chain root's profile node id (-1 unprofiled).
Result<RefIteratorPtr> CompileConjunction(const QueryPlan& plan, size_t conj,
                                          CollectionBuilders* builders,
                                          const PipelineShape& shape,
                                          ExecStats* stats,
                                          PeakTracker* tracker,
                                          PipelineProfile* profile,
                                          int* root_node) {
  const bool lazy = plan.collection == CollectionPolicy::kLazy;
  const CollectionResult& coll = builders->result();
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
    JoinTree tree;
    if (lazy) {
      tree = LazyJoinTree(plan, conj, ids.size());
    } else {
      std::vector<const RefRelation*> inputs;
      for (size_t id : ids) inputs.push_back(&coll.structures[id]);
      tree = RuntimeJoinOrder(plan, conj, inputs);
    }
    if (!tree.Matches(ids.size())) {
      return Status::Internal("pipeline: malformed runtime join tree");
    }
    ConjunctionLowering low =
        PlanConjunctionLowering(plan, conj, std::move(tree), shape);

    std::vector<RefIteratorPtr> node_iters(low.tree.nodes.size());
    std::vector<int> node_profs(low.tree.nodes.size(), -1);
    // A leaf as a stream: lazy leaves stream straight off the base
    // relation when the lowering says so (collection mode (c) — the
    // structure is never materialised) and defer a full build to the
    // first Next otherwise.
    auto leaf_stream = [&](size_t node_idx) -> RefIteratorPtr {
      size_t input = low.tree.nodes[node_idx].input;
      size_t id = ids[input];
      double est = low.tree.nodes[node_idx].est_rows > 0.0
                       ? low.tree.nodes[node_idx].est_rows
                       : -1.0;
      const std::string& name = plan.structures[id].debug_name;
      RefIteratorPtr leaf;
      const char* kind = "scan";
      if (lazy && !builders->structure_built(id)) {
        if (low.leaf_modes[input] == LazyLeafMode::kStreamed) {
          leaf = std::make_unique<BaseScanIter>(builders, id);
          kind = "base-scan";
        } else {
          leaf = std::make_unique<ScanIter>(builders, id);
        }
      } else {
        leaf = std::make_unique<ScanIter>(&coll.structures[id]);
      }
      return ProfileWrap(profile, std::move(leaf),
                         StrFormat("%s %s", kind, name.c_str()), est, {},
                         &node_profs[node_idx]);
    };
    auto as_iterator = [&](int node_idx) -> RefIteratorPtr {
      size_t idx = static_cast<size_t>(node_idx);
      if (low.tree.nodes[idx].leaf) return leaf_stream(idx);
      return std::move(node_iters[idx]);
    };

    for (size_t i = 0; i < low.tree.nodes.size(); ++i) {
      const JoinTreeNode& node = low.tree.nodes[i];
      if (node.leaf) continue;
      NodePlan& np = low.nodes[i];
      RefIteratorPtr left_iter = as_iterator(node.left);
      int left_prof = node_profs[static_cast<size_t>(node.left)];
      double est = node.est_rows > 0.0 ? node.est_rows : -1.0;
      const char* join_kind = low.semi[i] ? "semi-join" : "probe-join";
      const JoinTreeNode& rnode =
          low.tree.nodes[static_cast<size_t>(node.right)];
      RefIteratorPtr join;
      std::string join_label;
      std::vector<int> join_children = {left_prof};
      if (rnode.leaf && np.filter) {
        // Covered leaf: residual predicate, vectorized selection-vector
        // filter against the prebuilt structure (see NodePlan::filter).
        size_t right_id = ids[rnode.input];
        join_label = StrFormat("filter %s",
                               plan.structures[right_id].debug_name.c_str());
        join = std::make_unique<FilterIter>(std::move(left_iter),
                                            &coll.structures[right_id],
                                            std::move(np.left_key), stats);
      } else if (rnode.leaf) {
        size_t right_id = ids[rnode.input];
        join_label = StrFormat("%s %s", join_kind,
                               plan.structures[right_id].debug_name.c_str());
        if (lazy && !builders->structure_built(right_id)) {
          join = std::make_unique<ProbeJoinIter>(
              std::move(left_iter), builders, right_id,
              std::move(np.left_key), std::move(np.right_key),
              std::move(np.right_extras), low.semi[i], stats,
              np.keyed_probe_pos);
        } else {
          join = std::make_unique<ProbeJoinIter>(
              std::move(left_iter), &coll.structures[right_id],
              std::move(np.left_key), std::move(np.right_key),
              std::move(np.right_extras), low.semi[i], stats);
        }
      } else {
        // Bushy right subtree: blocking build, drained at first Next.
        join_label = StrFormat("%s (bushy build)", join_kind);
        join_children.push_back(node_profs[static_cast<size_t>(node.right)]);
        join = std::make_unique<ProbeJoinIter>(
            std::move(left_iter),
            std::move(node_iters[static_cast<size_t>(node.right)]),
            low.nodes[static_cast<size_t>(node.right)].cols,
            std::move(np.left_key), std::move(np.right_key),
            std::move(np.right_extras), low.semi[i], stats, tracker);
      }
      node_iters[i] = ProfileWrap(profile, std::move(join),
                                  std::move(join_label), est,
                                  std::move(join_children), &node_profs[i]);
    }
    chain = as_iterator(static_cast<int>(low.tree.nodes.size()) - 1);
    chain_node = node_profs.back();
    cols = std::move(low.nodes.back().cols);
  }

  // Extend to the active variables the conjunction does not bind. Purely
  // existential variables never extend: present in some structure, the
  // joins witnessed them; absent everywhere, a non-empty range is the
  // whole existence proof (and an empty one annihilates the conjunct,
  // exactly like the materializing path's product with an empty range).
  for (const QuantifiedVar& qv : shape.active) {
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
      if (lazy) {
        // The emptiness check must not force the range at compile time;
        // the guard materialises it at the first pull instead.
        chain = ProfileWrap(
            profile,
            std::make_unique<RangeGuardIter>(std::move(chain), builders,
                                             qv.var),
            "range-guard " + qv.var, -1.0, {chain_node}, &chain_node);
        continue;
      }
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
    RefIteratorPtr extended;
    if (lazy) {
      extended = std::make_unique<ExtendIter>(std::move(chain), builders,
                                              qv.var, stats);
    } else {
      auto it = coll.range_refs.find(qv.var);
      if (it == coll.range_refs.end()) {
        return Status::Internal("no materialised range for '" + qv.var + "'");
      }
      extended =
          std::make_unique<ExtendIter>(std::move(chain), &it->second, stats);
    }
    chain = ProfileWrap(profile, std::move(extended), "extend " + qv.var,
                        -1.0, {chain_node}, &chain_node);
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

std::vector<LazyLeafMode> LazyConjunctionLeafModes(
    const QueryPlan& plan, size_t conj, const PipelineShape& shape) {
  const size_t n = plan.conj_inputs[conj].size();
  if (n == 0) return {};
  JoinTree tree = LazyJoinTree(plan, conj, n);
  if (!tree.Matches(n)) {
    return std::vector<LazyLeafMode>(n, LazyLeafMode::kDeferred);
  }
  return PlanConjunctionLowering(plan, conj, std::move(tree), shape)
      .leaf_modes;
}

Result<CompiledPipeline> CompilePipeline(const QueryPlan& plan,
                                         CollectionBuilders* builders,
                                         ExecStats* stats,
                                         PeakTracker* tracker,
                                         PipelineProfile* profile) {
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
        RefIteratorPtr one, CompileConjunction(plan, c, builders, shape,
                                               stats, tracker, profile,
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
    // columns (set semantics) and run the tail right-to-left.
    out.root = ProfileWrap(
        profile,
        RefIteratorPtr(new QuantifierTailIter(
            std::move(stream), std::move(shape.tail), shape.needed,
            shape.free_names, builders, plan.division, stats, tracker)),
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
