#include "opt/scan_plan.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/str_util.h"

namespace pascalr {

namespace {

bool MonadicOver(const JoinTerm& t, const std::string& var) {
  std::vector<std::string> vars = t.Variables();
  return vars.size() == 1 && vars[0] == var;
}

std::string TermsKey(const std::vector<JoinTerm>& terms) {
  std::vector<std::string> parts;
  for (const JoinTerm& t : terms) parts.push_back(t.ToString());
  std::sort(parts.begin(), parts.end());
  return Join(parts, "&");
}

/// Builder state shared by the per-level assembly paths.
class PlanBuilder {
 public:
  PlanBuilder(StandardForm sf, OptLevel level, QuantPushdownResult pushdown,
              const Database& db)
      : db_(db), level_(level), pushdown_(std::move(pushdown)) {
    plan_.sf = std::move(sf);
    plan_.level = level;
    plan_.eliminated_vars = pushdown_.eliminated;
    plan_.value_lists = pushdown_.value_lists;
    for (ValueListSpec& spec : plan_.value_lists) {
      if (spec.debug_name.empty()) spec.debug_name = "vl_" + spec.var;
    }
    plan_.conj_inputs.resize(plan_.sf.matrix.disjuncts.size());
  }

  Result<QueryPlan> Build();

 private:
  const std::string& RelationOf(const std::string& var) const {
    return plan_.sf.vars.at(var).relation_name;
  }
  size_t CardinalityOf(const std::string& relation) const {
    const Relation* rel = db_.FindRelation(relation);
    return rel == nullptr ? 0 : rel->cardinality();
  }

  size_t InternStructure(const std::string& key,
                         std::vector<std::string> columns,
                         const std::string& debug);
  size_t InternIndex(const std::string& var, int component_pos, bool ordered,
                     std::vector<JoinTerm> gates);

  /// Monadic terms over `var` in conjunction c when S2 gating applies.
  std::vector<JoinTerm> GatesFor(size_t c, const std::string& var) const;

  Result<std::vector<std::string>> OrderRelations();
  Status AssembleNaive();
  Status AssembleGrouped();
  void AddDerivedStructures();
  ScanAction* ActionFor(RelationScan* scan, const std::string& var);

  const Database& db_;
  OptLevel level_;
  QuantPushdownResult pushdown_;
  QueryPlan plan_;
  std::map<std::string, size_t> structure_keys_;
  std::map<std::string, size_t> index_keys_;
};

// A structure is interned by the key of everything that decides its rows
// (variables, terms, gates, co-restrictions), and every caller schedules
// an emitter only for a fresh key (`fresh`, `already`, or one derived
// structure per key). So each structure has exactly one emitter, and
// collection may Append its rows without deduplicating them
// (exec/collection.h).
size_t PlanBuilder::InternStructure(const std::string& key,
                                    std::vector<std::string> columns,
                                    const std::string& debug) {
  auto it = structure_keys_.find(key);
  if (it != structure_keys_.end()) return it->second;
  StructureDef def;
  def.id = plan_.structures.size();
  def.columns = std::move(columns);
  def.debug_name = debug;
  structure_keys_[key] = def.id;
  plan_.structures.push_back(std::move(def));
  return plan_.structures.back().id;
}

size_t PlanBuilder::InternIndex(const std::string& var, int component_pos,
                                bool ordered, std::vector<JoinTerm> gates) {
  std::string key = StrFormat("%s#%d#%d#", var.c_str(), component_pos,
                              ordered ? 1 : 0) +
                    TermsKey(gates);
  auto it = index_keys_.find(key);
  if (it != index_keys_.end()) return it->second;
  IndexBuildSpec spec;
  spec.id = plan_.indexes.size();
  spec.var = var;
  spec.component_pos = component_pos;
  spec.ordered = ordered;
  spec.gates = std::move(gates);
  spec.debug_name = StrFormat("ind_%s_%d", var.c_str(), component_pos);
  index_keys_[key] = spec.id;
  plan_.indexes.push_back(std::move(spec));
  return plan_.indexes.back().id;
}

std::vector<JoinTerm> PlanBuilder::GatesFor(size_t c,
                                            const std::string& var) const {
  std::vector<JoinTerm> gates;
  if (level_ < OptLevel::kOneStep) return gates;
  for (const JoinTerm& t : plan_.sf.matrix.disjuncts[c].terms) {
    if (MonadicOver(t, var)) gates.push_back(t);
  }
  return gates;
}

void PlanBuilder::AddDerivedStructures() {
  for (const DerivedPredicate& d : pushdown_.derived) {
    std::string key = StrFormat("derived#%zu#%s#%s#%zu", d.conj,
                                d.vm.c_str(), d.vn.c_str(),
                                d.probe.value_list_id);
    size_t id = InternStructure(key, {d.vm}, "sl_" + d.vm + "_via_" + d.vn);
    plan_.conj_inputs[d.conj].push_back(id);
  }
}

ScanAction* PlanBuilder::ActionFor(RelationScan* scan, const std::string& var) {
  for (ScanAction& a : scan->actions) {
    if (a.var == var) return &a;
  }
  ScanAction a;
  a.var = var;
  scan->actions.push_back(std::move(a));
  return &scan->actions.back();
}

Result<std::vector<std::string>> PlanBuilder::OrderRelations() {
  // Nodes: every relation hosting a prefix variable. Edges: value-list
  // source scans before quantifier-probe scans.
  std::set<std::string> nodes;
  for (const QuantifiedVar& qv : plan_.sf.prefix) {
    nodes.insert(RelationOf(qv.var));
  }
  std::map<std::string, std::set<std::string>> preds;  // node -> prerequisites
  for (const std::string& n : nodes) preds[n];
  auto add_edge = [&](const std::string& before, const std::string& after) {
    if (before != after) preds[after].insert(before);
  };
  for (const DerivedPredicate& d : pushdown_.derived) {
    add_edge(RelationOf(pushdown_.value_lists[d.probe.value_list_id].var),
             RelationOf(d.vm));
  }
  for (const ValueListSpec& vl : pushdown_.value_lists) {
    for (const QuantProbeGate& g : vl.probe_gates) {
      add_edge(RelationOf(pushdown_.value_lists[g.value_list_id].var),
               RelationOf(vl.var));
    }
  }

  // Kahn's algorithm, smallest-cardinality-first tie break: small relations
  // build small indexes early.
  std::vector<std::string> order;
  std::set<std::string> done;
  while (done.size() < nodes.size()) {
    std::string best;
    size_t best_card = 0;
    for (const std::string& n : nodes) {
      if (done.count(n) > 0) continue;
      bool ready = true;
      for (const std::string& p : preds[n]) {
        if (done.count(p) == 0) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      size_t card = CardinalityOf(n);
      if (best.empty() || card < best_card) {
        best = n;
        best_card = card;
      }
    }
    if (best.empty()) {
      return Status::Unsupported(
          "cyclic scan-order constraints between value lists");
    }
    order.push_back(best);
    done.insert(best);
  }
  return order;
}

Status PlanBuilder::AssembleNaive() {
  // One scan (or scan pair) per structure; the range of every variable is
  // collected by its first scan.
  const DnfMatrix& matrix = plan_.sf.matrix;
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    for (const JoinTerm& t : matrix.disjuncts[c].terms) {
      std::vector<std::string> vars = t.Variables();
      if (vars.size() == 1) {
        const std::string& v = vars[0];
        std::string key = "sl#" + v + "#" + t.ToString();
        bool fresh = structure_keys_.count(key) == 0;
        size_t id = InternStructure(key, {v}, "sl_" + v);
        plan_.conj_inputs[c].push_back(id);
        if (!fresh) continue;
        RelationScan scan;
        scan.relation = RelationOf(v);
        scan.debug_label = "single list " + t.ToString();
        SingleListEmit emit;
        emit.structure_id = id;
        emit.gates.push_back(t);
        ScanAction action;
        action.var = v;
        action.single_lists.push_back(std::move(emit));
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
        continue;
      }
      // Dyadic: probe from the lhs variable, index the rhs variable.
      const std::string probe_var = t.lhs.var;
      const std::string build_var = t.rhs.var;
      std::string key = "ij#" + t.ToString();
      bool fresh = structure_keys_.count(key) == 0;
      size_t id = InternStructure(key, {probe_var, build_var},
                                  "ij_" + probe_var + "_" + build_var);
      plan_.conj_inputs[c].push_back(id);
      if (!fresh) continue;
      size_t index_id =
          InternIndex(build_var, t.rhs.component_pos,
                      /*ordered=*/t.op != CompareOp::kEq &&
                          t.op != CompareOp::kNe,
                      /*gates=*/{});
      {
        RelationScan scan;
        scan.relation = RelationOf(build_var);
        scan.debug_label = "index build for " + t.ToString();
        ScanAction action;
        action.var = build_var;
        action.index_builds.push_back(index_id);
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
      }
      IndirectJoinEmit emit;
      emit.structure_id = id;
      emit.index_id = index_id;
      emit.op = t.op;
      emit.probe_component_pos = t.lhs.component_pos;
      emit.probe_column_first = true;
      if (RelationOf(probe_var) == RelationOf(build_var)) {
        PostScanProbe post;
        post.var = probe_var;
        post.emit = std::move(emit);
        plan_.post_probes.push_back(std::move(post));
        // The probe variable's range must still be collected by a scan.
        RelationScan scan;
        scan.relation = RelationOf(probe_var);
        scan.debug_label = "range of " + probe_var;
        ScanAction action;
        action.var = probe_var;
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
      } else {
        RelationScan scan;
        scan.relation = RelationOf(probe_var);
        scan.debug_label = "probe for " + t.ToString();
        ScanAction action;
        action.var = probe_var;
        action.ij_emits.push_back(std::move(emit));
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
      }
    }
  }
  return Status::OK();
}

Status PlanBuilder::AssembleGrouped() {
  PASCALR_ASSIGN_OR_RETURN(std::vector<std::string> order, OrderRelations());
  std::map<std::string, size_t> scan_pos;  // relation -> index into scans
  for (const std::string& rel : order) {
    scan_pos[rel] = plan_.scans.size();
    RelationScan scan;
    scan.relation = rel;
    scan.debug_label = "scan " + rel;
    plan_.scans.push_back(std::move(scan));
  }
  auto scan_rank = [&](const std::string& var) {
    return scan_pos.at(RelationOf(var));
  };

  const DnfMatrix& matrix = plan_.sf.matrix;

  // Single lists: per (conjunction, var) with only monadic terms under S2;
  // per term below S2.
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    const Conjunction& conj = matrix.disjuncts[c];
    std::set<std::string> vars_done;
    for (const JoinTerm& t : conj.terms) {
      std::vector<std::string> tvars = t.Variables();
      if (tvars.size() != 1) continue;
      const std::string& v = tvars[0];
      bool has_dyadic = false;
      for (const JoinTerm& u : conj.terms) {
        if (u.Variables().size() == 2 && u.References(v)) {
          has_dyadic = true;
          break;
        }
      }
      if (level_ >= OptLevel::kOneStep) {
        if (has_dyadic) continue;  // absorbed into the indirect joins
        if (vars_done.count(v) > 0) continue;
        vars_done.insert(v);
        std::vector<JoinTerm> gates = GatesFor(c, v);
        std::string key = "sl#" + v + "#" + TermsKey(gates);
        size_t id = InternStructure(key, {v}, "sl_" + v);
        plan_.conj_inputs[c].push_back(id);
        SingleListEmit emit;
        emit.structure_id = id;
        emit.gates = std::move(gates);
        ScanAction* action =
            ActionFor(&plan_.scans[scan_rank(v)], v);
        bool already = false;
        for (const SingleListEmit& e : action->single_lists) {
          already = already || e.structure_id == id;
        }
        if (!already) action->single_lists.push_back(std::move(emit));
      } else {
        // S1 only: one single list per distinct monadic term.
        std::string key = "sl#" + v + "#" + t.ToString();
        bool fresh = structure_keys_.count(key) == 0;
        size_t id = InternStructure(key, {v}, "sl_" + v);
        plan_.conj_inputs[c].push_back(id);
        if (!fresh) continue;
        SingleListEmit emit;
        emit.structure_id = id;
        emit.gates.push_back(t);
        ActionFor(&plan_.scans[scan_rank(v)], v)
            ->single_lists.push_back(std::move(emit));
      }
    }
  }

  // Indirect joins.
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    const Conjunction& conj = matrix.disjuncts[c];
    for (const JoinTerm& raw : conj.terms) {
      if (raw.Variables().size() != 2) continue;
      // Probe from the variable whose relation scans later.
      JoinTerm t = raw;
      if (scan_rank(t.lhs.var) < scan_rank(t.rhs.var)) t = raw.Mirrored();
      const std::string& probe_var = t.lhs.var;
      const std::string& build_var = t.rhs.var;
      bool self = RelationOf(probe_var) == RelationOf(build_var);

      std::vector<JoinTerm> probe_gates = GatesFor(c, probe_var);
      std::vector<JoinTerm> build_gates = GatesFor(c, build_var);
      size_t index_id =
          InternIndex(build_var, t.rhs.component_pos,
                      /*ordered=*/t.op != CompareOp::kEq &&
                          t.op != CompareOp::kNe,
                      build_gates);

      // Mutual restriction (S2): other dyadic terms over probe_var in this
      // conjunction whose far side is already indexed at probe time.
      std::vector<ProbeCheck> checks;
      if (level_ >= OptLevel::kOneStep) {
        for (const JoinTerm& other_raw : conj.terms) {
          if (other_raw == raw || other_raw.Variables().size() != 2 ||
              !other_raw.References(probe_var)) {
            continue;
          }
          JoinTerm o = other_raw;
          if (o.lhs.var != probe_var) o = other_raw.Mirrored();
          const std::string& far = o.rhs.var;
          if (scan_rank(far) >= scan_rank(probe_var) ||
              RelationOf(far) == RelationOf(probe_var)) {
            continue;  // far index not available during this scan
          }
          ProbeCheck check;
          check.index_id = InternIndex(far, o.rhs.component_pos,
                                       /*ordered=*/o.op != CompareOp::kEq &&
                                           o.op != CompareOp::kNe,
                                       GatesFor(c, far));
          check.op = o.op;
          check.probe_component_pos = o.lhs.component_pos;
          checks.push_back(check);
        }
      }

      std::string key = "ij#" + t.ToString() + "#" + TermsKey(probe_gates) +
                        "#" + TermsKey(build_gates);
      for (const ProbeCheck& ck : checks) {
        key += StrFormat("#ck%zu_%d_%d", ck.index_id, static_cast<int>(ck.op),
                         ck.probe_component_pos);
      }
      bool fresh = structure_keys_.count(key) == 0;
      size_t id = InternStructure(key, {probe_var, build_var},
                                  "ij_" + probe_var + "_" + build_var);
      plan_.conj_inputs[c].push_back(id);
      if (!fresh) continue;

      // Schedule the index build in the build variable's scan.
      ScanAction* build_action =
          ActionFor(&plan_.scans[scan_rank(build_var)], build_var);
      bool have_index = false;
      for (size_t existing : build_action->index_builds) {
        have_index = have_index || existing == index_id;
      }
      if (!have_index) build_action->index_builds.push_back(index_id);
      for (const ProbeCheck& ck : checks) {
        // Co-probe indexes were interned for other terms; ensure they are
        // scheduled too (they normally already are).
        const IndexBuildSpec& spec = plan_.indexes[ck.index_id];
        ScanAction* far_action =
            ActionFor(&plan_.scans[scan_rank(spec.var)], spec.var);
        bool have = false;
        for (size_t existing : far_action->index_builds) {
          have = have || existing == ck.index_id;
        }
        if (!have) far_action->index_builds.push_back(ck.index_id);
      }

      IndirectJoinEmit emit;
      emit.structure_id = id;
      emit.index_id = index_id;
      emit.op = t.op;
      emit.probe_component_pos = t.lhs.component_pos;
      emit.probe_column_first = true;
      emit.gates = probe_gates;
      emit.corestrictions = std::move(checks);
      if (self) {
        PostScanProbe post;
        post.var = probe_var;
        post.emit = std::move(emit);
        plan_.post_probes.push_back(std::move(post));
        ActionFor(&plan_.scans[scan_rank(probe_var)], probe_var);
      } else {
        ActionFor(&plan_.scans[scan_rank(probe_var)], probe_var)
            ->ij_emits.push_back(std::move(emit));
      }
    }
  }

  // Value lists and quantifier probes (strategy 4).
  for (const ValueListSpec& vl : plan_.value_lists) {
    ActionFor(&plan_.scans[scan_rank(vl.var)], vl.var)
        ->value_list_builds.push_back(vl.id);
  }
  for (const DerivedPredicate& d : pushdown_.derived) {
    std::string key = StrFormat("derived#%zu#%s#%s#%zu", d.conj, d.vm.c_str(),
                                d.vn.c_str(), d.probe.value_list_id);
    size_t id = structure_keys_.at(key);  // interned by AddDerivedStructures
    QuantProbeEmit emit;
    emit.structure_id = id;
    emit.probe = d.probe;
    ActionFor(&plan_.scans[scan_rank(d.vm)], d.vm)
        ->quant_probes.push_back(std::move(emit));
  }

  // Every prefix variable needs a range-collecting action.
  for (const QuantifiedVar& qv : plan_.sf.prefix) {
    ActionFor(&plan_.scans[scan_pos.at(RelationOf(qv.var))], qv.var);
  }
  return Status::OK();
}

Result<QueryPlan> PlanBuilder::Build() {
  AddDerivedStructures();
  if (level_ == OptLevel::kNaive) {
    PASCALR_RETURN_IF_ERROR(AssembleNaive());
    // Naive mode still needs every variable's range: append range scans
    // for variables no structure scan covered.
    std::set<std::string> covered;
    for (const RelationScan& scan : plan_.scans) {
      for (const ScanAction& a : scan.actions) covered.insert(a.var);
    }
    for (const QuantifiedVar& qv : plan_.sf.prefix) {
      if (plan_.IsEliminated(qv.var) || covered.count(qv.var) > 0) continue;
      RelationScan scan;
      scan.relation = RelationOf(qv.var);
      scan.debug_label = "range of " + qv.var;
      ScanAction action;
      action.var = qv.var;
      scan.actions.push_back(std::move(action));
      plan_.scans.push_back(std::move(scan));
    }
  } else {
    PASCALR_RETURN_IF_ERROR(AssembleGrouped());
  }
  return std::move(plan_);
}

}  // namespace

Result<QueryPlan> BuildScanPlan(StandardForm sf, OptLevel level,
                                QuantPushdownResult pushdown,
                                const Database& db) {
  PlanBuilder builder(std::move(sf), level, std::move(pushdown), db);
  return builder.Build();
}

}  // namespace pascalr
