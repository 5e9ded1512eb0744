#include "opt/scan_plan.h"

#include <algorithm>
#include <initializer_list>

#include "base/str_util.h"

namespace pascalr {

PlanIds::PlanIds(const StandardForm& sf, const Database& db) : vars_(sf.vars) {
  for (const auto& [var, binding] : sf.vars) {
    relation_names_.push_back(binding.relation_name);
  }
  std::sort(relation_names_.begin(), relation_names_.end());
  relation_names_.erase(
      std::unique(relation_names_.begin(), relation_names_.end()),
      relation_names_.end());
  for (const auto& [var, binding] : sf.vars) {
    relation_of_.push_back(static_cast<size_t>(
        std::lower_bound(relation_names_.begin(), relation_names_.end(),
                         binding.relation_name) -
        relation_names_.begin()));
  }
  for (const std::string& name : relation_names_) {
    const Relation* rel = db.FindRelation(name);
    cardinality_.push_back(rel == nullptr ? 0 : rel->cardinality());
  }
}

MatrixTermIds PlanIds::Intern(const DnfMatrix& matrix) {
  MatrixTermIds out(matrix.disjuncts.size());
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    out[c].reserve(matrix.disjuncts[c].terms.size());
    for (const JoinTerm& t : matrix.disjuncts[c].terms) {
      out[c].push_back(InternTerm(t));
    }
  }
  return out;
}

TermId PlanIds::InternTerm(const JoinTerm& t) {
  auto [it, inserted] =
      by_text_.try_emplace(t.ToString(), static_cast<TermId>(terms_.size()));
  const TermId id = it->second;
  if (!inserted) return id;
  TermFacts facts;
  if (t.lhs.is_component()) facts.a = vars_.Of(t.lhs.var);
  if (t.rhs.is_component()) {
    const VarId rhs = vars_.Of(t.rhs.var);
    if (facts.a == kNoVar) {
      facts.a = rhs;
    } else if (rhs != facts.a) {
      facts.b = rhs;
    }
  }
  terms_.push_back(facts);
  texts_.push_back(&it->first);
  if (facts.dyadic()) {
    const TermId mirror = InternTerm(t.Mirrored());
    terms_[id].mirror = mirror;
    terms_[mirror].mirror = id;
  }
  return id;
}

namespace {

/// Interning key: a KeyKind tag, or an index's variable, followed by ids.
using Key = std::vector<uint32_t>;

enum KeyKind : uint32_t {
  kSingleListTerm,   ///< one monadic term (below S2)
  kSingleListGates,  ///< a variable's S2 gates
  kNaiveJoin,        ///< one dyadic term, unoriented (O0)
  kJoin,             ///< an oriented dyadic term with gates and checks
  kDerived,          ///< a strategy-4 derived single list
};

bool OrderedOp(CompareOp op) {
  return op != CompareOp::kEq && op != CompareOp::kNe;
}

/// Builder state shared by the per-level assembly paths. Positions of
/// terms within a conjunction stand for the terms themselves until a plan
/// entry stores them.
class PlanBuilder {
 public:
  PlanBuilder(const StandardForm& sf, OptLevel level,
              QuantPushdownResult pushdown, const PlanIds& ids,
              const MatrixTermIds& terms)
      : sf_(sf),
        ids_(ids),
        terms_(terms),
        level_(level),
        pushdown_(std::move(pushdown)) {
    plan_.level = level;
    plan_.eliminated_vars = pushdown_.eliminated;
    plan_.value_lists = pushdown_.value_lists;
    for (ValueListSpec& spec : plan_.value_lists) {
      if (spec.debug_name.empty()) spec.debug_name = "vl_" + spec.var;
    }
    plan_.conj_inputs.resize(sf_.matrix.disjuncts.size());
    if (level_ >= OptLevel::kOneStep) {
      gates_.resize(terms_.size());
      for (size_t c = 0; c < terms_.size(); ++c) {
        gates_[c].resize(ids_.vars().size());
        for (uint32_t i = 0; i < terms_[c].size(); ++i) {
          const TermFacts& f = ids_.term(terms_[c][i]);
          if (f.monadic()) gates_[c][f.a].push_back(i);
        }
      }
    }
  }

  /// The plan, without its standard form (the caller moves it in).
  Result<QueryPlan> Build();

 private:
  VarId Var(const std::string& name) const { return ids_.vars().Of(name); }
  const std::string& Name(VarId v) const { return ids_.vars().Name(v); }
  size_t RankOf(VarId v) const { return ids_.RelationOf(v); }
  const std::string& RelationOf(VarId v) const {
    return ids_.RelationName(RankOf(v));
  }
  const JoinTerm& TermAt(size_t c, uint32_t pos) const {
    return sf_.matrix.disjuncts[c].terms[pos];
  }

  /// The structure interned under `key`; a fresh key appends a structure
  /// over `columns` named `debug()`.
  template <typename DebugName>
  size_t InternStructure(const Key& key, std::initializer_list<VarId> columns,
                         const DebugName& debug, bool* fresh);
  size_t InternIndex(VarId var, int component_pos, bool ordered, size_t c,
                     const std::vector<uint32_t>& gates);

  /// Positions in conjunction c of the monadic terms over `var`, when S2
  /// gating applies.
  const std::vector<uint32_t>& GatesFor(size_t c, VarId var) const {
    static const std::vector<uint32_t> kNone;
    return gates_.empty() ? kNone : gates_[c][var];
  }
  /// Appends the count and the sorted term ids of `positions` to `key`.
  void AppendTermSet(size_t c, const std::vector<uint32_t>& positions,
                     Key* key) const;
  std::vector<JoinTerm> CopyTerms(size_t c,
                                  const std::vector<uint32_t>& positions) const;

  Result<std::vector<size_t>> OrderRelations();
  Status AssembleNaive();
  Status AssembleGrouped();
  void AddDerivedStructures();
  ScanAction* ActionFor(RelationScan* scan, VarId var);

  const StandardForm& sf_;
  const PlanIds& ids_;
  const MatrixTermIds& terms_;
  OptLevel level_;
  QuantPushdownResult pushdown_;
  QueryPlan plan_;
  std::vector<std::pair<Key, size_t>> structure_keys_;
  std::vector<std::pair<Key, size_t>> index_keys_;
  std::vector<VarId> index_vars_;    ///< by index id
  std::vector<size_t> derived_ids_;  ///< by pushdown_.derived position
  std::vector<size_t> scan_of_rank_;  ///< grouped: relation rank -> scan
  /// S2 and up: [c][v] the positions of conjunction c's monadic terms
  /// over v.
  std::vector<std::vector<std::vector<uint32_t>>> gates_;
  Key index_key_;  ///< InternIndex's scratch key
};

// A structure is interned by the key of everything that decides its rows
// (variables, terms, gates, co-restrictions), and every caller schedules
// an emitter only for a fresh key (`fresh`, `already`, or one derived
// structure per key). So each structure has exactly one emitter, and
// collection may Append its rows without deduplicating them
// (exec/collection.h).
template <typename DebugName>
size_t PlanBuilder::InternStructure(const Key& key,
                                    std::initializer_list<VarId> columns,
                                    const DebugName& debug, bool* fresh) {
  for (const auto& [k, id] : structure_keys_) {
    if (k == key) {
      *fresh = false;
      return id;
    }
  }
  *fresh = true;
  StructureDef def;
  def.id = plan_.structures.size();
  for (VarId v : columns) def.columns.push_back(Name(v));
  def.debug_name = debug();
  structure_keys_.emplace_back(key, def.id);
  plan_.structures.push_back(std::move(def));
  return plan_.structures.back().id;
}

size_t PlanBuilder::InternIndex(VarId var, int component_pos, bool ordered,
                                size_t c, const std::vector<uint32_t>& gates) {
  Key& key = index_key_;
  key.assign({var, static_cast<uint32_t>(component_pos), ordered ? 1u : 0u});
  AppendTermSet(c, gates, &key);
  for (const auto& [k, id] : index_keys_) {
    if (k == key) return id;
  }
  IndexBuildSpec spec;
  spec.id = plan_.indexes.size();
  spec.var = Name(var);
  spec.component_pos = component_pos;
  spec.ordered = ordered;
  spec.gates = CopyTerms(c, gates);
  spec.debug_name = StrFormat("ind_%s_%d", spec.var.c_str(), component_pos);
  index_keys_.emplace_back(key, spec.id);
  index_vars_.push_back(var);
  plan_.indexes.push_back(std::move(spec));
  return plan_.indexes.back().id;
}

void PlanBuilder::AppendTermSet(size_t c,
                                const std::vector<uint32_t>& positions,
                                Key* key) const {
  key->push_back(static_cast<uint32_t>(positions.size()));
  const size_t start = key->size();
  for (uint32_t pos : positions) key->push_back(terms_[c][pos]);
  std::sort(key->begin() + static_cast<long>(start), key->end());
}

std::vector<JoinTerm> PlanBuilder::CopyTerms(
    size_t c, const std::vector<uint32_t>& positions) const {
  std::vector<JoinTerm> out;
  out.reserve(positions.size());
  for (uint32_t pos : positions) out.push_back(TermAt(c, pos));
  return out;
}

void PlanBuilder::AddDerivedStructures() {
  for (const DerivedPredicate& d : pushdown_.derived) {
    const VarId vm = Var(d.vm);
    Key key = {kDerived, static_cast<uint32_t>(d.conj), vm, Var(d.vn),
               static_cast<uint32_t>(d.probe.value_list_id)};
    bool fresh = false;
    size_t id = InternStructure(
        key, {vm}, [&] { return "sl_" + d.vm + "_via_" + d.vn; }, &fresh);
    plan_.conj_inputs[d.conj].push_back(id);
    derived_ids_.push_back(id);
  }
}

ScanAction* PlanBuilder::ActionFor(RelationScan* scan, VarId var) {
  const std::string& name = Name(var);
  for (ScanAction& a : scan->actions) {
    if (a.var == name) return &a;
  }
  ScanAction a;
  a.var = name;
  scan->actions.push_back(std::move(a));
  return &scan->actions.back();
}

Result<std::vector<size_t>> PlanBuilder::OrderRelations() {
  // Nodes: every relation hosting a prefix variable, by rank (name order).
  // Edges: value-list source scans before quantifier-probe scans.
  const size_t n = ids_.num_relations();
  std::vector<bool> node(n, false);
  size_t num_nodes = 0;
  for (const QuantifiedVar& qv : sf_.prefix) {
    const size_t r = RankOf(Var(qv.var));
    if (!node[r]) ++num_nodes;
    node[r] = true;
  }
  std::vector<bool> before(n * n, false);  // [after * n + before]
  auto add_edge = [&](const std::string& from_var, const std::string& to_var) {
    const size_t from = RankOf(Var(from_var));
    const size_t to = RankOf(Var(to_var));
    if (from != to) before[to * n + from] = true;
  };
  for (const DerivedPredicate& d : pushdown_.derived) {
    add_edge(pushdown_.value_lists[d.probe.value_list_id].var, d.vm);
  }
  for (const ValueListSpec& vl : pushdown_.value_lists) {
    for (const QuantProbeGate& g : vl.probe_gates) {
      add_edge(pushdown_.value_lists[g.value_list_id].var, vl.var);
    }
  }

  // Kahn's algorithm, smallest-cardinality-first tie break: small relations
  // build small indexes early.
  std::vector<size_t> order;
  std::vector<bool> done(n, false);
  while (order.size() < num_nodes) {
    size_t best = n;
    for (size_t r = 0; r < n; ++r) {
      if (!node[r] || done[r]) continue;
      bool ready = true;
      for (size_t p = 0; p < n && ready; ++p) {
        ready = !before[r * n + p] || done[p];
      }
      if (!ready) continue;
      if (best == n || ids_.Cardinality(r) < ids_.Cardinality(best)) best = r;
    }
    if (best == n) {
      return Status::Unsupported(
          "cyclic scan-order constraints between value lists");
    }
    order.push_back(best);
    done[best] = true;
  }
  return order;
}

Status PlanBuilder::AssembleNaive() {
  // One scan (or scan pair) per structure; the range of every variable is
  // collected by its first scan.
  const DnfMatrix& matrix = sf_.matrix;
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    for (size_t i = 0; i < matrix.disjuncts[c].terms.size(); ++i) {
      const JoinTerm& t = matrix.disjuncts[c].terms[i];
      const TermId term = terms_[c][i];
      const TermFacts& f = ids_.term(term);
      bool fresh = false;
      if (f.monadic()) {
        const VarId v = f.a;
        size_t id = InternStructure(
            {kSingleListTerm, term}, {v}, [&] { return "sl_" + Name(v); },
            &fresh);
        plan_.conj_inputs[c].push_back(id);
        if (!fresh) continue;
        RelationScan scan;
        scan.relation = RelationOf(v);
        scan.debug_label = "single list " + ids_.Text(term);
        SingleListEmit emit;
        emit.structure_id = id;
        emit.gates.push_back(t);
        ScanAction action;
        action.var = Name(v);
        action.single_lists.push_back(std::move(emit));
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
        continue;
      }
      // Dyadic: probe from the lhs variable, index the rhs variable.
      const VarId probe_var = f.a;
      const VarId build_var = f.b;
      size_t id = InternStructure(
          {kNaiveJoin, term}, {probe_var, build_var},
          [&] { return "ij_" + Name(probe_var) + "_" + Name(build_var); },
          &fresh);
      plan_.conj_inputs[c].push_back(id);
      if (!fresh) continue;
      size_t index_id = InternIndex(build_var, t.rhs.component_pos,
                                    OrderedOp(t.op), c, /*gates=*/{});
      {
        RelationScan scan;
        scan.relation = RelationOf(build_var);
        scan.debug_label = "index build for " + ids_.Text(term);
        ScanAction action;
        action.var = Name(build_var);
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
      if (RankOf(probe_var) == RankOf(build_var)) {
        PostScanProbe post;
        post.var = Name(probe_var);
        post.emit = std::move(emit);
        plan_.post_probes.push_back(std::move(post));
        // The probe variable's range must still be collected by a scan.
        RelationScan scan;
        scan.relation = RelationOf(probe_var);
        scan.debug_label = "range of " + Name(probe_var);
        ScanAction action;
        action.var = Name(probe_var);
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
      } else {
        RelationScan scan;
        scan.relation = RelationOf(probe_var);
        scan.debug_label = "probe for " + ids_.Text(term);
        ScanAction action;
        action.var = Name(probe_var);
        action.ij_emits.push_back(std::move(emit));
        scan.actions.push_back(std::move(action));
        plan_.scans.push_back(std::move(scan));
      }
    }
  }
  return Status::OK();
}

Status PlanBuilder::AssembleGrouped() {
  PASCALR_ASSIGN_OR_RETURN(std::vector<size_t> order, OrderRelations());
  scan_of_rank_.assign(ids_.num_relations(), 0);
  for (size_t rank : order) {
    scan_of_rank_[rank] = plan_.scans.size();
    RelationScan scan;
    scan.relation = ids_.RelationName(rank);
    scan.debug_label = "scan " + scan.relation;
    plan_.scans.push_back(std::move(scan));
  }
  auto scan_rank = [&](VarId var) { return scan_of_rank_[RankOf(var)]; };
  auto scan_for = [&](VarId var) { return &plan_.scans[scan_rank(var)]; };

  const DnfMatrix& matrix = sf_.matrix;
  const size_t num_vars = ids_.vars().size();

  // Single lists: per (conjunction, var) with only monadic terms under S2;
  // per term below S2.
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    const Conjunction& conj = matrix.disjuncts[c];
    const std::vector<TermId>& terms = terms_[c];
    std::vector<bool> in_dyadic(num_vars, false);
    for (TermId term : terms) {
      const TermFacts& f = ids_.term(term);
      if (f.dyadic()) in_dyadic[f.a] = in_dyadic[f.b] = true;
    }
    std::vector<bool> vars_done(num_vars, false);
    for (size_t i = 0; i < conj.terms.size(); ++i) {
      const TermFacts& f = ids_.term(terms[i]);
      if (!f.monadic()) continue;
      const VarId v = f.a;
      bool fresh = false;
      if (level_ >= OptLevel::kOneStep) {
        if (in_dyadic[v]) continue;  // absorbed into the indirect joins
        if (vars_done[v]) continue;
        vars_done[v] = true;
        const std::vector<uint32_t>& gates = GatesFor(c, v);
        Key key = {kSingleListGates, v};
        AppendTermSet(c, gates, &key);
        size_t id = InternStructure(
            key, {v}, [&] { return "sl_" + Name(v); }, &fresh);
        plan_.conj_inputs[c].push_back(id);
        ScanAction* action = ActionFor(scan_for(v), v);
        bool already = false;
        for (const SingleListEmit& e : action->single_lists) {
          already = already || e.structure_id == id;
        }
        if (!already) {
          SingleListEmit emit;
          emit.structure_id = id;
          emit.gates = CopyTerms(c, gates);
          action->single_lists.push_back(std::move(emit));
        }
      } else {
        // S1 only: one single list per distinct monadic term.
        size_t id = InternStructure(
            {kSingleListTerm, terms[i]}, {v},
            [&] { return "sl_" + Name(v); }, &fresh);
        plan_.conj_inputs[c].push_back(id);
        if (!fresh) continue;
        SingleListEmit emit;
        emit.structure_id = id;
        emit.gates.push_back(conj.terms[i]);
        ActionFor(scan_for(v), v)->single_lists.push_back(std::move(emit));
      }
    }
  }

  // Indirect joins.
  for (size_t c = 0; c < matrix.disjuncts.size(); ++c) {
    const Conjunction& conj = matrix.disjuncts[c];
    const std::vector<TermId>& terms = terms_[c];
    for (size_t i = 0; i < conj.terms.size(); ++i) {
      const TermFacts& f = ids_.term(terms[i]);
      if (!f.dyadic()) continue;
      // Probe from the variable whose relation scans later: the term is
      // read mirrored when its lhs scans first.
      const JoinTerm& raw = conj.terms[i];
      const bool mirror = scan_rank(f.a) < scan_rank(f.b);
      const TermId oriented = mirror ? f.mirror : terms[i];
      const VarId probe_var = mirror ? f.b : f.a;
      const VarId build_var = mirror ? f.a : f.b;
      const Operand& probe_side = mirror ? raw.rhs : raw.lhs;
      const Operand& build_side = mirror ? raw.lhs : raw.rhs;
      const CompareOp op = mirror ? MirrorOp(raw.op) : raw.op;
      const bool self = RankOf(probe_var) == RankOf(build_var);

      const std::vector<uint32_t>& probe_gates = GatesFor(c, probe_var);
      const std::vector<uint32_t>& build_gates = GatesFor(c, build_var);
      size_t index_id = InternIndex(build_var, build_side.component_pos,
                                    OrderedOp(op), c, build_gates);

      // Mutual restriction (S2): other dyadic terms over probe_var in this
      // conjunction whose far side is already indexed at probe time.
      std::vector<ProbeCheck> checks;
      if (level_ >= OptLevel::kOneStep) {
        for (size_t j = 0; j < conj.terms.size(); ++j) {
          const TermFacts& g = ids_.term(terms[j]);
          if (terms[j] == terms[i] || !g.dyadic() || !g.References(probe_var)) {
            continue;
          }
          // Read the other term with probe_var on its lhs.
          const JoinTerm& other = conj.terms[j];
          const bool flip = g.a != probe_var;
          const VarId far = flip ? g.a : g.b;
          if (scan_rank(far) >= scan_rank(probe_var) ||
              RankOf(far) == RankOf(probe_var)) {
            continue;  // far index not available during this scan
          }
          const CompareOp other_op = flip ? MirrorOp(other.op) : other.op;
          ProbeCheck check;
          check.index_id =
              InternIndex(far, (flip ? other.lhs : other.rhs).component_pos,
                          OrderedOp(other_op), c, GatesFor(c, far));
          check.op = other_op;
          check.probe_component_pos =
              (flip ? other.rhs : other.lhs).component_pos;
          checks.push_back(check);
        }
      }

      Key key = {kJoin, oriented};
      AppendTermSet(c, probe_gates, &key);
      AppendTermSet(c, build_gates, &key);
      for (const ProbeCheck& ck : checks) {
        key.push_back(static_cast<uint32_t>(ck.index_id));
        key.push_back(static_cast<uint32_t>(ck.op));
        key.push_back(static_cast<uint32_t>(ck.probe_component_pos));
      }
      bool fresh = false;
      size_t id = InternStructure(
          key, {probe_var, build_var},
          [&] { return "ij_" + Name(probe_var) + "_" + Name(build_var); },
          &fresh);
      plan_.conj_inputs[c].push_back(id);
      if (!fresh) continue;

      // Schedule the index build in the build variable's scan.
      ScanAction* build_action = ActionFor(scan_for(build_var), build_var);
      bool have_index = false;
      for (size_t existing : build_action->index_builds) {
        have_index = have_index || existing == index_id;
      }
      if (!have_index) build_action->index_builds.push_back(index_id);
      for (const ProbeCheck& ck : checks) {
        // Co-probe indexes were interned for other terms; ensure they are
        // scheduled too (they normally already are).
        const VarId far = index_vars_[ck.index_id];
        ScanAction* far_action = ActionFor(scan_for(far), far);
        bool have = false;
        for (size_t existing : far_action->index_builds) {
          have = have || existing == ck.index_id;
        }
        if (!have) far_action->index_builds.push_back(ck.index_id);
      }

      IndirectJoinEmit emit;
      emit.structure_id = id;
      emit.index_id = index_id;
      emit.op = op;
      emit.probe_component_pos = probe_side.component_pos;
      emit.probe_column_first = true;
      emit.gates = CopyTerms(c, probe_gates);
      emit.corestrictions = std::move(checks);
      if (self) {
        PostScanProbe post;
        post.var = Name(probe_var);
        post.emit = std::move(emit);
        plan_.post_probes.push_back(std::move(post));
        ActionFor(scan_for(probe_var), probe_var);
      } else {
        ActionFor(scan_for(probe_var), probe_var)
            ->ij_emits.push_back(std::move(emit));
      }
    }
  }

  // Value lists and quantifier probes (strategy 4).
  for (const ValueListSpec& vl : plan_.value_lists) {
    const VarId v = Var(vl.var);
    ActionFor(scan_for(v), v)->value_list_builds.push_back(vl.id);
  }
  for (size_t k = 0; k < pushdown_.derived.size(); ++k) {
    const DerivedPredicate& d = pushdown_.derived[k];
    const VarId vm = Var(d.vm);
    QuantProbeEmit emit;
    emit.structure_id = derived_ids_[k];
    emit.probe = d.probe;
    ActionFor(scan_for(vm), vm)->quant_probes.push_back(std::move(emit));
  }

  // Every prefix variable needs a range-collecting action.
  for (const QuantifiedVar& qv : sf_.prefix) {
    const VarId v = Var(qv.var);
    ActionFor(scan_for(v), v);
  }
  return Status::OK();
}

Result<QueryPlan> PlanBuilder::Build() {
  AddDerivedStructures();
  if (level_ == OptLevel::kNaive) {
    PASCALR_RETURN_IF_ERROR(AssembleNaive());
    // Naive mode still needs every variable's range: append range scans
    // for variables no structure scan covered.
    std::vector<bool> covered(ids_.vars().size(), false);
    for (const RelationScan& scan : plan_.scans) {
      for (const ScanAction& a : scan.actions) covered[Var(a.var)] = true;
    }
    for (const QuantifiedVar& qv : sf_.prefix) {
      if (plan_.IsEliminated(qv.var) || covered[Var(qv.var)]) continue;
      RelationScan scan;
      scan.relation = RelationOf(Var(qv.var));
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

Result<QueryPlan> BuildScanPlan(const StandardForm& sf, OptLevel level,
                                QuantPushdownResult pushdown,
                                const PlanIds& ids,
                                const MatrixTermIds& terms) {
  PlanBuilder builder(sf, level, std::move(pushdown), ids, terms);
  return builder.Build();
}

}  // namespace pascalr
