#include "opt/params.h"

#include <functional>

namespace pascalr {

namespace {

/// Applies `visit` to every operand of every join term under `f`,
/// including extended-range restrictions of nested quantifiers.
void VisitFormulaOperands(Formula* f,
                          const std::function<void(Operand*)>& visit) {
  switch (f->kind()) {
    case FormulaKind::kConst:
      return;
    case FormulaKind::kCompare:
      visit(&f->term().lhs);
      visit(&f->term().rhs);
      return;
    case FormulaKind::kNot:
      VisitFormulaOperands(f->mutable_child(), visit);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f->children()) {
        VisitFormulaOperands(c.get(), visit);
      }
      return;
    case FormulaKind::kQuant:
      if (f->range().IsExtended()) {
        VisitFormulaOperands(f->range().restriction.get(), visit);
      }
      VisitFormulaOperands(f->mutable_child(), visit);
      return;
  }
}

/// Substitute-or-patch for one operand: `substitute` converts kParam
/// operands into literals; patching only updates already substituted slots.
Status ApplyBinding(Operand* op, const ParamBindings& bindings,
                    bool substitute, size_t* patched) {
  if (op->param_name.empty()) return Status::OK();
  if (op->is_param() && !substitute) return Status::OK();
  if (!op->is_param() && substitute) {
    // Already a literal slot; substitution still refreshes the value.
  }
  auto it = bindings.find(op->param_name);
  if (it == bindings.end()) {
    if (op->is_param()) {
      return Status::InvalidArgument("no value bound for parameter $" +
                                     op->param_name);
    }
    return Status::OK();  // patch: tags without a new binding keep values
  }
  op->kind = Operand::Kind::kLiteral;
  op->literal = it->second;
  op->enum_label.clear();
  if (patched != nullptr) ++*patched;
  return Status::OK();
}

void PatchTerms(std::vector<JoinTerm>* terms, const ParamBindings& bindings,
                size_t* patched) {
  for (JoinTerm& t : *terms) {
    (void)ApplyBinding(&t.lhs, bindings, /*substitute=*/false, patched);
    (void)ApplyBinding(&t.rhs, bindings, /*substitute=*/false, patched);
  }
}

bool OperandsHaveParams(const Formula& f) {
  bool found = false;
  VisitFormulaOperands(const_cast<Formula*>(&f), [&](Operand* op) {
    if (!op->param_name.empty()) found = true;
  });
  return found;
}

}  // namespace

Result<ParamBindings> CheckParamBindings(
    const std::map<std::string, Type>& param_types,
    const ParamBindings& bindings) {
  for (const auto& [name, value] : bindings) {
    if (param_types.find(name) == param_types.end()) {
      return Status::InvalidArgument("query declares no parameter $" + name);
    }
    (void)value;
  }
  ParamBindings out;
  for (const auto& [name, type] : param_types) {
    auto it = bindings.find(name);
    if (it == bindings.end()) {
      return Status::InvalidArgument("no value bound for parameter $" + name);
    }
    Value value = it->second;
    // Enumeration parameters accept their label spelling.
    if (type.kind() == TypeKind::kEnum && value.is_string() &&
        type.enum_info() != nullptr) {
      int ordinal = type.enum_info()->OrdinalOf(value.AsString());
      if (ordinal < 0) {
        return Status::NotFound("'" + value.AsString() +
                                "' is not a label of " +
                                type.enum_info()->name);
      }
      value = Value::MakeEnum(ordinal);
    }
    Value probe = value;  // kind agreement against the declared type
    bool kind_ok = false;
    switch (type.kind()) {
      case TypeKind::kInt:
        kind_ok = probe.is_int();
        break;
      case TypeKind::kString:
        kind_ok = probe.is_string();
        break;
      case TypeKind::kBool:
        kind_ok = probe.is_bool();
        break;
      case TypeKind::kEnum:
        kind_ok = probe.is_enum();
        break;
    }
    if (!kind_ok) {
      return Status::TypeMismatch("parameter $" + name + " expects " +
                                  type.ToString());
    }
    out.emplace(name, std::move(value));
  }
  return out;
}

Status BindSelectionParams(SelectionExpr* sel,
                           const ParamBindings& bindings) {
  Status status = Status::OK();
  auto bind = [&](Operand* op) {
    Status st = ApplyBinding(op, bindings, /*substitute=*/true, nullptr);
    if (!st.ok() && status.ok()) status = st;
  };
  for (RangeDecl& decl : sel->free_vars) {
    if (decl.range.IsExtended()) {
      VisitFormulaOperands(decl.range.restriction.get(), bind);
    }
  }
  if (sel->wff != nullptr) VisitFormulaOperands(sel->wff.get(), bind);
  return status;
}

size_t PatchPlanParams(QueryPlan* plan, const ParamBindings& bindings) {
  size_t patched = 0;
  auto patch_op = [&](Operand* op) {
    (void)ApplyBinding(op, bindings, /*substitute=*/false, &patched);
  };

  // Standard form: prefix range restrictions, matrix terms, original NNF
  // (consulted by runtime adaptation when a range is empty).
  for (QuantifiedVar& qv : plan->sf.prefix) {
    if (qv.range.IsExtended()) {
      VisitFormulaOperands(qv.range.restriction.get(), patch_op);
    }
  }
  for (Conjunction& conj : plan->sf.matrix.disjuncts) {
    PatchTerms(&conj.terms, bindings, &patched);
  }
  if (plan->sf.original_nnf != nullptr) {
    VisitFormulaOperands(plan->sf.original_nnf.get(), patch_op);
  }

  // Collection phase: every gate list the scans evaluate.
  for (IndexBuildSpec& spec : plan->indexes) {
    PatchTerms(&spec.gates, bindings, &patched);
  }
  for (ValueListSpec& spec : plan->value_lists) {
    PatchTerms(&spec.gates, bindings, &patched);
  }
  for (RelationScan& scan : plan->scans) {
    for (ScanAction& action : scan.actions) {
      for (SingleListEmit& emit : action.single_lists) {
        PatchTerms(&emit.gates, bindings, &patched);
      }
      for (IndirectJoinEmit& emit : action.ij_emits) {
        PatchTerms(&emit.gates, bindings, &patched);
      }
      for (QuantProbeEmit& emit : action.quant_probes) {
        PatchTerms(&emit.gates, bindings, &patched);
      }
    }
  }
  for (PostScanProbe& probe : plan->post_probes) {
    PatchTerms(&probe.emit.gates, bindings, &patched);
  }
  return patched;
}

Status BindFormulaParams(Formula* f, const ParamBindings& bindings) {
  Status status = Status::OK();
  VisitFormulaOperands(f, [&](Operand* op) {
    Status st = ApplyBinding(op, bindings, /*substitute=*/true, nullptr);
    if (!st.ok() && status.ok()) status = st;
  });
  return status;
}

namespace {

void AppendRange(const RangeExpr& range, std::vector<TemplateRange>* out) {
  out->push_back({range.Clone(), RangeHasParams(range)});
}

void CollectTemplateRanges(const Formula& f, std::vector<TemplateRange>* out) {
  switch (f.kind()) {
    case FormulaKind::kConst:
    case FormulaKind::kCompare:
      return;
    case FormulaKind::kNot:
      CollectTemplateRanges(f.child(), out);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f.children()) CollectTemplateRanges(*c, out);
      return;
    case FormulaKind::kQuant:
      AppendRange(f.range(), out);
      CollectTemplateRanges(f.child(), out);
      return;
  }
}

}  // namespace

void CollectTemplateRanges(const SelectionExpr& sel,
                           std::vector<TemplateRange>* out) {
  for (const RangeDecl& decl : sel.free_vars) AppendRange(decl.range, out);
  if (sel.wff != nullptr) CollectTemplateRanges(*sel.wff, out);
}

bool RangeHasParams(const RangeExpr& range) {
  return range.IsExtended() && OperandsHaveParams(*range.restriction);
}

bool SelectionHasUnboundParams(const SelectionExpr& sel) {
  bool found = false;
  auto check = [&](Operand* op) {
    if (op->is_param()) found = true;
  };
  for (const RangeDecl& decl : sel.free_vars) {
    if (decl.range.IsExtended()) {
      VisitFormulaOperands(decl.range.restriction.get(), check);
    }
  }
  if (sel.wff != nullptr) VisitFormulaOperands(sel.wff.get(), check);
  return found;
}

}  // namespace pascalr
