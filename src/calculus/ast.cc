#include "calculus/ast.h"

#include <algorithm>

#include "base/logging.h"
#include "base/str_util.h"

namespace pascalr {

std::string_view QuantifierToString(Quantifier q) {
  switch (q) {
    case Quantifier::kFree:
      return "EACH";
    case Quantifier::kSome:
      return "SOME";
    case Quantifier::kAll:
      return "ALL";
  }
  return "?";
}

bool Operand::operator==(const Operand& other) const {
  if (kind != other.kind) return false;
  if (kind == Kind::kComponent) {
    return var == other.var && component == other.component;
  }
  // A parameter slot is never equal to a plain literal (or to a different
  // parameter), even when the currently bound values coincide: later
  // executions may re-patch it, so term dedup must keep them apart.
  if (param_name != other.param_name) return false;
  if (kind == Kind::kParam) return true;
  if (enum_label != other.enum_label) return false;
  return literal.SameKind(other.literal) && literal == other.literal;
}

void Operand::AppendTo(std::string* out) const {
  if (kind == Kind::kComponent) {
    *out += var;
    *out += '.';
    *out += component;
    return;
  }
  // Parameter slots keep their marker spelling, before and after value
  // substitution — structure-interning keys and EXPLAIN output both want
  // the slot identity, not the currently patched value.
  if (!param_name.empty()) {
    *out += '$';
    *out += param_name;
  } else if (type.kind() == TypeKind::kEnum) {
    *out += literal.ToStringTyped(type);
  } else if (!enum_label.empty()) {
    *out += enum_label;  // unresolved label
  } else {
    *out += literal.ToString();
  }
}

std::string Operand::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

std::vector<std::string> JoinTerm::Variables() const {
  std::vector<std::string> out;
  if (lhs.is_component()) out.push_back(lhs.var);
  if (rhs.is_component() && (out.empty() || out[0] != rhs.var)) {
    out.push_back(rhs.var);
  }
  return out;
}

bool JoinTerm::References(const std::string& var) const {
  return (lhs.is_component() && lhs.var == var) ||
         (rhs.is_component() && rhs.var == var);
}

JoinTerm JoinTerm::Negated() const {
  JoinTerm t = *this;
  t.op = NegateOp(op);
  return t;
}

JoinTerm JoinTerm::Mirrored() const {
  JoinTerm t;
  t.lhs = rhs;
  t.rhs = lhs;
  t.op = MirrorOp(op);
  return t;
}

bool JoinTerm::operator==(const JoinTerm& other) const {
  return lhs == other.lhs && op == other.op && rhs == other.rhs;
}

std::string JoinTerm::ToString() const {
  std::string out;
  out.reserve(48);
  out += '(';
  lhs.AppendTo(&out);
  out += ' ';
  out += CompareOpToString(op);
  out += ' ';
  rhs.AppendTo(&out);
  out += ')';
  return out;
}

RangeExpr RangeExpr::Clone() const {
  RangeExpr out(relation);
  if (restriction != nullptr) out.restriction = restriction->Clone();
  return out;
}

std::string RangeExpr::ToString(const std::string& var) const {
  if (!IsExtended()) return relation;
  return "[EACH " + var + " IN " + relation + ": " + restriction->ToString() +
         "]";
}

FormulaPtr Formula::True() { return Constant(true); }
FormulaPtr Formula::False() { return Constant(false); }

FormulaPtr Formula::Constant(bool value) {
  auto f = FormulaPtr(new Formula());
  f->kind_ = FormulaKind::kConst;
  f->const_value_ = value;
  return f;
}

FormulaPtr Formula::Compare(JoinTerm term) {
  auto f = FormulaPtr(new Formula());
  f->kind_ = FormulaKind::kCompare;
  f->term_ = std::move(term);
  return f;
}

FormulaPtr Formula::Compare(Operand lhs, CompareOp op, Operand rhs) {
  JoinTerm t;
  t.lhs = std::move(lhs);
  t.op = op;
  t.rhs = std::move(rhs);
  return Compare(std::move(t));
}

FormulaPtr Formula::Not(FormulaPtr f) {
  auto out = FormulaPtr(new Formula());
  out->kind_ = FormulaKind::kNot;
  out->children_.push_back(std::move(f));
  return out;
}

FormulaPtr Formula::And(std::vector<FormulaPtr> children) {
  std::vector<FormulaPtr> flat;
  for (FormulaPtr& c : children) {
    PASCALR_DCHECK(c != nullptr);
    if (c->kind_ == FormulaKind::kAnd) {
      for (FormulaPtr& g : c->children_) flat.push_back(std::move(g));
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return True();
  if (flat.size() == 1) return std::move(flat[0]);
  auto f = FormulaPtr(new Formula());
  f->kind_ = FormulaKind::kAnd;
  f->children_ = std::move(flat);
  return f;
}

FormulaPtr Formula::Or(std::vector<FormulaPtr> children) {
  std::vector<FormulaPtr> flat;
  for (FormulaPtr& c : children) {
    PASCALR_DCHECK(c != nullptr);
    if (c->kind_ == FormulaKind::kOr) {
      for (FormulaPtr& g : c->children_) flat.push_back(std::move(g));
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return False();
  if (flat.size() == 1) return std::move(flat[0]);
  auto f = FormulaPtr(new Formula());
  f->kind_ = FormulaKind::kOr;
  f->children_ = std::move(flat);
  return f;
}

FormulaPtr Formula::And(FormulaPtr a, FormulaPtr b) {
  std::vector<FormulaPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return And(std::move(v));
}

FormulaPtr Formula::Or(FormulaPtr a, FormulaPtr b) {
  std::vector<FormulaPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return Or(std::move(v));
}

FormulaPtr Formula::Quant(Quantifier q, std::string var, RangeExpr range,
                          FormulaPtr body) {
  PASCALR_DCHECK(q != Quantifier::kFree)
      << "free variables are declared in the selection header";
  auto f = FormulaPtr(new Formula());
  f->kind_ = FormulaKind::kQuant;
  f->quantifier_ = q;
  f->var_ = std::move(var);
  f->range_ = std::move(range);
  f->children_.push_back(std::move(body));
  return f;
}

FormulaPtr Formula::Clone() const {
  switch (kind_) {
    case FormulaKind::kConst:
      return Constant(const_value_);
    case FormulaKind::kCompare:
      return Compare(term_);
    case FormulaKind::kNot:
      return Not(children_[0]->Clone());
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaPtr> kids;
      kids.reserve(children_.size());
      for (const FormulaPtr& c : children_) kids.push_back(c->Clone());
      return kind_ == FormulaKind::kAnd ? And(std::move(kids))
                                        : Or(std::move(kids));
    }
    case FormulaKind::kQuant:
      return Quant(quantifier_, var_, range_.Clone(), children_[0]->Clone());
  }
  return nullptr;
}

bool Formula::Equals(const Formula& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case FormulaKind::kConst:
      return const_value_ == other.const_value_;
    case FormulaKind::kCompare:
      return term_ == other.term_;
    case FormulaKind::kNot:
      return children_[0]->Equals(*other.children_[0]);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      if (children_.size() != other.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i]->Equals(*other.children_[i])) return false;
      }
      return true;
    }
    case FormulaKind::kQuant: {
      if (quantifier_ != other.quantifier_ || var_ != other.var_ ||
          range_.relation != other.range_.relation) {
        return false;
      }
      bool lhs_ext = range_.IsExtended(), rhs_ext = other.range_.IsExtended();
      if (lhs_ext != rhs_ext) return false;
      if (lhs_ext && !range_.restriction->Equals(*other.range_.restriction)) {
        return false;
      }
      return children_[0]->Equals(*other.children_[0]);
    }
  }
  return false;
}

namespace {
void CollectVarsImpl(const Formula& f, std::vector<std::string>* out) {
  auto add = [out](const std::string& v) {
    if (std::find(out->begin(), out->end(), v) == out->end()) {
      out->push_back(v);
    }
  };
  switch (f.kind()) {
    case FormulaKind::kConst:
      return;
    case FormulaKind::kCompare:
      for (const std::string& v : f.term().Variables()) add(v);
      return;
    case FormulaKind::kNot:
      CollectVarsImpl(f.child(), out);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f.children()) CollectVarsImpl(*c, out);
      return;
    case FormulaKind::kQuant:
      if (f.range().IsExtended()) {
        CollectVarsImpl(*f.range().restriction, out);
      }
      CollectVarsImpl(f.child(), out);
      return;
  }
}

void CollectQuantsImpl(const Formula& f, std::vector<std::string>* out) {
  switch (f.kind()) {
    case FormulaKind::kConst:
    case FormulaKind::kCompare:
      return;
    case FormulaKind::kNot:
      CollectQuantsImpl(f.child(), out);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f.children()) CollectQuantsImpl(*c, out);
      return;
    case FormulaKind::kQuant:
      out->push_back(f.var());
      CollectQuantsImpl(f.child(), out);
      return;
  }
}
}  // namespace

std::vector<std::string> Formula::CollectTermVariables() const {
  std::vector<std::string> out;
  CollectVarsImpl(*this, &out);
  return out;
}

bool Formula::ReferencesVar(const std::string& var) const {
  switch (kind_) {
    case FormulaKind::kConst:
      return false;
    case FormulaKind::kCompare:
      return term_.References(var);
    case FormulaKind::kNot:
      return children_[0]->ReferencesVar(var);
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : children_) {
        if (c->ReferencesVar(var)) return true;
      }
      return false;
    case FormulaKind::kQuant:
      if (range_.IsExtended() && range_.restriction->ReferencesVar(var)) {
        return true;
      }
      return children_[0]->ReferencesVar(var);
  }
  return false;
}

std::vector<std::string> Formula::CollectQuantifiedVars() const {
  std::vector<std::string> out;
  CollectQuantsImpl(*this, &out);
  return out;
}

void RenameVariable(Formula* f, const std::string& from,
                    const std::string& to) {
  switch (f->kind()) {
    case FormulaKind::kConst:
      return;
    case FormulaKind::kCompare: {
      JoinTerm& t = f->term();
      if (t.lhs.is_component() && t.lhs.var == from) t.lhs.var = to;
      if (t.rhs.is_component() && t.rhs.var == from) t.rhs.var = to;
      return;
    }
    case FormulaKind::kNot:
      RenameVariable(f->mutable_child(), from, to);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f->children()) {
        RenameVariable(c.get(), from, to);
      }
      return;
    case FormulaKind::kQuant: {
      if (f->range().IsExtended()) {
        // The restriction's variable is the quantified variable itself; it
        // shadows `from` only if they collide.
        if (f->var() != from) {
          RenameVariable(f->range().restriction.get(), from, to);
        }
      }
      if (f->var() == from) return;  // shadowed in the body
      RenameVariable(f->mutable_child(), from, to);
      return;
    }
  }
}

SelectionExpr SelectionExpr::Clone() const {
  SelectionExpr out;
  out.projection = projection;
  for (const RangeDecl& d : free_vars) out.free_vars.push_back(d.Clone());
  out.wff = wff == nullptr ? nullptr : wff->Clone();
  return out;
}

}  // namespace pascalr
