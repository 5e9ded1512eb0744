// AST of PASCAL/R selection expressions (paper §2).
//
// A *selection* is
//     [ <v1.c1, ...> OF EACH v1 IN range1, ... : wff ]
// where the wff is a formula of an applied many-sorted first-order
// predicate calculus: atoms are *join terms* (comparisons between element
// components and literals), variables are range-coupled — free (`EACH`),
// existential (`SOME v IN range`), or universal (`ALL v IN range`) — and a
// *range* is either a database relation or an extended range expression
// `[EACH r IN rel: S(r)]` restricting it by a conjunction of monadic terms
// (paper §4.3).

#ifndef PASCALR_CALCULUS_AST_H_
#define PASCALR_CALCULUS_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "value/value.h"

namespace pascalr {

class Formula;
using FormulaPtr = std::unique_ptr<Formula>;

/// Quantification of a range-coupled variable. Free variables behave like
/// existential ones for range extension (paper §4.3) but deliver bindings
/// to the construction phase instead of being projected away.
enum class Quantifier : uint8_t { kFree, kSome, kAll };

std::string_view QuantifierToString(Quantifier q);

/// One side of a join term: a component access `v.comp`, a literal, or a
/// host-variable parameter marker `$name` (Prepare/Execute). Binding fills
/// component_pos / type; var identity stays by name through normalization
/// (alpha renaming keeps names unique) and is resolved to an index only in
/// the standard form.
///
/// Parameters exist only between Prepare and the first Execute: binding a
/// value turns a kParam operand into an ordinary kLiteral whose
/// `param_name` stays set, so a cached compiled plan can be re-patched in
/// place when the same prepared query runs with new parameter values.
struct Operand {
  enum class Kind : uint8_t { kComponent, kLiteral, kParam } kind =
      Kind::kLiteral;

  // kComponent:
  std::string var;
  std::string component;
  int component_pos = -1;  ///< set by the binder

  // kLiteral:
  Value literal;
  /// Unresolved enumeration label (e.g. `professor`) until the binder
  /// types it against the opposite operand's enum type.
  std::string enum_label;

  /// kParam — and, after parameter substitution, the tag that marks a
  /// kLiteral operand as a re-patchable parameter slot.
  std::string param_name;

  /// Bound type of this operand (component type or literal type).
  Type type = Type::Int();

  static Operand Component(std::string var, std::string component) {
    Operand o;
    o.kind = Kind::kComponent;
    o.var = std::move(var);
    o.component = std::move(component);
    return o;
  }
  static Operand Literal(Value v) {
    Operand o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }
  static Operand Param(std::string name) {
    Operand o;
    o.kind = Kind::kParam;
    o.param_name = std::move(name);
    return o;
  }

  bool is_component() const { return kind == Kind::kComponent; }
  bool is_literal() const { return kind == Kind::kLiteral; }
  bool is_param() const { return kind == Kind::kParam; }

  bool operator==(const Operand& other) const;
  std::string ToString() const;
  /// Appends ToString() to `out`.
  void AppendTo(std::string* out) const;
};

/// An atomic formula: `lhs op rhs`. Monadic if it references exactly one
/// variable (paper: `e.estatus = professor`, also `t.tenr = t.tcnr`);
/// dyadic if it references two (paper: `e.enr = t.tenr`).
struct JoinTerm {
  Operand lhs;
  CompareOp op = CompareOp::kEq;
  Operand rhs;

  /// Distinct variable names referenced (0, 1 or 2 entries).
  std::vector<std::string> Variables() const;
  bool IsMonadic() const {
    return (lhs.is_component() || rhs.is_component()) && !IsDyadic();
  }
  bool IsDyadic() const {
    return lhs.is_component() && rhs.is_component() && lhs.var != rhs.var;
  }
  /// Monadic, and the one variable is `var`.
  bool IsMonadicOver(const std::string& var) const {
    return (lhs.is_component() || rhs.is_component()) &&
           (!lhs.is_component() || lhs.var == var) &&
           (!rhs.is_component() || rhs.var == var);
  }
  bool References(const std::string& var) const;

  /// The negated term (operator complement).
  JoinTerm Negated() const;
  /// The mirrored term (sides swapped, operator mirrored); semantically
  /// identical, used to normalise component-vs-literal orientation.
  JoinTerm Mirrored() const;

  bool operator==(const JoinTerm& other) const;
  std::string ToString() const;
};

/// A range expression: base relation plus optional extension restricting
/// it (`[EACH r IN rel: S(r)]`). The restriction, when present, references
/// only the range's own variable.
struct RangeExpr {
  std::string relation;
  FormulaPtr restriction;  ///< nullable; owned

  RangeExpr() = default;
  explicit RangeExpr(std::string rel) : relation(std::move(rel)) {}
  RangeExpr(std::string rel, FormulaPtr restr)
      : relation(std::move(rel)), restriction(std::move(restr)) {}

  RangeExpr Clone() const;
  bool IsExtended() const { return restriction != nullptr; }
  std::string ToString(const std::string& var) const;
};

enum class FormulaKind : uint8_t {
  kConst,    ///< TRUE or FALSE
  kCompare,  ///< a join term
  kNot,
  kAnd,  ///< n-ary
  kOr,   ///< n-ary
  kQuant,
};

/// A wff node. Connectives are n-ary to keep normal forms flat.
class Formula {
 public:
  static FormulaPtr True();
  static FormulaPtr False();
  static FormulaPtr Constant(bool value);
  static FormulaPtr Compare(JoinTerm term);
  static FormulaPtr Compare(Operand lhs, CompareOp op, Operand rhs);
  static FormulaPtr Not(FormulaPtr f);
  /// And/Or flatten nested same-kind children and simplify the 0/1-child
  /// cases (And() == TRUE, Or() == FALSE, single child passes through).
  static FormulaPtr And(std::vector<FormulaPtr> children);
  static FormulaPtr Or(std::vector<FormulaPtr> children);
  static FormulaPtr And(FormulaPtr a, FormulaPtr b);
  static FormulaPtr Or(FormulaPtr a, FormulaPtr b);
  static FormulaPtr Quant(Quantifier q, std::string var, RangeExpr range,
                          FormulaPtr body);

  FormulaKind kind() const { return kind_; }

  bool const_value() const { return const_value_; }
  const JoinTerm& term() const { return term_; }
  JoinTerm& term() { return term_; }

  /// kNot: the single child. kQuant: the body.
  const Formula& child() const { return *children_[0]; }
  Formula* mutable_child() { return children_[0].get(); }
  FormulaPtr TakeChild() { return std::move(children_[0]); }

  /// kQuant: replaces the body.
  void ReplaceChild(FormulaPtr f) { children_[0] = std::move(f); }
  /// kQuant: rebinds the variable name (alpha renaming).
  void set_var(std::string v) { var_ = std::move(v); }

  /// kAnd / kOr.
  const std::vector<FormulaPtr>& children() const { return children_; }
  std::vector<FormulaPtr>& mutable_children() { return children_; }
  std::vector<FormulaPtr> TakeChildren() { return std::move(children_); }

  Quantifier quantifier() const { return quantifier_; }
  const std::string& var() const { return var_; }
  const RangeExpr& range() const { return range_; }
  RangeExpr& range() { return range_; }

  FormulaPtr Clone() const;

  /// Structural equality (used by tests and golden checks).
  bool Equals(const Formula& other) const;

  /// All variable names occurring in join terms of this subtree (bound or
  /// free), in first-occurrence order.
  std::vector<std::string> CollectTermVariables() const;

  /// True if any join term in this subtree references `var`.
  bool ReferencesVar(const std::string& var) const;

  /// Names of variables quantified anywhere in this subtree.
  std::vector<std::string> CollectQuantifiedVars() const;

  std::string ToString() const;  // paper-style rendering (printer.cc)

 private:
  Formula() = default;

  FormulaKind kind_ = FormulaKind::kConst;
  bool const_value_ = false;
  JoinTerm term_;
  std::vector<FormulaPtr> children_;
  Quantifier quantifier_ = Quantifier::kSome;
  std::string var_;
  RangeExpr range_;
};

/// `EACH var IN range` — declaration of a free variable.
struct RangeDecl {
  std::string var;
  RangeExpr range;

  RangeDecl() = default;
  RangeDecl(std::string v, RangeExpr r) : var(std::move(v)), range(std::move(r)) {}
  RangeDecl Clone() const { return RangeDecl(var, range.Clone()); }
};

/// `v.comp` in the component selection (projection list).
struct OutputComponent {
  std::string var;
  std::string component;
  int component_pos = -1;  ///< set by the binder

  std::string ToString() const { return var + "." + component; }
};

/// Renames every occurrence of variable `from` to `to` in join terms,
/// extended-range restrictions, and quantifier bindings of `f` (in place).
/// Quantifiers that *shadow* `from` stop the renaming in their scope.
void RenameVariable(Formula* f, const std::string& from, const std::string& to);

/// A full selection: projection, free variable declarations, and wff.
struct SelectionExpr {
  std::vector<OutputComponent> projection;
  std::vector<RangeDecl> free_vars;
  FormulaPtr wff;

  SelectionExpr Clone() const;
  std::string ToString() const;  // printer.cc
};

}  // namespace pascalr

#endif  // PASCALR_CALCULUS_AST_H_
