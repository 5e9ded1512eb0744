// Host-variable parameters (`$name`) for prepared queries.
//
// Lifecycle: the parser produces kParam operands, the binder types them
// against the component operands they are compared with (BoundQuery::
// params), and *value substitution* turns every kParam operand into an
// ordinary kLiteral whose `param_name` tag stays set. Planning and
// execution only ever see substituted selections — every normalization
// pass copies Operand wholesale, so the tags ride through standard-form
// construction into the compiled QueryPlan, where PatchPlanParams can
// rewrite the bound values in place for the next Execute without any
// parse / normalize / plan-search work.

#ifndef PASCALR_OPT_PARAMS_H_
#define PASCALR_OPT_PARAMS_H_

#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "calculus/ast.h"
#include "exec/plan.h"
#include "value/type.h"
#include "value/value.h"

namespace pascalr {

/// Parameter name (without the '$') to bound value.
using ParamBindings = std::map<std::string, Value>;

/// Validates `bindings` against the binder-derived parameter types:
/// every declared parameter must be bound, every binding must name a
/// declared parameter, and value kinds must agree. Enumeration parameters
/// may be given as string labels; they are converted to ordinals of the
/// parameter's enum type. Returns the canonicalised bindings.
Result<ParamBindings> CheckParamBindings(
    const std::map<std::string, Type>& param_types,
    const ParamBindings& bindings);

/// Substitutes `bindings` into every kParam operand of `sel` (wff, free
/// variable extended ranges), turning them into kLiteral operands that
/// keep their `param_name` tag. Callers are expected to have run
/// CheckParamBindings; missing bindings fail with InvalidArgument.
Status BindSelectionParams(SelectionExpr* sel, const ParamBindings& bindings);

/// Rewrites, in place, the literal value of every parameter-tagged operand
/// reachable from the compiled plan: matrix terms, prefix range
/// restrictions, the original NNF, and every collection-phase gate
/// (indexes, value lists, single-list / indirect-join / quantifier-probe
/// emissions, post-scan probes). Returns the number of operand slots
/// patched. Bindings must cover every tag present (CheckParamBindings).
size_t PatchPlanParams(QueryPlan* plan, const ParamBindings& bindings);

/// Substitutes `bindings` into every parameter slot under `f` (kParam
/// operands and previously substituted literal slots alike).
Status BindFormulaParams(Formula* f, const ParamBindings& bindings);

/// One range of a selection template: a free variable's or a quantifier's.
struct TemplateRange {
  RangeExpr range;
  /// The restriction carries a parameter tag (RangeHasParams): its
  /// emptiness can change with the bound values, not only with writes.
  bool has_params = false;
};

/// Appends a clone of every range of `sel` — the free-variable ranges
/// first, then every quantifier range of the wff in pre-order. Their
/// emptiness drives the planner's Lemma-1 / rule-2 adaptation decisions,
/// so a cached plan's stamp records it per range (pascalr/prepared.cc).
void CollectTemplateRanges(const SelectionExpr& sel,
                           std::vector<TemplateRange>* out);

/// True when `range`'s restriction (if any) carries a parameter tag.
bool RangeHasParams(const RangeExpr& range);

/// True when the selection still contains *unsubstituted* kParam operands
/// — such a query cannot be normalised or planned.
bool SelectionHasUnboundParams(const SelectionExpr& sel);

}  // namespace pascalr

#endif  // PASCALR_OPT_PARAMS_H_
