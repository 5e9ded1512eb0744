// Strategy 4 (paper §4.4): evaluating quantifiers in the collection phase.
//
// The innermost quantified variable vn is *eliminated* from the
// combination phase when the quantified sub-formula contains only monadic
// terms over vn plus dyadic terms against a single other variable vm:
//
//  - existential vn: each matrix disjunct referencing vn is handled
//    independently (SOME distributes over OR);
//  - universal vn: vn must occur in no more than one disjunct (Lemma 1),
//    with no monadic term or cascaded probe over vn there, and its —
//    possibly extended — range must be non-empty (checked at runtime);
//  - when vn is not innermost, adjacent *equal* quantifiers are swapped to
//    bubble it inward (Example 4.7 swaps SOME c and SOME t).
//
// Execution: while vn's relation is scanned, a *value list* of the joined
// component is built (only a min/max/at-most-one summary where the paper's
// special cases apply); while vm's relation is scanned, the quantifier is
// decided per element and survivors enter a derived single list.
// Eliminations cascade: a derived predicate targeting vn becomes a probe
// gate of vn's own value list (Example 4.7 eliminates c, then t, then p).

#ifndef PASCALR_OPT_QUANT_PUSHDOWN_H_
#define PASCALR_OPT_QUANT_PUSHDOWN_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "exec/plan.h"
#include "normalize/standard_form.h"

namespace pascalr {

/// A quantified predicate now decided during vm's scan; realised as a
/// derived single list over vm joined into conjunction `conj`.
struct DerivedPredicate {
  size_t conj = 0;
  std::string vm;
  std::string vn;  ///< the eliminated variable (for explain output)
  QuantProbeGate probe;
};

struct QuantPushdownResult {
  std::vector<std::string> eliminated;
  std::vector<ValueListSpec> value_lists;  ///< ids are vector positions
  std::vector<DerivedPredicate> derived;   ///< per-conjunction survivors

  std::string ToString() const;
};

/// Rewrites `sf`'s matrix in place (terms over eliminated variables are
/// removed); eliminated variables stay in the prefix — the planner marks
/// them eliminated so the combination phase skips them while the
/// collection phase still scans their ranges to build value lists.
QuantPushdownResult ApplyQuantPushdown(StandardForm* sf);

}  // namespace pascalr

#endif  // PASCALR_OPT_QUANT_PUSHDOWN_H_
