// Relational division — the combination-phase operation for universal
// quantification (paper §3.3, citing Codd):
//
//   Divide(T, var, D) = { t | T projected away var;
//                             forall r in D : (t, r) in T }
//
// i.e. a remaining-columns tuple survives iff it co-occurs with *every*
// element of the divisor D (the full — possibly extended — range of the
// universally quantified variable).
//
// Hash division: rows are grouped by the remaining columns and a group
// qualifies when it matched every distinct divisor ref.

#ifndef PASCALR_REFSTRUCT_DIVISION_H_
#define PASCALR_REFSTRUCT_DIVISION_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "exec/stats.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

/// Divides `table` by the divisor refs bound to column `var`.
/// The result drops the `var` column. An empty divisor yields all
/// projected rows (vacuous truth: ALL over the empty set holds) — callers
/// normally never reach this case because empty ranges trigger runtime
/// adaptation first, but division itself is total.
Result<RefRelation> Divide(const RefRelation& table, const std::string& var,
                           const std::vector<Ref>& divisor, ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_DIVISION_H_
