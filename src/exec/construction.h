// The construction phase (paper §3.3, step 3): dereferences the reference
// tuples delivered by the combination phase and projects them onto the
// component selection. The Cursor (exec/cursor.h) constructs one tuple at
// a time through these helpers and deduplicates above them.

#ifndef PASCALR_EXEC_CONSTRUCTION_H_
#define PASCALR_EXEC_CONSTRUCTION_H_

#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

/// Resolves the plan's projection against the combination stream's
/// column layout: entry i is the column of projection component i.
Result<std::vector<int>> ResolveProjectionColumns(
    const QueryPlan& plan, const std::vector<std::string>& columns);

/// Same, against a materialised RefRelation's columns. Kept only because
/// bench_e2e/replay.cc calls it.
Result<std::vector<int>> ResolveProjectionColumns(const QueryPlan& plan,
                                                  const RefRelation& table);

/// Dereferences one combination row and projects it onto the component
/// selection (`column_of_var` from ResolveProjectionColumns).
Result<Tuple> ConstructRow(const QueryPlan& plan, RowView row,
                           const std::vector<int>& column_of_var,
                           const Database& db, ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_EXEC_CONSTRUCTION_H_
