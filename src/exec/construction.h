// The construction phase (paper §3.3, step 3): dereferences the reference
// tuples delivered by the combination phase and projects them onto the
// component selection. Used in two modes: ExecuteConstruction materialises
// the whole (deduplicated) result, while the streaming Cursor
// (exec/cursor.h) pulls one tuple at a time through the same helpers.

#ifndef PASCALR_EXEC_CONSTRUCTION_H_
#define PASCALR_EXEC_CONSTRUCTION_H_

#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

/// Resolves the plan's projection against the combination result's
/// columns: entry i is the RefRelation column of projection component i.
Result<std::vector<int>> ResolveProjectionColumns(const QueryPlan& plan,
                                                  const RefRelation& table);

/// Same, against a bare column layout (the pipelined combination stream
/// has no materialised RefRelation to resolve against).
Result<std::vector<int>> ResolveProjectionColumns(
    const QueryPlan& plan, const std::vector<std::string>& columns);

/// Dereferences one combination row and projects it onto the component
/// selection (`column_of_var` from ResolveProjectionColumns).
Result<Tuple> ConstructRow(const QueryPlan& plan, RowView row,
                           const std::vector<int>& column_of_var,
                           const Database& db, ExecStats* stats);

/// Produces the (deduplicated) result tuples in the projection's component
/// order.
Result<std::vector<Tuple>> ExecuteConstruction(const QueryPlan& plan,
                                               const RefRelation& table,
                                               const Database& db,
                                               ExecStats* stats);

}  // namespace pascalr

#endif  // PASCALR_EXEC_CONSTRUCTION_H_
