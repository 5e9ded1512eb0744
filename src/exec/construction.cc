#include "exec/construction.h"

namespace pascalr {

Result<std::vector<int>> ResolveProjectionColumns(const QueryPlan& plan,
                                                  const RefRelation& table) {
  return ResolveProjectionColumns(plan, table.columns());
}

Result<std::vector<int>> ResolveProjectionColumns(
    const QueryPlan& plan, const std::vector<std::string>& columns) {
  std::vector<int> column_of_var;
  for (const OutputComponent& oc : plan.sf.projection) {
    int col = -1;
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == oc.var) {
        col = static_cast<int>(i);
        break;
      }
    }
    if (col < 0) {
      return Status::Internal("combination result lacks column '" + oc.var +
                              "'");
    }
    column_of_var.push_back(col);
  }
  return column_of_var;
}

Result<Tuple> ConstructRow(const QueryPlan& plan, RowView row,
                           const std::vector<int>& column_of_var,
                           const Database& db, ExecStats* stats) {
  Tuple result;
  for (size_t i = 0; i < plan.sf.projection.size(); ++i) {
    const OutputComponent& oc = plan.sf.projection[i];
    const Ref& ref = row[static_cast<size_t>(column_of_var[i])];
    PASCALR_ASSIGN_OR_RETURN(const Tuple* tuple, db.Deref(ref));
    if (stats != nullptr) ++stats->dereferences;
    result.Append(tuple->at(static_cast<size_t>(oc.component_pos)));
  }
  return result;
}

}  // namespace pascalr
