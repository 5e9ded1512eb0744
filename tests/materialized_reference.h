// The paper's materialized three-phase run (§3.3) over a compiled plan:
// the collection phase, ExecuteCombination (every join, extension, union
// and quantifier intermediate built as a reference relation), then
// construction with duplicate elimination. The engine executes every
// statement through a Cursor; this is the reference that tests and
// benches compare the pipeline against. Header-only, gtest-free.

#ifndef PASCALR_TESTS_MATERIALIZED_REFERENCE_H_
#define PASCALR_TESTS_MATERIALIZED_REFERENCE_H_

#include <unordered_set>
#include <vector>

#include "exec/collection.h"
#include "exec/combination.h"
#include "exec/construction.h"

namespace pascalr {
namespace testing_util {

struct MaterializedRun {
  std::vector<Tuple> tuples;
  ExecStats stats;
};

inline Result<MaterializedRun> RunMaterialized(const QueryPlan& plan,
                                               const Database& db) {
  MaterializedRun run;
  PASCALR_ASSIGN_OR_RETURN(CollectionResult collection,
                           ExecuteCollection(plan, db, &run.stats));
  PASCALR_ASSIGN_OR_RETURN(RefRelation combined,
                           ExecuteCombination(plan, collection, &run.stats));
  PASCALR_ASSIGN_OR_RETURN(std::vector<int> column_of_var,
                           ResolveProjectionColumns(plan, combined.columns()));
  std::unordered_set<Tuple, TupleHash> seen;
  for (const RowView row : combined.rows()) {
    PASCALR_ASSIGN_OR_RETURN(
        Tuple tuple, ConstructRow(plan, row, column_of_var, db, &run.stats));
    if (seen.insert(tuple).second) run.tuples.push_back(std::move(tuple));
  }
  return run;
}

}  // namespace testing_util
}  // namespace pascalr

#endif  // PASCALR_TESTS_MATERIALIZED_REFERENCE_H_
