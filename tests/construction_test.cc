// Construction (paper §3.3 step 3) in the cursor: dereference, projection
// and value-level duplicate elimination.
//
//  - ProjectedRowSet units: equal rows are rejected and distinct rows in
//    one hash chain are all kept (a forced constant hash), and Insert
//    hashes a row by its values, not by the objects holding them;
//  - duplicate-heavy projections — many distinct reference rows collapsing
//    to few value rows, with strings longer than the small-string buffer —
//    drained through Cursor at every level and BATCH 1, 3 and 1024: full
//    drains equal the naive oracle in the materialized reference's order,
//    partial drains emit no repeated tuple, construction stays lazy, and
//    the close hook counts exactly the tuples emitted.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cursor.h"
#include "exec/naive.h"
#include "exec/projected_row_set.h"
#include "opt/planner.h"
#include "pascalr/sample_db.h"
#include "tests/materialized_reference.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::TupleStrings;

// Longer than any std::string small-string buffer, so the set's arena
// holds heap-owned copies.
std::string LongTitle(const char* stem, int i) {
  return std::string(stem) + " on relational calculus, part " +
         std::to_string(i);
}

// ------------------------------------------------------ ProjectedRowSet

TEST(ProjectedRowSetTest, ConstantHashRejectsEqualRowsAndKeepsDistinctOnes) {
  ProjectedRowSet set(2);
  constexpr uint64_t kHash = 42;  // every row lands in one chain
  std::vector<Value> a, b;
  for (int i = 0; i < 6; ++i) {
    a.push_back(Value::MakeString(LongTitle("Survey", i % 3)));
    b.push_back(Value::MakeInt(i % 2));
  }
  // (title i%3, i%2) over i = 0..5: six distinct rows.
  for (size_t i = 0; i < a.size(); ++i) {
    const Value* row[] = {&a[i], &b[i]};
    EXPECT_TRUE(set.InsertPrehashed(kHash, row)) << "row " << i;
  }
  ASSERT_EQ(set.size(), 6u);
  // Equal values held by other objects are rejected, whatever their
  // position in the chain.
  for (size_t i = 0; i < a.size(); ++i) {
    const Value title =
        Value::MakeString(LongTitle("Survey", static_cast<int>(i % 3)));
    const Value bit = Value::MakeInt(static_cast<int64_t>(i % 2));
    const Value* row[] = {&title, &bit};
    EXPECT_FALSE(set.InsertPrehashed(kHash, row)) << "row " << i;
  }
  EXPECT_EQ(set.size(), 6u);
  // The arena keeps the distinct rows in insertion order, as owned copies
  // that outlive their sources.
  a.clear();
  for (size_t r = 0; r < set.size(); ++r) {
    EXPECT_EQ(set.row(r)[0].AsString(),
              LongTitle("Survey", static_cast<int>(r % 3)));
    EXPECT_EQ(set.row(r)[1].AsInt(), static_cast<int64_t>(r % 2));
  }
}

TEST(ProjectedRowSetTest, InsertHashesRowsByValue) {
  const Value title = Value::MakeString(LongTitle("Notes", 1));
  const Value year = Value::MakeInt(1977);
  const Value* row[] = {&title, &year};
  ProjectedRowSet set(2);
  EXPECT_TRUE(set.Insert(row));
  EXPECT_FALSE(set.Insert(row));
  // An equal row held by other Value objects hashes alike and is rejected;
  // a row differing in one value is kept.
  const Value title_copy = Value::MakeString(LongTitle("Notes", 1));
  const Value year_copy = Value::MakeInt(1977);
  const Value* copy[] = {&title_copy, &year_copy};
  EXPECT_FALSE(set.Insert(copy));
  const Value later = Value::MakeInt(1978);
  const Value* other[] = {&title, &later};
  EXPECT_TRUE(set.Insert(other));
  EXPECT_EQ(set.size(), 2u);
}

// ------------------------------------------------ duplicate-heavy cursors

// The Figure 1 schema with many elements over few distinct values: 30
// employees, 3 of 4 statuses; 40 courses over 3 long titles; 60 papers over
// 4 long titles and 3 years; a timetable linking them.
std::unique_ptr<Database> MakeDuplicateHeavyDb() {
  auto db = MakeUniversityDb(/*populate=*/false);
  Relation* employees = db->FindRelation("employees");
  Relation* papers = db->FindRelation("papers");
  Relation* courses = db->FindRelation("courses");
  Relation* timetable = db->FindRelation("timetable");
  for (int i = 1; i <= 30; ++i) {
    EXPECT_TRUE(employees
                    ->Insert(Tuple{Value::MakeInt(i),
                                   Value::MakeString("E" + std::to_string(i)),
                                   Value::MakeEnum(1 + i % 3)})
                    .ok());
  }
  for (int i = 1; i <= 40; ++i) {
    EXPECT_TRUE(
        courses
            ->Insert(Tuple{Value::MakeInt(i), Value::MakeEnum(i % 4),
                           Value::MakeString(LongTitle("Course", i % 3))})
            .ok());
  }
  for (int i = 1; i <= 60; ++i) {
    EXPECT_TRUE(
        papers
            ->Insert(Tuple{Value::MakeInt(1 + i % 30),
                           Value::MakeInt(1975 + i % 3),
                           Value::MakeString(LongTitle("Paper", i % 4))})
            .ok());
  }
  for (int i = 0; i < 90; ++i) {
    EXPECT_TRUE(
        timetable
            ->Insert(Tuple{Value::MakeInt(1 + i % 30),
                           Value::MakeInt(1 + (i * 7) % 40),
                           Value::MakeEnum(i % 5), Value::MakeInt(9001000 + i),
                           Value::MakeString("R" + std::to_string(i % 9))})
            .ok());
  }
  return db;
}

const char* const kDuplicateHeavyQueries[] = {
    // 30 employees, 3 statuses.
    "[<e.estatus> OF EACH e IN employees: TRUE]",
    // Distinct (paper, employee) pairs collapse onto few (title, status)
    // rows.
    "[<p.ptitle, e.estatus> OF EACH p IN papers, EACH e IN employees: "
    "p.penr = e.enr]",
    // Distinct (course, paper) pairs linked through the timetable collapse
    // onto few (long title, year) rows.
    "[<c.ctitle, p.pyear> OF EACH c IN courses, EACH p IN papers: "
    "SOME t IN timetable ((t.tcnr = c.cnr) AND (t.tenr = p.penr))]",
};

struct Drain {
  std::vector<Tuple> tuples;
  ExecStats stats;
  uint64_t hook_count = 0;
  int hook_calls = 0;
};

// Opens a cursor on `plan`, pulls at most `k` tuples and closes it.
Drain DrainCursor(std::shared_ptr<const QueryPlan> plan, const Database& db,
                  size_t k) {
  Drain drain;
  Result<Cursor> cursor = Cursor::Open(std::move(plan), db);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return drain;
  cursor->set_close_hook([&drain](const ExecStats& stats, uint64_t emitted) {
    drain.stats = stats;
    drain.hook_count = emitted;
    ++drain.hook_calls;
  });
  // Open ran collection only: construction has dereferenced nothing yet.
  EXPECT_EQ(cursor->stats().dereferences, 0u);
  Tuple tuple;
  while (drain.tuples.size() < k) {
    Result<bool> more = cursor->Next(&tuple);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    drain.tuples.push_back(tuple);
  }
  cursor->Close();
  return drain;
}

TEST(CursorDedupTest, DuplicateHeavyProjectionsMatchOracleAtEveryBatch) {
  auto db = MakeDuplicateHeavyDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  for (const char* src : kDuplicateHeavyQueries) {
    const BoundQuery bound = MustBind(*db, src);
    NaiveEvaluator naive(db.get());
    Result<std::vector<Tuple>> expected = naive.Evaluate(bound);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const auto want = TupleStrings(*expected);
    const std::set<std::string> oracle(want.begin(), want.end());
    for (int level = 0; level <= 4; ++level) {
      for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
        const std::string where = std::string(src) + " level=" +
                                  std::to_string(level) +
                                  " batch=" + std::to_string(batch);
        PlannerOptions options;
        options.level = static_cast<OptLevel>(level);
        options.batch_size = batch;
        Result<PlannedQuery> planned =
            PlanQuery(*db, CloneBoundQuery(bound), options);
        ASSERT_TRUE(planned.ok()) << planned.status().ToString();
        auto plan = std::make_shared<const QueryPlan>(std::move(planned->plan));
        const size_t arity = plan->sf.projection.size();

        // Full drain: the oracle's rows, in the materialized reference's
        // order, each dereferenced row costing exactly `arity` refs.
        Drain full = DrainCursor(plan, *db, SIZE_MAX);
        EXPECT_EQ(TupleStrings(full.tuples), want) << where;
        Result<testing_util::MaterializedRun> reference =
            testing_util::RunMaterialized(*plan, *db);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ASSERT_EQ(full.tuples.size(), reference->tuples.size()) << where;
        for (size_t i = 0; i < full.tuples.size(); ++i) {
          EXPECT_EQ(full.tuples[i], reference->tuples[i])
              << where << " row " << i;
        }
        EXPECT_EQ(full.hook_calls, 1) << where;
        EXPECT_EQ(full.hook_count, full.tuples.size()) << where;
        EXPECT_EQ(full.stats.dereferences % arity, 0u) << where;
        EXPECT_GE(full.stats.dereferences, arity * full.tuples.size())
            << where;

        for (size_t k : {size_t{1}, (oracle.size() + 1) / 2}) {
          Drain part = DrainCursor(plan, *db, k);
          const std::string at = where + " k=" + std::to_string(k);
          EXPECT_EQ(part.tuples.size(), std::min(k, oracle.size())) << at;
          std::set<std::string> seen;
          for (const Tuple& t : part.tuples) {
            EXPECT_EQ(oracle.count(t.ToString()), 1u)
                << at << ": not an oracle row: " << t.ToString();
            EXPECT_TRUE(seen.insert(t.ToString()).second)
                << at << ": repeated row: " << t.ToString();
          }
          EXPECT_EQ(part.hook_calls, 1) << at;
          EXPECT_EQ(part.hook_count, part.tuples.size()) << at;
          // Lazy construction: the first tuple is the first row consumed,
          // and a closed cursor dereferenced only the rows it consumed.
          if (k == 1 && !oracle.empty()) {
            EXPECT_EQ(part.stats.dereferences, arity) << at;
          }
          EXPECT_EQ(part.stats.dereferences % arity, 0u) << at;
          EXPECT_LE(part.stats.dereferences, full.stats.dereferences) << at;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pascalr
