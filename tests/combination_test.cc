// Combination-phase behaviour: n-tuple extension, union, quantifier
// evaluation right-to-left (projection / division).

#include "exec/combination.h"

#include <gtest/gtest.h>

#include "opt/planner.h"
#include "pascalr/sample_db.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;

struct RunParts {
  QueryPlan plan;
  CollectionResult collection;
  RefRelation combined;
};

RunParts RunThroughCombination(const Database& db, const std::string& query,
                               OptLevel level) {
  PlannerOptions options;
  options.level = level;
  Result<PlannedQuery> planned = PlanQuery(db, MustBind(db, query), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  ExecStats stats;
  Result<CollectionResult> coll = ExecuteCollection(planned->plan, db, &stats);
  EXPECT_TRUE(coll.ok()) << coll.status().ToString();
  Result<RefRelation> combined =
      ExecuteCombination(planned->plan, *coll, &stats);
  EXPECT_TRUE(combined.ok()) << combined.status().ToString();
  RunParts parts{std::move(planned->plan), std::move(coll).value(),
                 std::move(combined).value()};
  return parts;
}

TEST(CombinationTest, ResultColumnsAreTheFreeVariables) {
  auto db = MakeUniversityDb();
  RunParts parts = RunThroughCombination(
      *db,
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: "
      "SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr))]",
      OptLevel::kOneStep);
  EXPECT_EQ(parts.combined.columns(),
            (std::vector<std::string>{"e", "c"}));
  EXPECT_EQ(parts.combined.size(), 6u);  // the six timetable pairings
}

TEST(CombinationTest, ExistentialIsProjection) {
  auto db = MakeUniversityDb();
  RunParts parts = RunThroughCombination(
      *db,
      "[<e.ename> OF EACH e IN employees: SOME t IN timetable "
      "((t.tenr = e.enr))]",
      OptLevel::kOneStep);
  // Employees teaching anything: 1, 2, 3, 4, 6 -> 5 rows.
  EXPECT_EQ(parts.combined.size(), 5u);
  EXPECT_EQ(parts.combined.arity(), 1u);
}

TEST(CombinationTest, UniversalIsDivision) {
  auto db = MakeUniversityDb();
  // Professors e such that ALL sophomore-or-lower courses c have SOME
  // timetable entry by e: only nobody qualifies for ALL over {C10, C11}
  // (Alice teaches C11 but not C10).
  RunParts parts = RunThroughCombination(
      *db,
      "[<e.ename> OF EACH e IN employees: "
      "ALL c IN [EACH c IN courses: c.clevel <= sophomore] "
      "SOME t IN timetable ((t.tcnr = c.cnr) AND (t.tenr = e.enr))]",
      OptLevel::kOneStep);
  EXPECT_TRUE(parts.combined.empty());

  // Restrict to sophomore only: {C11} — Alice and Dave teach it.
  RunParts parts2 = RunThroughCombination(
      *db,
      "[<e.ename> OF EACH e IN employees: "
      "ALL c IN [EACH c IN courses: c.clevel = sophomore] "
      "SOME t IN timetable ((t.tcnr = c.cnr) AND (t.tenr = e.enr))]",
      OptLevel::kOneStep);
  EXPECT_EQ(parts2.combined.size(), 2u);
}

TEST(CombinationTest, DisjunctsUnion) {
  auto db = MakeUniversityDb();
  RunParts parts = RunThroughCombination(
      *db,
      "[<e.ename> OF EACH e IN employees: (e.estatus = professor) OR "
      "(e.estatus = student)]",
      OptLevel::kOneStep);
  EXPECT_EQ(parts.combined.size(), 5u);  // 4 professors + Erin
}

TEST(CombinationTest, FalseMatrixYieldsEmpty) {
  auto db = MakeUniversityDb();
  RunParts parts = RunThroughCombination(
      *db, "[<e.ename> OF EACH e IN employees: FALSE]", OptLevel::kOneStep);
  EXPECT_TRUE(parts.combined.empty());
  EXPECT_EQ(parts.combined.columns(), (std::vector<std::string>{"e"}));
}

TEST(CombinationTest, TrueMatrixYieldsFullRange) {
  auto db = MakeUniversityDb();
  RunParts parts = RunThroughCombination(
      *db, "[<e.ename> OF EACH e IN employees: TRUE]", OptLevel::kOneStep);
  EXPECT_EQ(parts.combined.size(), 6u);
}

TEST(CombinationTest, VariableAbsentFromConjunctionGetsFullProduct) {
  auto db = MakeUniversityDb();
  // Disjunct 1 references only e; disjunct 2 references e and t. Both are
  // extended to (e, t) tuples before the union — §3.3's n-tuple invariant.
  ExecStats stats;
  PlannerOptions options;
  options.level = OptLevel::kParallel;
  Result<PlannedQuery> planned = PlanQuery(
      *db,
      MustBind(*db,
               "[<e.ename> OF EACH e IN employees: (e.estatus = student) OR "
               "SOME t IN timetable ((t.tenr = e.enr))]"),
      options);
  ASSERT_TRUE(planned.ok());
  Result<CollectionResult> coll =
      ExecuteCollection(planned->plan, *db, &stats);
  ASSERT_TRUE(coll.ok());
  uint64_t before = stats.combination_rows;
  Result<RefRelation> combined =
      ExecuteCombination(planned->plan, *coll, &stats);
  ASSERT_TRUE(combined.ok());
  // Erin (student) + the 5 teaching employees.
  EXPECT_EQ(combined->size(), 6u);
  // The student disjunct had to be extended across all 6 timetable rows:
  // measurable combination work beyond the final 6 rows.
  EXPECT_GT(stats.combination_rows - before, 6u);
}

TEST(CombinationTest, EliminatedVariablesSkipDivision) {
  auto db = MakeUniversityDb();
  ExecStats stats;
  PlannerOptions options;
  options.level = OptLevel::kQuantPush;
  Result<PlannedQuery> planned =
      PlanQuery(*db, MustBind(*db, Example21QuerySource()), options);
  ASSERT_TRUE(planned.ok());
  ASSERT_FALSE(planned->plan.eliminated_vars.empty());
  Result<CollectionResult> coll =
      ExecuteCollection(planned->plan, *db, &stats);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(ExecuteCombination(planned->plan, *coll, &stats).ok());
  EXPECT_EQ(stats.division_input_rows, 0u);
}

}  // namespace
}  // namespace pascalr
