// Catalog statistics: the ANALYZE pass, histogram estimates, and the
// mod_count-based invalidation contract on Database.

#include "catalog/relation_stats.h"

#include <gtest/gtest.h>

#include "pascalr/sample_db.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;

TEST(RelationStatsTest, CardinalityDistinctAndMinMax) {
  auto db = MakeUniversityDb();
  RelationStats stats = ComputeRelationStats(*db->FindRelation("employees"));
  EXPECT_EQ(stats.relation, "employees");
  EXPECT_EQ(stats.cardinality, 6u);
  ASSERT_EQ(stats.columns.size(), 3u);

  const ColumnStats& enr = stats.columns[0];
  EXPECT_EQ(enr.name, "enr");
  EXPECT_EQ(enr.distinct, 6u);
  EXPECT_TRUE(enr.numeric);
  ASSERT_TRUE(enr.has_min_max);
  EXPECT_EQ(enr.min.AsInt(), 1);
  EXPECT_EQ(enr.max.AsInt(), 6);

  const ColumnStats& ename = stats.columns[1];
  EXPECT_EQ(ename.distinct, 6u);
  EXPECT_FALSE(ename.numeric);  // strings carry no histogram
  ASSERT_TRUE(ename.has_min_max);
  EXPECT_EQ(ename.min.AsString(), "Alice");
  EXPECT_EQ(ename.max.AsString(), "Frank");

  // estatus: student=0 x1, assistant=2 x1, professor=3 x4.
  const ColumnStats& estatus = stats.columns[2];
  EXPECT_EQ(estatus.distinct, 3u);
  EXPECT_TRUE(estatus.numeric);
  EXPECT_EQ(estatus.histogram.total, 6u);
}

TEST(RelationStatsTest, HistogramEqualitySelectivityIsExactOnSmallDomains) {
  auto db = MakeUniversityDb();
  RelationStats employees =
      ComputeRelationStats(*db->FindRelation("employees"));
  // 4 of 6 employees are professors (ordinal 3); single-value buckets
  // answer equality exactly.
  double sel =
      employees.columns[2].Selectivity(CompareOp::kEq, Value::MakeEnum(3));
  EXPECT_NEAR(sel, 4.0 / 6.0, 1e-9);

  RelationStats papers = ComputeRelationStats(*db->FindRelation("papers"));
  // 3 of 5 papers are from 1977.
  double sel77 =
      papers.columns[1].Selectivity(CompareOp::kEq, Value::MakeInt(1977));
  EXPECT_NEAR(sel77, 3.0 / 5.0, 1e-9);
}

TEST(RelationStatsTest, HistogramRangeSelectivity) {
  auto db = MakeUniversityDb();
  RelationStats courses = ComputeRelationStats(*db->FindRelation("courses"));
  // clevel <= sophomore (ordinal 1): 2 of 4 courses.
  double sel =
      courses.columns[1].Selectivity(CompareOp::kLe, Value::MakeEnum(1));
  EXPECT_NEAR(sel, 0.5, 1e-9);
  // Out-of-range probes resolve exactly from min/max.
  EXPECT_NEAR(
      courses.columns[1].Selectivity(CompareOp::kLt, Value::MakeEnum(0)),
      0.0, 1e-9);
  EXPECT_NEAR(
      courses.columns[1].Selectivity(CompareOp::kLe, Value::MakeEnum(3)),
      1.0, 1e-9);
}

TEST(RelationStatsTest, StringColumnsFallBackToDistinctCounts) {
  auto db = MakeUniversityDb();
  RelationStats employees =
      ComputeRelationStats(*db->FindRelation("employees"));
  double sel = employees.columns[1].Selectivity(
      CompareOp::kEq, Value::MakeString("Alice"));
  EXPECT_NEAR(sel, 1.0 / 6.0, 1e-9);
  // Below/above the observed bounds: certain misses.
  EXPECT_NEAR(employees.columns[1].Selectivity(CompareOp::kEq,
                                               Value::MakeString("ZZZ")),
              0.0, 1e-9);
}

TEST(DatabaseStatsTest, AnalyzeCachesUntilMutation) {
  auto db = MakeUniversityDb();
  EXPECT_EQ(db->FindFreshStats("employees"), nullptr);

  Result<const RelationStats*> stats = db->Analyze("employees");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)->cardinality, 6u);
  EXPECT_EQ(db->FindFreshStats("employees"), *stats);

  // A mutation invalidates the cached statistics...
  Relation* employees = db->FindRelation("employees");
  ASSERT_TRUE(employees
                  ->Insert(Tuple{Value::MakeInt(7), Value::MakeString("Gus"),
                                 Value::MakeEnum(0)})
                  .ok());
  EXPECT_EQ(db->FindFreshStats("employees"), nullptr);

  // ...and the next ANALYZE recomputes.
  Result<const RelationStats*> fresh = db->Analyze("employees");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->cardinality, 7u);
  EXPECT_NE(db->FindFreshStats("employees"), nullptr);
}

TEST(DatabaseStatsTest, AnalyzeAllAndUnknownRelation) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  for (const std::string& name : db->RelationNames()) {
    EXPECT_NE(db->FindFreshStats(name), nullptr) << name;
  }
  EXPECT_FALSE(db->Analyze("nonexistent").ok());
}

TEST(DatabaseStatsTest, DropRelationDiscardsStats) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->Analyze("papers").ok());
  ASSERT_TRUE(db->DropRelation("papers").ok());
  EXPECT_EQ(db->FindFreshStats("papers"), nullptr);
}

TEST(SessionStatsTest, AnalyzeStatement) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session.ExecuteScript("ANALYZE employees;").ok());
  EXPECT_NE(out.str().find("employees: 6 elements"), std::string::npos);
  EXPECT_NE(db->FindFreshStats("employees"), nullptr);

  ASSERT_TRUE(session.ExecuteScript("ANALYZE;").ok());
  EXPECT_NE(out.str().find("analyzed 4 relations"), std::string::npos);
  EXPECT_NE(db->FindFreshStats("timetable"), nullptr);
}

TEST(SessionStatsTest, AnalyzeAndSetAreNotReservedWords) {
  // ANALYZE and SET are contextual keywords: relations and components
  // may keep those names.
  Database db;
  std::ostringstream out;
  Session session(&db, &out);
  Status st = session.ExecuteScript(
      "VAR set : RELATION <a> OF RECORD a : 1..99; analyze : 1..99 END;\n"
      "set :+ [<1, 2>];\n"
      "out := [<x.analyze> OF EACH x IN set: x.a < 10];\n"
      "PRINT out;\n"
      "ANALYZE set;\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.str().find("<2>"), std::string::npos);
  EXPECT_NE(out.str().find("set: 1 elements"), std::string::npos);
}

TEST(SessionStatsTest, SetStatementDrivesPlannerOptions) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  ASSERT_TRUE(session.ExecuteScript("SET OPTLEVEL AUTO;").ok());
  EXPECT_EQ(session.options().level, OptLevel::kAuto);
  ASSERT_TRUE(session.ExecuteScript("SET OPTLEVEL 2;").ok());
  EXPECT_EQ(session.options().level, OptLevel::kOneStep);
  // One division algorithm: DIVISION is an unknown option like any other
  // (option names are matched case-insensitively).
  Status division = session.ExecuteScript("SET division sort;");
  EXPECT_EQ(division.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(division.message().find("unknown option 'division'"),
            std::string::npos)
      << division.ToString();
  ASSERT_TRUE(session.ExecuteScript("SET PERMINDEXES ON;").ok());
  EXPECT_TRUE(session.options().use_permanent_indexes);
  EXPECT_FALSE(session.ExecuteScript("SET OPTLEVEL 9;").ok());
  EXPECT_FALSE(session.ExecuteScript("SET NOSUCH thing;").ok());
}

}  // namespace
}  // namespace pascalr
