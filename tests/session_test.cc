#include "pascalr/session.h"

#include <sstream>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace pascalr {
namespace {

TEST(SessionTest, DeclaresTypesAndRelations) {
  Database db;
  Session session(&db);
  Status st = session.ExecuteScript(R"(
    TYPE color = (red, green, blue);
    VAR paint : RELATION <pid> OF RECORD
          pid : 1..999; hue : color; label : STRING(8) END;
  )");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_NE(db.FindEnum("color"), nullptr);
  Relation* paint = db.FindRelation("paint");
  ASSERT_NE(paint, nullptr);
  EXPECT_EQ(paint->schema().num_components(), 3u);
  EXPECT_EQ(paint->schema().component(1).type.kind(), TypeKind::kEnum);
}

TEST(SessionTest, InsertAndDelete) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session
                  .ExecuteScript(R"(
    TYPE color = (red, green, blue);
    VAR paint : RELATION <pid> OF RECORD
          pid : 1..999; hue : color END;
    paint :+ [<1, red>];
    paint :+ [<2, blue>];
  )")
                  .ok());
  EXPECT_EQ(db.FindRelation("paint")->cardinality(), 2u);

  // Duplicate key rejected.
  Status dup = session.ExecuteScript("paint :+ [<1, green>];");
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(session.ExecuteScript("paint :- [<1>];").ok());
  EXPECT_EQ(db.FindRelation("paint")->cardinality(), 1u);
  EXPECT_EQ(session.ExecuteScript("paint :- [<1>];").code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, InsertErrors) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session
                  .ExecuteScript(R"(
    VAR r : RELATION <a> OF RECORD a : 1..9; s : STRING(3) END;
  )")
                  .ok());
  // Arity mismatch.
  EXPECT_EQ(session.ExecuteScript("r :+ [<1>];").code(),
            StatusCode::kInvalidArgument);
  // Kind mismatch.
  EXPECT_EQ(session.ExecuteScript("r :+ [<'x', 'y'>];").code(),
            StatusCode::kTypeMismatch);
  // Subrange violation surfaces from the relation.
  EXPECT_EQ(session.ExecuteScript("r :+ [<99, 'y'>];").code(),
            StatusCode::kOutOfRange);
  // Unknown relation.
  EXPECT_EQ(session.ExecuteScript("zz :+ [<1>];").code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, AssignmentCreatesResultRelation) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(CreateUniversitySchema(&db).ok());
  ASSERT_TRUE(PopulateSmallExample(&db).ok());
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "profs := [<e.ename> OF EACH e IN employees: "
                      "e.estatus = professor];")
                  .ok());
  Relation* profs = db.FindRelation("profs");
  ASSERT_NE(profs, nullptr);
  EXPECT_EQ(profs->cardinality(), 4u);
  EXPECT_EQ(profs->schema().component(0).name, "ename");

  // Re-assignment replaces the relation.
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "profs := [<e.ename> OF EACH e IN employees: "
                      "e.estatus = student];")
                  .ok());
  EXPECT_EQ(db.FindRelation("profs")->cardinality(), 1u);
}

TEST(SessionTest, QueryResultsCanBeQueried) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(CreateUniversitySchema(&db).ok());
  ASSERT_TRUE(PopulateSmallExample(&db).ok());
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "profs := [<e.enr, e.ename> OF EACH e IN employees: "
                      "e.estatus = professor];")
                  .ok());
  // The derived relation participates in further selections.
  auto run = session.Query(
      "[<x.ename> OF EACH x IN profs: SOME t IN timetable "
      "((t.tenr = x.enr))]");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(testing_util::FirstStrings(run->tuples),
            (std::set<std::string>{"Alice", "Bob", "Carol", "Frank"}));
}

TEST(SessionTest, AssignmentReadsItsOwnTargetsOldContents) {
  // `:=` drains its selection to the end before it drops the target, so
  // a selection over the target itself sees the previous contents.
  Database db;
  Session session(&db);
  ASSERT_TRUE(CreateUniversitySchema(&db).ok());
  ASSERT_TRUE(PopulateSmallExample(&db).ok());
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "profs := [<e.enr, e.ename> OF EACH e IN employees: "
                      "e.estatus = professor];")
                  .ok());
  std::set<std::string> expected;
  size_t before = 0;
  db.FindRelation("profs")->Scan([&](const Ref&, const Tuple& tuple) {
    ++before;
    if (tuple.at(0).AsInt() < 3) expected.insert(tuple.ToString());
    return true;
  });
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), before);

  Status st = session.ExecuteScript(
      "profs := [<p.enr, p.ename> OF EACH p IN profs: p.enr < 3];");
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::set<std::string> got;
  db.FindRelation("profs")->Scan([&](const Ref&, const Tuple& tuple) {
    got.insert(tuple.ToString());
    return true;
  });
  EXPECT_EQ(got, expected);
}

TEST(SessionTest, PrintWritesToStream) {
  Database db;
  std::ostringstream out;
  Session session(&db, &out);
  ASSERT_TRUE(session
                  .ExecuteScript(R"(
    VAR r : RELATION <a> OF RECORD a : 1..9 END;
    r :+ [<3>];
    PRINT r;
  )")
                  .ok());
  EXPECT_NE(out.str().find("r (1 elements)"), std::string::npos);
  EXPECT_NE(out.str().find("<3>"), std::string::npos);
}

TEST(SessionTest, ExplainWritesPlan) {
  Database db;
  std::ostringstream out;
  Session session(&db, &out);
  ASSERT_TRUE(CreateUniversitySchema(&db).ok());
  ASSERT_TRUE(PopulateSmallExample(&db).ok());
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "EXPLAIN [<e.ename> OF EACH e IN employees: "
                      "e.estatus = professor];")
                  .ok());
  EXPECT_NE(out.str().find("optimization level"), std::string::npos);
  EXPECT_NE(out.str().find("collection phase"), std::string::npos);
}

TEST(SessionTest, ParseErrorsPropagate) {
  Database db;
  Session session(&db);
  EXPECT_EQ(session.ExecuteScript("PRINT ;").code(), StatusCode::kParseError);
  EXPECT_EQ(session.Query("[<oops]").status().code(),
            StatusCode::kParseError);
}

TEST(SessionTest, NonEnumTypeDeclarationsRejectedWithGuidance) {
  Database db;
  Session session(&db);
  Status st = session.ExecuteScript("TYPE year = 1900..1999;");
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST(SessionTest, OptionsControlPlanning) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(CreateUniversitySchema(&db).ok());
  ASSERT_TRUE(PopulateSmallExample(&db).ok());
  session.options().level = OptLevel::kNaive;
  auto naive_run = session.Query(Example21QuerySource());
  ASSERT_TRUE(naive_run.ok());
  EXPECT_EQ(naive_run->planned.plan.level, OptLevel::kNaive);

  session.options().level = OptLevel::kQuantPush;
  auto opt_run = session.Query(Example21QuerySource());
  ASSERT_TRUE(opt_run.ok());
  EXPECT_LT(opt_run->stats.TotalWork(), naive_run->stats.TotalWork());
}

TEST(SessionTest, TotalStatsAccumulate) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(CreateUniversitySchema(&db).ok());
  ASSERT_TRUE(PopulateSmallExample(&db).ok());
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  uint64_t after_one = session.total_stats().TotalWork();
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  EXPECT_GT(session.total_stats().TotalWork(), after_one);
}

}  // namespace
}  // namespace pascalr
