#include "opt/explain.h"

#include <gtest/gtest.h>

#include "pascalr/sample_db.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;

std::string ExplainAt(const Database& db, const std::string& query,
                      OptLevel level) {
  PlannerOptions options;
  options.level = level;
  Result<PlannedQuery> planned = PlanQuery(db, MustBind(db, query), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  return ExplainPlan(*planned);
}

TEST(ExplainTest, NaiveLevelShowsRepeatedScans) {
  auto db = MakeUniversityDb();
  std::string text = ExplainAt(*db, Example21QuerySource(), OptLevel::kNaive);
  EXPECT_NE(text.find("O0 (naive Palermo)"), std::string::npos);
  // employees is scanned for several separate structures.
  size_t first = text.find("scan employees");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(text.find("scan employees", first + 1), std::string::npos);
}

TEST(ExplainTest, Strategy1OneScanPerRelation) {
  auto db = MakeUniversityDb();
  std::string text =
      ExplainAt(*db, Example21QuerySource(), OptLevel::kParallel);
  size_t first = text.find("scan employees");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("scan employees", first + 1), std::string::npos);
}

TEST(ExplainTest, Strategy2ShowsGates) {
  auto db = MakeUniversityDb();
  std::string text =
      ExplainAt(*db, Example21QuerySource(), OptLevel::kOneStep);
  EXPECT_NE(text.find(" IF "), std::string::npos);
  EXPECT_NE(text.find("professor"), std::string::npos);
}

TEST(ExplainTest, Strategy3ShowsExtendedRanges) {
  auto db = MakeUniversityDb();
  std::string text =
      ExplainAt(*db, Example21QuerySource(), OptLevel::kRangeExt);
  EXPECT_NE(text.find("range of e extended"), std::string::npos);
  EXPECT_NE(text.find("[EACH p IN papers: (p.pyear = 1977)]"),
            std::string::npos);
}

TEST(ExplainTest, Strategy4ShowsValueListsAndEliminations) {
  auto db = MakeUniversityDb();
  std::string text =
      ExplainAt(*db, Example21QuerySource(), OptLevel::kQuantPush);
  EXPECT_NE(text.find("evaluated in the collection phase"),
            std::string::npos);
  EXPECT_NE(text.find("value list"), std::string::npos);
  EXPECT_NE(text.find("already evaluated in collection phase"),
            std::string::npos);
}

TEST(ExplainTest, DivisionAndProjectionAnnounced) {
  auto db = MakeUniversityDb();
  std::string text =
      ExplainAt(*db, Example21QuerySource(), OptLevel::kOneStep);
  EXPECT_NE(text.find("ALL p: division"), std::string::npos);
  EXPECT_NE(text.find("SOME t: projection"), std::string::npos);
  EXPECT_NE(text.find("construction phase"), std::string::npos);
}

TEST(ExplainTest, CollectionExhibitListsFigure2Structures) {
  auto db = MakeUniversityDb();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  Result<QueryRun> run =
      RunQuery(*db, MustBind(*db, Example21QuerySource()), options);
  ASSERT_TRUE(run.ok());
  std::string text = ExplainCollection(run->planned.plan, run->collection);
  EXPECT_NE(text.find("rows"), std::string::npos);
  EXPECT_NE(text.find("range(e): 6 refs"), std::string::npos);
  EXPECT_NE(text.find("ind_"), std::string::npos);
}

TEST(ExplainTest, AdaptationNotesSurface) {
  auto db = MakeUniversityDb();
  db->FindRelation("papers")->Clear();
  std::string text =
      ExplainAt(*db, Example21QuerySource(), OptLevel::kOneStep);
  EXPECT_NE(text.find("runtime adaptation"), std::string::npos);
  EXPECT_NE(text.find("Lemma 1"), std::string::npos);
}

}  // namespace
}  // namespace pascalr
