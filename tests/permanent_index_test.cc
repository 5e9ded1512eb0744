// Paper §3.2: "The first step [building an index] can be omitted, if
// permanent indexes exist." The planner option use_permanent_indexes
// reuses fresh catalog indexes for ungated, unextended index specs.

#include <string>

#include <gtest/gtest.h>

#include "exec/naive.h"
#include "opt/planner.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::FirstStrings;
using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::TupleStrings;

/// Runs `source` with permanent indexes on at O0-O4 and AUTO: each run
/// must match the naive oracle and borrow at least one permanent index.
void ExpectEveryLevelBorrowsAndMatchesOracle(const Database& db,
                                             const char* source) {
  const BoundQuery bound = MustBind(db, source);
  NaiveEvaluator naive(&db);
  Result<std::vector<Tuple>> expected = naive.Evaluate(bound);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected->empty()) << source;
  for (OptLevel level :
       {OptLevel::kNaive, OptLevel::kParallel, OptLevel::kOneStep,
        OptLevel::kRangeExt, OptLevel::kQuantPush, OptLevel::kAuto}) {
    const std::string where =
        std::string(source) + " at " + std::string(OptLevelToString(level));
    PlannerOptions options;
    options.level = level;
    options.use_permanent_indexes = true;
    Result<QueryRun> run = RunQuery(db, CloneBoundQuery(bound), options);
    ASSERT_TRUE(run.ok()) << run.status().ToString() << " " << where;
    EXPECT_EQ(TupleStrings(run->tuples), TupleStrings(*expected)) << where;
    EXPECT_GT(run->stats.permanent_index_hits, 0u) << where;
  }
}

const char* kQuery =
    "[<e.ename> OF EACH e IN employees: SOME t IN timetable "
    "((t.tenr = e.enr))]";

TEST(PermanentIndexTest, ReusesFreshCatalogIndex) {
  auto db = MakeUniversityDb();
  // The planner picks the build side by scan order; cover both candidates.
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  ASSERT_TRUE(db->EnsureIndex("employees", "enr", false).ok());

  PlannerOptions options;
  options.level = OptLevel::kParallel;
  options.use_permanent_indexes = true;
  Result<QueryRun> run = RunQuery(*db, MustBind(*db, kQuery), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(run->stats.permanent_index_hits, 1u);
  EXPECT_EQ(FirstStrings(run->tuples),
            (std::set<std::string>{"Alice", "Bob", "Carol", "Dave", "Frank"}));
}

TEST(PermanentIndexTest, DisabledByDefault) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  PlannerOptions options;
  options.level = OptLevel::kParallel;
  Result<QueryRun> run = RunQuery(*db, MustBind(*db, kQuery), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.permanent_index_hits, 0u);
}

TEST(PermanentIndexTest, NoIndexNoHit) {
  auto db = MakeUniversityDb();
  PlannerOptions options;
  options.level = OptLevel::kParallel;
  options.use_permanent_indexes = true;
  Result<QueryRun> run = RunQuery(*db, MustBind(*db, kQuery), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.permanent_index_hits, 0u);
  EXPECT_EQ(FirstStrings(run->tuples),
            (std::set<std::string>{"Alice", "Bob", "Carol", "Dave", "Frank"}));
}

TEST(PermanentIndexTest, StaleIndexIsNotUsed) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  // Mutate timetable: the permanent index is now stale and must not be
  // consulted (results must include the new entry).
  Relation* timetable = db->FindRelation("timetable");
  ASSERT_TRUE(timetable
                  ->Insert(Tuple{Value::MakeInt(5), Value::MakeInt(10),
                                 Value::MakeEnum(2), Value::MakeInt(9001000),
                                 Value::MakeString("R7")})
                  .ok());
  PlannerOptions options;
  options.level = OptLevel::kParallel;
  options.use_permanent_indexes = true;
  Result<QueryRun> run = RunQuery(*db, MustBind(*db, kQuery), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.permanent_index_hits, 0u);
  EXPECT_EQ(FirstStrings(run->tuples).count("Erin"), 1u);
}

/// True when the kAuto search of kQuery listed a permanent-index
/// candidate.
bool SearchConsidersPermanent(const Database& db) {
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  Result<PlannedQuery> planned = PlanQuery(db, MustBind(db, kQuery), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  return planned.ok() &&
         planned->cost_candidates.find("/perm") != std::string::npos;
}

TEST(PermanentIndexTest, SearchTriesPermanentIndexesOnlyWhenOneIsFresh) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  EXPECT_FALSE(SearchConsidersPermanent(*db)) << "no index";

  // An index over a relation the query does not range over cannot help.
  ASSERT_TRUE(db->EnsureIndex("papers", "penr", false).ok());
  EXPECT_FALSE(SearchConsidersPermanent(*db)) << "index on papers only";

  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  EXPECT_TRUE(SearchConsidersPermanent(*db)) << "fresh index";

  // A mutation makes the index stale.
  Relation* timetable = db->FindRelation("timetable");
  ASSERT_TRUE(timetable
                  ->Insert(Tuple{Value::MakeInt(5), Value::MakeInt(10),
                                 Value::MakeEnum(2), Value::MakeInt(9001000),
                                 Value::MakeString("R7")})
                  .ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  EXPECT_FALSE(SearchConsidersPermanent(*db)) << "stale index";

  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  EXPECT_TRUE(SearchConsidersPermanent(*db)) << "rebuilt index";
}

TEST(PermanentIndexTest, GatedSpecsNeverUsePermanent) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  // At O2 the gate on e does not touch the timetable index; at a level
  // where the timetable side carries a gate, the gated index must be
  // transient. Construct one: monadic term on t in the same conjunction.
  const char* gated_query =
      "[<e.ename> OF EACH e IN employees: SOME t IN timetable "
      "((t.tenr = e.enr) AND (t.ttime >= 9001000))]";
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.use_permanent_indexes = true;
  Result<QueryRun> run = RunQuery(*db, MustBind(*db, gated_query), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.permanent_index_hits, 0u);
}

TEST(PermanentIndexTest, ExtendedRangesNeverUsePermanent) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->EnsureIndex("papers", "penr", false).ok());
  // At O3 p's range becomes [papers: pyear = 1977]; the full-relation
  // permanent index on penr must not stand in for the restricted one.
  const char* query =
      "[<e.ename> OF EACH e IN employees: SOME p IN papers "
      "((p.pyear = 1977) AND (p.penr = e.enr))]";
  PlannerOptions options;
  options.level = OptLevel::kRangeExt;
  options.use_permanent_indexes = true;
  Result<QueryRun> run = RunQuery(*db, MustBind(*db, query), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stats.permanent_index_hits, 0u);
  EXPECT_EQ(FirstStrings(run->tuples),
            (std::set<std::string>{"Alice", "Carol", "Dave"}));
}

// An ORDERED permanent index serves dyadic ordering terms: its probes
// answer `<` and `>=` from the sorted run.
TEST(PermanentIndexTest, OrderedIndexServesOrderingTerms) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  // The planner picks the build side by scan order; cover both sides.
  ASSERT_TRUE(db->EnsureIndex("employees", "enr", true).ok());
  ASSERT_TRUE(db->EnsureIndex("papers", "penr", true).ok());
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", true).ok());
  ExpectEveryLevelBorrowsAndMatchesOracle(
      *db,
      "[<e.ename, p.ptitle> OF EACH e IN employees, EACH p IN papers: "
      "(p.penr < e.enr)]");
  ExpectEveryLevelBorrowsAndMatchesOracle(
      *db,
      "[<e.ename, t.troom> OF EACH e IN employees, EACH t IN timetable: "
      "(t.tenr >= e.enr)]");
}

// A hash permanent index can serve an ordering term too: its probe falls
// back to a scan of every entry.
TEST(PermanentIndexTest, HashIndexServesOrderingTermByScan) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ASSERT_TRUE(db->EnsureIndex("employees", "enr", false).ok());
  ASSERT_TRUE(db->EnsureIndex("papers", "penr", false).ok());
  ExpectEveryLevelBorrowsAndMatchesOracle(
      *db,
      "[<e.ename, p.ptitle> OF EACH e IN employees, EACH p IN papers: "
      "(p.penr > e.enr)]");
}

TEST(PermanentIndexTest, AllLevelsAgreeWithAndWithoutPermanentIndexes) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
  ASSERT_TRUE(db->EnsureIndex("timetable", "tcnr", false).ok());
  ASSERT_TRUE(db->EnsureIndex("papers", "penr", false).ok());
  for (int level = 0; level <= 4; ++level) {
    PlannerOptions plain;
    plain.level = static_cast<OptLevel>(level);
    PlannerOptions with_permanent = plain;
    with_permanent.use_permanent_indexes = true;

    auto a = RunQuery(*db, MustBind(*db, Example21QuerySource()), plain);
    auto b = RunQuery(*db, MustBind(*db, Example21QuerySource()),
                      with_permanent);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(FirstStrings(a->tuples), FirstStrings(b->tuples))
        << "level " << level;
  }
}

}  // namespace
}  // namespace pascalr
