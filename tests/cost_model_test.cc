// The cost model: selectivity estimates, q-error accuracy of predicted
// ExecStats against measured ExecStats across every strategy level, and
// the cost annotations in explain output.

#include "cost/cost_model.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "cost/selectivity.h"
#include "normalize/standard_form.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "pascalr/sample_db.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;

/// Estimates deemed accurate when max(est/actual, actual/est) stays below
/// this bound — comfortably inside what plan ranking needs.
constexpr double kQErrorBound = 1.5;

StandardForm FormOf(const Database& db, const std::string& source) {
  Result<StandardForm> sf = BuildStandardForm(MustBind(db, source));
  EXPECT_TRUE(sf.ok()) << sf.status().ToString();
  return std::move(sf).value();
}

double QError(double actual, double estimated) {
  double lo = std::max(1.0, std::min(actual, estimated));
  double hi = std::max(actual, estimated);
  return hi / lo;
}

TEST(SelectivityTest, DistinctAfterSelection) {
  EXPECT_NEAR(DistinctAfterSelection(10, 100, 100), 10.0, 1e-9);
  EXPECT_NEAR(DistinctAfterSelection(10, 100, 0), 0.0, 1e-9);
  // Keeping half the rows keeps almost every distinct value of a column
  // with many duplicates.
  double d = DistinctAfterSelection(10, 1000, 500);
  EXPECT_GT(d, 9.9);
  EXPECT_LE(d, 10.0);
}

TEST(SelectivityTest, MonadicUsesHistograms) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  StandardForm sf = FormOf(
      *db, "[<e.ename> OF EACH e IN employees: e.estatus = professor]");
  SelectivityEstimator est(*db, sf);
  ASSERT_EQ(sf.matrix.disjuncts.size(), 1u);
  ASSERT_EQ(sf.matrix.disjuncts[0].terms.size(), 1u);
  EXPECT_NEAR(est.Monadic(sf.matrix.disjuncts[0].terms[0]), 4.0 / 6.0, 1e-9);
}

TEST(SelectivityTest, DisjointStringDomainsGiveZeroJoinSelectivity) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  // Employee names (Alice..Frank) and room labels (R0..) never collide;
  // min/max bounds prove it without a histogram.
  StandardForm sf = FormOf(
      *db,
      "[<e.ename> OF EACH e IN employees: "
      "SOME t IN timetable (e.ename = t.troom)]");
  const JoinTerm* term = nullptr;
  for (const Conjunction& c : sf.matrix.disjuncts) {
    for (const JoinTerm& t : c.terms) {
      if (t.IsDyadic()) term = &t;
    }
  }
  ASSERT_NE(term, nullptr);
  SelectivityEstimator est(*db, sf);
  EXPECT_NEAR(est.DyadicPair(*term), 0.0, 1e-9);
}

TEST(SelectivityTest, EquiJoinUsesContainment) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  StandardForm sf = FormOf(
      *db,
      "[<e.ename> OF EACH e IN employees: "
      "SOME p IN papers (e.enr = p.penr)]");
  const JoinTerm* term = nullptr;
  for (const Conjunction& c : sf.matrix.disjuncts) {
    for (const JoinTerm& t : c.terms) {
      if (t.IsDyadic()) term = &t;
    }
  }
  ASSERT_NE(term, nullptr);
  SelectivityEstimator est(*db, sf);
  // 1/max(distinct(enr)=6, distinct(penr)=4).
  EXPECT_NEAR(est.DyadicPair(*term), 1.0 / 6.0, 1e-9);
}

TEST(SelectivityTest, ExtendedRangeSize) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  StandardForm sf = FormOf(*db, Example45QuerySource());
  SelectivityEstimator est(*db, sf);
  // Range of e: employees restricted to professors = 4 of 6.
  EXPECT_NEAR(est.RangeSize("e"), 4.0, 0.5);
}

void CheckQErrorAllLevels(const Database& db, const std::string& source,
                          const std::string& what) {
  for (int level = 0; level <= 4; ++level) {
    PlannerOptions options;
    options.level = static_cast<OptLevel>(level);
    Result<PlannedQuery> planned =
        PlanQuery(db, MustBind(db, source), options);
    ASSERT_TRUE(planned.ok()) << what << ": " << planned.status().ToString();
    CostEstimate estimate = EstimatePlanCost(planned->plan, db);

    Result<QueryRun> run = RunQuery(db, MustBind(db, source), options);
    ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();

    double q = QError(static_cast<double>(run->stats.TotalWork()),
                      static_cast<double>(estimate.predicted.TotalWork()));
    EXPECT_LE(q, kQErrorBound)
        << what << " at level " << level << ": measured "
        << run->stats.TotalWork() << " vs estimated "
        << estimate.predicted.TotalWork() << "\n  measured:  "
        << run->stats.ToString() << "\n  estimated: "
        << estimate.predicted.ToString();
  }
}

TEST(CostModelTest, QErrorWithinBoundOnSmallSampleDb) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  CheckQErrorAllLevels(*db, Example21QuerySource(), "example 2.1");
  CheckQErrorAllLevels(*db, Example45QuerySource(), "example 4.5");
}

TEST(CostModelTest, QErrorWithinBoundOnSyntheticDb) {
  auto db = MakeUniversityDb(/*populate=*/false);
  UniversityScale scale;
  scale.employees = 16;
  scale.papers = 32;
  scale.courses = 9;
  scale.timetable = 48;
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  CheckQErrorAllLevels(*db, Example21QuerySource(), "example 2.1 synthetic");
  CheckQErrorAllLevels(*db, Example45QuerySource(), "example 4.5 synthetic");
}

TEST(CostModelTest, PredictsPermanentIndexReuse) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  // Whichever side the planner indexes, a fresh permanent index exists.
  ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", /*ordered=*/false).ok());
  ASSERT_TRUE(db->EnsureIndex("employees", "enr", /*ordered=*/false).ok());
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.use_permanent_indexes = true;
  Result<PlannedQuery> planned = PlanQuery(
      *db,
      MustBind(*db,
               "[<e.ename> OF EACH e IN employees: "
               "SOME t IN timetable (e.enr = t.tenr)]"),
      options);
  ASSERT_TRUE(planned.ok());
  CostEstimate estimate = EstimatePlanCost(planned->plan, *db);
  EXPECT_GE(estimate.predicted.permanent_index_hits, 1u);
}

// ------------------------------------------------------------ explain

TEST(ExplainCostTest, AutoPlanPrintsCandidateTableAndEstimates) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  Result<PlannedQuery> planned =
      PlanQuery(*db, MustBind(*db, Example21QuerySource()), options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::string text = ExplainPlan(*planned);
  EXPECT_NE(text.find("cost-based selection:"), std::string::npos);
  EXPECT_NE(text.find("estimated work"), std::string::npos);
  EXPECT_NE(text.find("chosen: O"), std::string::npos);
  // All five strategy levels were considered, each in a row of its own.
  for (int level = 0; level <= 4; ++level) {
    EXPECT_NE(text.find("\n  O" + std::to_string(level) + " "),
              std::string::npos)
        << "candidate table lacks level " << level << "\n" << text;
  }
}

TEST(ExplainCostTest, EstimatedVsActualCountersRender) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  Result<QueryRun> run =
      RunQuery(*db, MustBind(*db, Example21QuerySource()), options);
  ASSERT_TRUE(run.ok());
  std::string text = ExplainEstimatedVsActual(run->planned, run->stats);
  EXPECT_NE(text.find("estimated vs actual"), std::string::npos);
  for (const char* counter :
       {"elements_scanned", "index_probes", "single_list_refs",
        "indirect_join_refs", "combination_rows", "division_input_rows",
        "quantifier_probes", "comparisons", "dereferences", "total_work"}) {
    EXPECT_NE(text.find(counter), std::string::npos) << counter;
  }
}

TEST(ExplainCostTest, SessionExplainUnderAutoReportsActuals) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session
                  .ExecuteScript("ANALYZE;\nSET OPTLEVEL AUTO;\nEXPLAIN " +
                                 Example21QuerySource() + ";")
                  .ok());
  EXPECT_NE(out.str().find("cost-based selection:"), std::string::npos);
  EXPECT_NE(out.str().find("estimated vs actual"), std::string::npos);
  EXPECT_NE(out.str().find("total_work"), std::string::npos);
}

}  // namespace
}  // namespace pascalr
