// The plan-search driver (OptLevel::kAuto): the acceptance bar is that on
// the sample database plus a batch of generated queries, the auto-chosen
// plan's measured work never exceeds 1.25x the best fixed-level plan.

#include <gtest/gtest.h>

#include "cost/plan_search.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "pascalr/sample_db.h"
#include "pascalr/session.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::QueryGenerator;

constexpr double kRegretBound = 1.25;

struct LevelRun {
  OptLevel level = OptLevel::kNaive;
  uint64_t work = 0;
};

/// Runs `sel` at every fixed level and returns the cheapest by measured
/// TotalWork (levels are tried in ascending order; ties keep the lower).
Result<LevelRun> BestFixedLevel(const Database& db, const SelectionExpr& sel) {
  Binder binder(&db);
  LevelRun best;
  bool have = false;
  for (int level = 0; level <= 4; ++level) {
    PASCALR_ASSIGN_OR_RETURN(BoundQuery bound, binder.Bind(sel.Clone()));
    PlannerOptions options;
    options.level = static_cast<OptLevel>(level);
    PASCALR_ASSIGN_OR_RETURN(QueryRun run,
                             RunQuery(db, std::move(bound), options));
    if (!have || run.stats.TotalWork() < best.work) {
      best.level = options.level;
      best.work = run.stats.TotalWork();
      have = true;
    }
  }
  return best;
}

Result<QueryRun> RunAuto(const Database& db, const SelectionExpr& sel) {
  Binder binder(&db);
  PASCALR_ASSIGN_OR_RETURN(BoundQuery bound, binder.Bind(sel.Clone()));
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  return RunQuery(db, std::move(bound), options);
}

void ExpectAutoWithinRegret(const Database& db, const SelectionExpr& sel,
                            const std::string& what) {
  Result<LevelRun> best = BestFixedLevel(db, sel);
  ASSERT_TRUE(best.ok()) << what << ": " << best.status().ToString();
  Result<QueryRun> auto_run = RunAuto(db, sel);
  ASSERT_TRUE(auto_run.ok()) << what << ": "
                             << auto_run.status().ToString();
  EXPECT_TRUE(auto_run->planned.cost_based) << what;
  uint64_t auto_work = auto_run->stats.TotalWork();
  double bound =
      kRegretBound * static_cast<double>(best->work);
  EXPECT_LE(static_cast<double>(auto_work), bound)
      << what << ": auto chose "
      << OptLevelToString(auto_run->planned.plan.level) << " with work "
      << auto_work << " but best fixed level "
      << OptLevelToString(best->level) << " needs only " << best->work
      << "\n"
      << auto_run->planned.cost_candidates
      << ExplainEstimatedVsActual(auto_run->planned, auto_run->stats);
}

SelectionExpr ParseSelection(const std::string& source) {
  Parser parser(source);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  return std::move(sel).value();
}

TEST(AutoPlannerTest, PaperExamplesWithinRegretBound) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ExpectAutoWithinRegret(*db, ParseSelection(Example21QuerySource()),
                         "example 2.1 (small)");
  ExpectAutoWithinRegret(*db, ParseSelection(Example45QuerySource()),
                         "example 4.5 (small)");
}

TEST(AutoPlannerTest, PaperExamplesOnSyntheticDbWithinRegretBound) {
  auto db = MakeUniversityDb(/*populate=*/false);
  // Kept small enough that the *naive* baseline stays feasible: the
  // regret comparison must run every fixed level, and O0 materialises
  // near-Cartesian intermediates.
  UniversityScale scale;
  scale.employees = 16;
  scale.papers = 32;
  scale.courses = 9;
  scale.timetable = 48;
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ExpectAutoWithinRegret(*db, ParseSelection(Example21QuerySource()),
                         "example 2.1 (synthetic)");
  ExpectAutoWithinRegret(*db, ParseSelection(Example45QuerySource()),
                         "example 4.5 (synthetic)");
}

TEST(AutoPlannerTest, GeneratedQueriesWithinRegretBound) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  size_t checked = 0;
  for (uint64_t seed = 1; checked < 24 && seed <= 200; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel = gen.RandomSelection();
    // Only queries every fixed level can run qualify as a comparison.
    Result<LevelRun> best = BestFixedLevel(*db, sel);
    if (!best.ok()) continue;
    ++checked;
    ExpectAutoWithinRegret(*db, sel,
                           "generated seed " + std::to_string(seed));
  }
  EXPECT_GE(checked, 24u);
}

TEST(AutoPlannerTest, GeneratedTwoFreeQueriesWithinRegretBound) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  size_t checked = 0;
  for (uint64_t seed = 300; checked < 8 && seed <= 400; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel = gen.RandomSelectionTwoFree();
    Result<LevelRun> best = BestFixedLevel(*db, sel);
    if (!best.ok()) continue;
    ++checked;
    ExpectAutoWithinRegret(*db, sel,
                           "generated two-free seed " + std::to_string(seed));
  }
  EXPECT_GE(checked, 8u);
}

TEST(AutoPlannerTest, AutoChoosesConcreteLevelAndReportsCandidates) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Result<QueryRun> run =
      RunAuto(*db, ParseSelection(Example21QuerySource()));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->planned.cost_based);
  EXPECT_LE(static_cast<int>(run->planned.plan.level), 4);
  EXPECT_NE(run->planned.cost_candidates.find("chosen: O"),
            std::string::npos);
  // Every strategy level appears in the candidate table.
  for (int level = 0; level <= 4; ++level) {
    EXPECT_NE(run->planned.cost_candidates.find("O" + std::to_string(level)),
              std::string::npos);
  }
}

TEST(AutoPlannerTest, PruningNeverDiscardsAWinningNaiveCandidate) {
  // Soundness sweep: wherever the search pruned O0 (term-heavy queries
  // whose per-term scans alone exceed the best grouped plan's cost),
  // compiling O0 by hand must cost at least the chosen candidate.
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  size_t pruned_queries = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel = gen.RandomSelection();
    Binder binder(db.get());
    Result<BoundQuery> bound = binder.Bind(sel.Clone());
    if (!bound.ok()) continue;
    PlannerOptions auto_options;
    auto_options.level = OptLevel::kAuto;
    Result<PlannedQuery> chosen =
        PlanQuery(*db, CloneBoundQuery(*bound), auto_options);
    if (!chosen.ok()) continue;
    if (chosen->cost_candidates.find("pruned") == std::string::npos) {
      continue;
    }
    ++pruned_queries;
    PlannerOptions naive_options;
    naive_options.level = OptLevel::kNaive;
    Result<PlannedQuery> naive =
        PlanQuery(*db, CloneBoundQuery(*bound), naive_options);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    CostEstimate naive_cost = EstimatePlanCost(naive->plan, *db);
    EXPECT_GE(naive_cost.weighted_cost, chosen->estimate.weighted_cost)
        << "seed " << seed << "\n"
        << chosen->cost_candidates;
  }
  // The sweep is only meaningful if pruning fired at least once.
  EXPECT_GE(pruned_queries, 1u);
}

// ----------------------------------------------------------------------
// The same regret bound through the session surface: every run below goes
// through a prepared query's cursor, against the best fixed level executed
// the same way.

struct PipelinedRun {
  OptLevel level = OptLevel::kNaive;
  uint64_t work = 0;
  std::string candidates;  ///< kAuto only
};

/// Drains `sel` through a prepared query's cursor at the given level and
/// returns the measured work.
Result<PipelinedRun> RunPipelined(Database* db, const SelectionExpr& sel,
                                  OptLevel level) {
  Session session(db);
  session.options().level = level;
  PASCALR_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           session.PrepareSelection(sel.Clone()));
  PASCALR_ASSIGN_OR_RETURN(PreparedExecution exec, prepared.Execute());
  PipelinedRun out;
  out.work = exec.stats.TotalWork();
  const PlannedQuery* planned = prepared.planned();
  if (planned != nullptr) {
    out.level = planned->plan.level;
    out.candidates = planned->cost_candidates;
  }
  return out;
}

Result<PipelinedRun> BestFixedLevelPipelined(Database* db,
                                             const SelectionExpr& sel) {
  PipelinedRun best;
  bool have = false;
  for (int level = 0; level <= 4; ++level) {
    PASCALR_ASSIGN_OR_RETURN(
        PipelinedRun run,
        RunPipelined(db, sel, static_cast<OptLevel>(level)));
    if (!have || run.work < best.work) {
      best = run;
      best.level = static_cast<OptLevel>(level);
      have = true;
    }
  }
  return best;
}

/// `best` is the caller's BestFixedLevelPipelined result — callers have
/// already run the fixed-level sweep to qualify the query, so it is
/// passed in rather than recomputed (it is the dominant cost per seed).
void ExpectPipelinedAutoWithinRegret(Database* db, const SelectionExpr& sel,
                                     const PipelinedRun& best,
                                     const std::string& what) {
  Result<PipelinedRun> auto_run = RunPipelined(db, sel, OptLevel::kAuto);
  ASSERT_TRUE(auto_run.ok()) << what << ": "
                             << auto_run.status().ToString();
  double bound = kRegretBound * static_cast<double>(best.work);
  EXPECT_LE(static_cast<double>(auto_run->work), bound)
      << what << ": pipelined auto chose "
      << OptLevelToString(auto_run->level) << " with work "
      << auto_run->work << " but best fixed level "
      << OptLevelToString(best.level) << " needs only " << best.work
      << "\n"
      << auto_run->candidates;
}

TEST(AutoPlannerTest, PipelinedRankingPaperExamplesWithinRegretBound) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  for (const auto& [source, what] :
       {std::pair<std::string, std::string>{Example21QuerySource(),
                                            "example 2.1 (pipelined)"},
        {Example45QuerySource(), "example 4.5 (pipelined)"}}) {
    SelectionExpr sel = ParseSelection(source);
    Result<PipelinedRun> best = BestFixedLevelPipelined(db.get(), sel);
    ASSERT_TRUE(best.ok()) << what << ": " << best.status().ToString();
    ExpectPipelinedAutoWithinRegret(db.get(), sel, *best, what);
  }
}

TEST(AutoPlannerTest, PipelinedRankingGeneratedQueriesWithinRegretBound) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  size_t checked = 0;
  for (uint64_t seed = 1; checked < 32 && seed <= 300; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel =
        seed % 3 == 0 ? gen.RandomSelectionTwoFree() : gen.RandomSelection();
    // Only queries every fixed level can run qualify as a comparison.
    Result<PipelinedRun> best = BestFixedLevelPipelined(db.get(), sel);
    if (!best.ok()) continue;
    ++checked;
    ExpectPipelinedAutoWithinRegret(
        db.get(), sel, *best,
        "pipelined generated seed " + std::to_string(seed));
  }
  EXPECT_GE(checked, 32u);
}

}  // namespace
}  // namespace pascalr
