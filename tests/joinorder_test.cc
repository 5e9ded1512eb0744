// The combination phase's one join order: the containment estimate the
// greedy order and the cost model share, the greedy order's tie-breaks
// and Cartesian deferral on hand-built inputs, and — end to end — that
// generated multi-relation queries joined in that order return exactly
// the naive oracle's set.

#include <gtest/gtest.h>

#include <map>

#include "calculus/printer.h"
#include "exec/naive.h"
#include "joinorder/heuristics.h"
#include "opt/planner.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

/// The column named `name`: columns are variable ids in name order.
VarId Col(const std::string& name) {
  static const VarIds* const kIds = new VarIds(std::map<std::string, int>{
      {"a", 0}, {"b", 0}, {"c", 0}, {"x", 0}, {"y", 0}, {"z", 0}});
  return kIds->Of(name);
}

EstRel MakeRel(double rows,
               std::vector<std::pair<std::string, double>> distinct) {
  EstRel rel;
  rel.rows = rows;
  for (auto& [col, dc] : distinct) rel.Set(Col(col), dc);
  return rel;
}

/// Column `name`'s distinct count in `rel` (-1 when absent).
double DistinctOf(const EstRel& rel, const std::string& name) {
  const double* dc = rel.Find(Col(name));
  return dc == nullptr ? -1.0 : *dc;
}

/// Input positions of `order`, in join order.
std::vector<size_t> Inputs(const JoinOrder& order) {
  std::vector<size_t> inputs;
  for (const JoinStep& step : order) inputs.push_back(step.input);
  return inputs;
}

TEST(JoinEstimateTest, UsesContainmentAndCapsDistincts) {
  EstRel a = MakeRel(100, {{"x", 10}, {"y", 50}});
  EstRel b = MakeRel(40, {{"y", 20}, {"z", 40}});
  EstRel j = JoinEstimate(a, b);
  // 100 * 40 / max(50, 20) shared-column containment.
  EXPECT_DOUBLE_EQ(j.rows, 80.0);
  EXPECT_DOUBLE_EQ(DistinctOf(j, "y"), 20.0);  // min of the two sides
  EXPECT_DOUBLE_EQ(DistinctOf(j, "x"), 10.0);
  EXPECT_DOUBLE_EQ(DistinctOf(j, "z"), 40.0);
  EXPECT_EQ(SharedColumns(a, b), std::vector<VarId>{Col("y")});
}

TEST(GreedyJoinOrderTest, MirrorsExecutorTieBreaks) {
  // All inputs share a column; sizes 5,3,3,4 — first minimum starts, then
  // smallest-remaining with first-wins ties: 1, 2, 3, 0.
  std::vector<EstRel> inputs = {
      MakeRel(5, {{"x", 5}}),
      MakeRel(3, {{"x", 3}}),
      MakeRel(3, {{"x", 3}}),
      MakeRel(4, {{"x", 4}}),
  };
  JoinOrder order = GreedyJoinOrder(inputs);
  EXPECT_EQ(Inputs(order), (std::vector<size_t>{1, 2, 3, 0}));
}

TEST(GreedyJoinOrderTest, StepsCarryJoinColumnsAndEstimates) {
  std::vector<EstRel> inputs = {
      MakeRel(10, {{"a", 10}}),             // 0: R
      MakeRel(100, {{"a", 10}, {"b", 2}}),  // 1: S1
      MakeRel(120, {{"a", 120}, {"c", 4}}),  // 2: S2
  };
  JoinOrder order = GreedyJoinOrder(inputs);
  ASSERT_EQ(Inputs(order), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(order[0].join_columns.empty());
  EXPECT_DOUBLE_EQ(order[0].est_rows, 10.0);  // the input's own rows
  EXPECT_EQ(order[1].join_columns, std::vector<VarId>{Col("a")});
  EXPECT_DOUBLE_EQ(order[1].est_rows, 100.0);  // 10 * 100 / 10
  EXPECT_EQ(order[2].join_columns, std::vector<VarId>{Col("a")});
  EXPECT_DOUBLE_EQ(order[2].est_rows, 100.0);  // 100 * 120 / 120
  EXPECT_TRUE(GreedyJoinOrder({}).empty());
}

TEST(GreedyJoinOrderTest, DefersCartesianSteps) {
  // B is smaller than C, but only C shares a column with A: greedy joins
  // C first, after which B connects through b.
  std::vector<EstRel> connected = {
      MakeRel(2, {{"a", 2}}),                   // 0: A
      MakeRel(3, {{"b", 3}}),                   // 1: B
      MakeRel(1000, {{"a", 100}, {"b", 100}}),  // 2: C
  };
  JoinOrder order = GreedyJoinOrder(connected);
  EXPECT_EQ(Inputs(order), (std::vector<size_t>{0, 2, 1}));
  EXPECT_EQ(order[1].join_columns, std::vector<VarId>{Col("a")});
  EXPECT_EQ(order[2].join_columns, std::vector<VarId>{Col("b")});

  // Nothing connects: the smallest remaining input is a Cartesian step.
  std::vector<EstRel> disconnected = {
      MakeRel(7, {{"a", 7}}),
      MakeRel(3, {{"b", 3}}),
  };
  order = GreedyJoinOrder(disconnected);
  EXPECT_EQ(Inputs(order), (std::vector<size_t>{1, 0}));
  EXPECT_TRUE(order[1].join_columns.empty());
  EXPECT_DOUBLE_EQ(order[1].est_rows, 21.0);
}

TEST(GreedyJoinOrderAcceptanceTest, GeneratedChainsMatchTheOracle) {
  // Chain queries of four joins over small random databases with fresh
  // statistics: the greedy order returns exactly the naive oracle's set.
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto db = MakeUniversityDb(/*populate=*/false);
    QueryGenerator gen(seed);
    gen.RandomDatabase(db.get(), /*empty_prob=*/0.05);
    ASSERT_TRUE(db->AnalyzeAll().ok());
    SelectionExpr sel = gen.RandomChainSelection(4, 0.5);
    std::string rendered = FormatSelection(sel);
    Binder binder(db.get());
    Result<BoundQuery> bound = binder.Bind(std::move(sel));
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    NaiveEvaluator naive(db.get());
    Result<std::vector<Tuple>> oracle = naive.Evaluate(*bound);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (OptLevel level : {OptLevel::kParallel, OptLevel::kOneStep,
                           OptLevel::kQuantPush, OptLevel::kAuto}) {
      PlannerOptions options;
      options.level = level;
      Result<QueryRun> run = RunQuery(*db, CloneBoundQuery(*bound), options);
      ASSERT_TRUE(run.ok()) << run.status().ToString() << "\n" << rendered;
      EXPECT_EQ(TupleStrings(run->tuples), TupleStrings(*oracle))
          << "seed " << seed << " at " << OptLevelToString(level) << "\n"
          << rendered;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 48u);
}

}  // namespace
}  // namespace pascalr
