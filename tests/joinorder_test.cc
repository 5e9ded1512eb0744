// The join-order optimizer: DP-table unit tests on hand-built join
// graphs (known-optimal orders, cross-product penalty, bushy trees,
// fallback thresholds), the greedy tree's fidelity to the executor's
// heuristic, and the subsystem-level acceptance bar — on the paper
// examples plus a corpus of generated multi-relation queries with fresh
// statistics, DP-ordered execution never does more measured work than
// greedy execution and does strictly less on at least one conjunction
// with four or more inputs.

#include <gtest/gtest.h>

#include "calculus/printer.h"
#include "exec/naive.h"
#include "joinorder/attach.h"
#include "joinorder/dp.h"
#include "joinorder/heuristics.h"
#include "joinorder/join_graph.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "pascalr/sample_db.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

EstRel MakeRel(double rows,
               std::vector<std::pair<std::string, double>> distinct) {
  EstRel rel;
  rel.rows = rows;
  for (auto& [col, dc] : distinct) rel.distinct[col] = dc;
  return rel;
}

/// Leaf input positions of a left-deep tree, in join order.
std::vector<size_t> LeafOrder(const JoinTree& tree) {
  std::vector<size_t> order;
  for (const JoinTreeNode& node : tree.nodes) {
    if (node.leaf) order.push_back(node.input);
  }
  return order;
}

TEST(JoinGraphTest, JoinEstimateUsesContainmentAndCapsDistincts) {
  EstRel a = MakeRel(100, {{"x", 10}, {"y", 50}});
  EstRel b = MakeRel(40, {{"y", 20}, {"z", 40}});
  EstRel j = JoinEstimate(a, b);
  // 100 * 40 / max(50, 20) shared-column containment.
  EXPECT_DOUBLE_EQ(j.rows, 80.0);
  EXPECT_DOUBLE_EQ(j.distinct.at("y"), 20.0);  // min of the two sides
  EXPECT_DOUBLE_EQ(j.distinct.at("x"), 10.0);
  EXPECT_DOUBLE_EQ(j.distinct.at("z"), 40.0);
  EXPECT_EQ(SharedColumns(a, b), std::vector<std::string>{"y"});
}

TEST(JoinGraphTest, ConnectivityOverSharedColumns) {
  std::vector<EstRel> inputs = {
      MakeRel(10, {{"a", 10}}),
      MakeRel(20, {{"a", 10}, {"b", 5}}),
      MakeRel(30, {{"c", 30}}),
  };
  JoinGraph graph(inputs);
  EXPECT_TRUE(graph.Connects(0b001, 1));
  EXPECT_FALSE(graph.Connects(0b011, 2));
  EXPECT_FALSE(graph.IsConnected(0b111));
  EXPECT_TRUE(graph.IsConnected(0b011));
}

TEST(JoinOrderDpTest, FindsKnownOptimalOrderGreedyMisses) {
  // Greedy takes R then the smaller S1 (fan-out to 100 rows) before S2;
  // the DP knows S2 filters R down to 10 rows and goes there first.
  std::vector<EstRel> inputs = {
      MakeRel(10, {{"a", 10}}),                  // 0: R
      MakeRel(100, {{"a", 10}, {"b", 2}}),       // 1: S1
      MakeRel(120, {{"a", 120}, {"c", 4}}),      // 2: S2
  };
  JoinOrderOptions options;
  JoinOrderDecision decision = ChooseJoinOrder(inputs, options);
  EXPECT_DOUBLE_EQ(decision.greedy_cost, 200.0);  // 100 + 100
  EXPECT_DOUBLE_EQ(decision.dp_cost, 110.0);      // 10 + 100
  ASSERT_FALSE(decision.tree.empty());
  EXPECT_EQ(decision.tree.source, JoinOrderSource::kDp);
  EXPECT_EQ(LeafOrder(decision.tree), (std::vector<size_t>{0, 2, 1}));
  EXPECT_EQ(decision.tree.LeafCount(), 3u);

  // And the greedy tree really is the order the executor would pick.
  JoinTree greedy = GreedyJoinOrder(inputs);
  EXPECT_EQ(LeafOrder(greedy), (std::vector<size_t>{0, 1, 2}));
}

TEST(JoinOrderDpTest, NoTreeWhenGreedyAlreadyOptimal) {
  // A selective chain greedy gets right: deviating buys nothing, so the
  // DP declines and execution keeps the actual-size heuristic.
  std::vector<EstRel> inputs = {
      MakeRel(5, {{"a", 5}}),
      MakeRel(50, {{"a", 50}, {"b", 10}}),
      MakeRel(80, {{"b", 10}, {"c", 80}}),
  };
  JoinOrderDecision decision = ChooseJoinOrder(inputs, JoinOrderOptions());
  EXPECT_DOUBLE_EQ(decision.dp_cost, decision.greedy_cost);
  EXPECT_TRUE(decision.tree.empty());
}

TEST(JoinOrderDpTest, CrossProductPenaltyDefersProducts) {
  // Joining tiny A x B first is cheapest by raw rows, but the default
  // penalty makes the DP keep greedy's connected order; dropping the
  // penalty lets the product plan through.
  std::vector<EstRel> inputs = {
      MakeRel(2, {{"a", 2}}),                    // 0: A
      MakeRel(3, {{"b", 3}}),                    // 1: B
      MakeRel(1000, {{"a", 100}, {"b", 100}}),   // 2: C
  };
  JoinOrderOptions penalized;
  JoinOrderDecision with_penalty = ChooseJoinOrder(inputs, penalized);
  EXPECT_TRUE(with_penalty.tree.empty()) << "penalty should keep greedy";

  JoinOrderOptions free_products;
  free_products.cross_penalty = 1.0;
  JoinOrderDecision without = ChooseJoinOrder(inputs, free_products);
  ASSERT_FALSE(without.tree.empty());
  // The winning tree starts with the Cartesian pair A x B.
  const JoinTreeNode* first_join = nullptr;
  for (const JoinTreeNode& node : without.tree.nodes) {
    if (!node.leaf) {
      first_join = &node;
      break;
    }
  }
  ASSERT_NE(first_join, nullptr);
  EXPECT_TRUE(first_join->join_columns.empty());
  EXPECT_DOUBLE_EQ(first_join->est_rows, 6.0);
  EXPECT_LT(without.dp_cost, without.greedy_cost);
}

TEST(JoinOrderDpTest, BushyTreesBeatLeftDeepWhenTwoPairsReduceFirst) {
  std::vector<EstRel> inputs = {
      MakeRel(10, {{"a", 10}}),
      MakeRel(1000, {{"a", 1000}, {"b", 10}}),
      MakeRel(10, {{"c", 10}}),
      MakeRel(1000, {{"c", 1000}, {"b", 10}}),
  };
  JoinOrderOptions left_deep;
  JoinOrderOptions bushy;
  bushy.bushy = true;
  JoinOrderDecision ld = ChooseJoinOrder(inputs, left_deep);
  JoinOrderDecision bs = ChooseJoinOrder(inputs, bushy);
  EXPECT_LT(bs.dp_cost, ld.dp_cost);
  ASSERT_FALSE(bs.tree.empty());
  EXPECT_EQ(bs.tree.source, JoinOrderSource::kDpBushy);
  // The bushy root joins two internal (pair) nodes.
  const JoinTreeNode& root = bs.tree.nodes.back();
  ASSERT_FALSE(root.leaf);
  EXPECT_FALSE(bs.tree.nodes[static_cast<size_t>(root.left)].leaf);
  EXPECT_FALSE(bs.tree.nodes[static_cast<size_t>(root.right)].leaf);
}

TEST(JoinOrderDpTest, FallbackThresholdsSkipTheDp) {
  std::vector<EstRel> two = {
      MakeRel(10, {{"a", 10}}),
      MakeRel(20, {{"a", 10}}),
  };
  JoinOrderDecision small = ChooseJoinOrder(two, JoinOrderOptions());
  EXPECT_TRUE(small.tree.empty());
  EXPECT_EQ(small.subsets_explored, 0u);

  std::vector<EstRel> four;
  for (int i = 0; i < 4; ++i) {
    four.push_back(MakeRel(10.0 + i, {{"x", 10.0}}));
  }
  JoinOrderOptions budget;
  budget.dp_max_inputs = 3;
  JoinOrderDecision over = ChooseJoinOrder(four, budget);
  EXPECT_TRUE(over.tree.empty());
  EXPECT_EQ(over.subsets_explored, 0u);
  EXPECT_GT(over.greedy_cost, 0.0);
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
  JoinTree tree = GreedyJoinOrder(inputs);
  EXPECT_EQ(LeafOrder(tree), (std::vector<size_t>{1, 2, 3, 0}));
  EXPECT_EQ(tree.nodes.size(), 7u);
}

TEST(JoinTreeTest, MatchesRejectsMalformedNodeGraphs) {
  // A valid 3-leaf left-deep tree.
  JoinTree tree;
  auto leaf = [](size_t input) {
    JoinTreeNode n;
    n.leaf = true;
    n.input = input;
    return n;
  };
  auto join = [](int l, int r) {
    JoinTreeNode n;
    n.left = l;
    n.right = r;
    return n;
  };
  tree.nodes = {leaf(0), leaf(1), join(0, 1), leaf(2), join(2, 3)};
  EXPECT_TRUE(tree.Matches(3));
  EXPECT_FALSE(tree.Matches(2));
  EXPECT_FALSE(tree.Matches(4));

  // Right node count and leaf cover, but node 2 is consumed twice and
  // leaf 3 never — executing it would drop leaf 3's constraint.
  JoinTree bogus;
  bogus.nodes = {leaf(0), leaf(1), join(0, 1), leaf(2), join(2, 2)};
  EXPECT_FALSE(bogus.Matches(3));

  JoinTree dup;  // same input on two leaves
  dup.nodes = {leaf(0), leaf(0), join(0, 1), leaf(2), join(2, 3)};
  EXPECT_FALSE(dup.Matches(3));

  JoinTree self_ref;  // child id not before the parent
  self_ref.nodes = {leaf(0), leaf(1), join(0, 2)};
  EXPECT_FALSE(self_ref.Matches(2));

  EXPECT_FALSE(JoinTree().Matches(0));
}

// ---------------------------------------------------------------------------
// Subsystem acceptance: measured work, DP vs greedy.

struct WorkComparison {
  uint64_t dp_work = 0;
  uint64_t greedy_work = 0;
  bool attached = false;          ///< some conjunction got a DP tree
  size_t max_conj_inputs = 0;
  std::string explain;
};

Result<WorkComparison> CompareDpToGreedy(const Database& db,
                                         const SelectionExpr& sel,
                                         OptLevel level) {
  WorkComparison out;
  Binder binder(&db);
  for (bool dp : {true, false}) {
    PASCALR_ASSIGN_OR_RETURN(BoundQuery bound, binder.Bind(sel.Clone()));
    PlannerOptions options;
    options.level = level;
    options.join_order_dp = dp;
    PASCALR_ASSIGN_OR_RETURN(QueryRun run,
                             RunQuery(db, std::move(bound), options));
    if (dp) {
      out.dp_work = run.stats.TotalWork();
      out.attached = !run.planned.plan.join_trees.empty();
      for (const auto& ids : run.planned.plan.conj_inputs) {
        out.max_conj_inputs = std::max(out.max_conj_inputs, ids.size());
      }
      out.explain = ExplainPlan(run.planned);
    } else {
      out.greedy_work = run.stats.TotalWork();
    }
  }
  return out;
}

std::unique_ptr<Database> MakeAnalyzedSyntheticDb(size_t employees = 48) {
  auto db = MakeUniversityDb(/*populate=*/false);
  UniversityScale scale;
  scale.employees = employees;
  scale.papers = 2 * employees;
  scale.courses = employees / 2 + 1;
  scale.timetable = 3 * employees;
  EXPECT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  EXPECT_TRUE(db->AnalyzeAll().ok());
  return db;
}

SelectionExpr ParseSelection(const std::string& source) {
  Parser parser(source);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  return std::move(sel).value();
}

TEST(JoinOrderAcceptanceTest, PaperExamplesNeverWorseThanGreedy) {
  // Kept small: example 2.1's disjunction is near-Cartesian at O1 (each
  // disjunct is product-extended to all four variables).
  auto db = MakeAnalyzedSyntheticDb(/*employees=*/16);
  for (const std::string& source :
       {Example21QuerySource(), Example45QuerySource()}) {
    for (OptLevel level : {OptLevel::kParallel, OptLevel::kOneStep,
                           OptLevel::kQuantPush}) {
      Result<WorkComparison> cmp =
          CompareDpToGreedy(*db, ParseSelection(source), level);
      ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
      EXPECT_LE(cmp->dp_work, cmp->greedy_work)
          << source << " at " << OptLevelToString(level);
    }
  }
}

TEST(JoinOrderAcceptanceTest, GeneratedCorpusNeverWorseAndSometimesBetter) {
  auto db = MakeAnalyzedSyntheticDb();
  size_t checked = 0;
  size_t strict_wins_on_wide_conjunctions = 0;
  for (uint64_t seed = 1; checked < 32 && seed <= 120; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel =
        gen.RandomChainSelection(/*joins=*/3 + seed % 3, /*filter_prob=*/0.6);
    std::string rendered = FormatSelection(sel);
    for (OptLevel level : {OptLevel::kParallel, OptLevel::kOneStep}) {
      Result<WorkComparison> cmp = CompareDpToGreedy(*db, sel, level);
      ASSERT_TRUE(cmp.ok()) << rendered << ": " << cmp.status().ToString();
      EXPECT_LE(cmp->dp_work, cmp->greedy_work)
          << "seed " << seed << " at " << OptLevelToString(level) << "\n"
          << rendered << "\n"
          << cmp->explain;
      if (cmp->max_conj_inputs >= 4 && cmp->dp_work < cmp->greedy_work) {
        ++strict_wins_on_wide_conjunctions;
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 32u);
  EXPECT_GE(strict_wins_on_wide_conjunctions, 1u)
      << "the DP never beat greedy on any >=4-input conjunction";
  std::cout << "[          ] " << strict_wins_on_wide_conjunctions
            << " strict DP win(s) on >=4-input conjunctions over " << checked
            << " queries\n";
}

TEST(JoinOrderAcceptanceTest, DpResultsMatchGreedyResults) {
  // Tuple-level equivalence on the synthetic scale (small-database
  // equivalence against the naive oracle lives in the plan-equivalence
  // property suite; the nested-loop oracle is infeasible at this size).
  auto db = MakeAnalyzedSyntheticDb();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel = gen.RandomChainSelection(4, 0.5);
    Binder binder(db.get());
    for (OptLevel level : {OptLevel::kParallel, OptLevel::kOneStep,
                           OptLevel::kQuantPush}) {
      std::multiset<std::string> results[2];
      bool unsupported = false;
      for (bool dp : {true, false}) {
        Result<BoundQuery> bound = binder.Bind(sel.Clone());
        ASSERT_TRUE(bound.ok());
        PlannerOptions options;
        options.level = level;
        options.join_order_dp = dp;
        Result<QueryRun> run =
            RunQuery(*db, std::move(bound).value(), options);
        if (!run.ok() && run.status().code() == StatusCode::kUnsupported) {
          unsupported = true;  // pre-existing S4 limitation, both configs
          break;
        }
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        results[dp ? 0 : 1] = TupleStrings(run->tuples);
      }
      if (unsupported) continue;
      EXPECT_EQ(results[0], results[1])
          << "seed " << seed << " level " << OptLevelToString(level);
    }
  }
}

TEST(JoinOrderAcceptanceTest, ExplainShowsTheTreeWithCardinalities) {
  auto db = MakeAnalyzedSyntheticDb();
  bool found = false;
  for (uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel = gen.RandomChainSelection(4, 0.6);
    Binder binder(db.get());
    Result<BoundQuery> bound = binder.Bind(sel.Clone());
    ASSERT_TRUE(bound.ok());
    PlannerOptions options;
    options.level = OptLevel::kOneStep;
    Result<PlannedQuery> planned =
        PlanQuery(*db, std::move(bound).value(), options);
    ASSERT_TRUE(planned.ok());
    if (planned->plan.join_trees.empty()) continue;
    found = true;
    // The tree renders as the iterator chain the cursor runs.
    std::string text = ExplainPlan(*planned);
    EXPECT_NE(text.find("iterator tree (dp)"), std::string::npos) << text;
    EXPECT_NE(text.find("probe-join on ["), std::string::npos) << text;
    EXPECT_NE(text.find(" rows"), std::string::npos) << text;
  }
  EXPECT_TRUE(found)
      << "no generated query attached a DP tree within 60 seeds";
}

TEST(JoinOrderAttachTest, NoTreesWithoutFreshStats) {
  auto db = MakeUniversityDb(/*populate=*/false);
  UniversityScale scale;
  EXPECT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  // No ANALYZE: estimates would come from live cardinalities only, so the
  // planner must keep the executor's greedy fallback everywhere.
  QueryGenerator gen(7);
  SelectionExpr sel = gen.RandomChainSelection(4, 0.5);
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(sel.Clone());
  ASSERT_TRUE(bound.ok());
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->plan.join_trees.empty());
}

}  // namespace
}  // namespace pascalr
