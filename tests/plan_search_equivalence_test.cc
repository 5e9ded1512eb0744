// The kAuto search plans each distinct strategy level once: it searches
// levels x permanent-index reuse, shares one folded standard form and
// skips levels whose transformation is a no-op. This suite keeps the
// exhaustive grid it replaced as a reference — levels x division x
// ordered transient indexes x permanent-index reuse — and checks that the
// search chooses exactly the grid's plan: same level, same permanent-index
// choice, same estimate, same EXPLAIN body. It also checks the premise of
// dropping two grid dimensions: no sort-division or forced-btree cell is
// ever strictly cheaper than its hash, unordered sibling.
//
// The forced-btree cells are emulated on the compiled plan (every
// IndexBuildSpec flipped to ordered, then re-costed): ordering does not
// feed the join-order optimizer, so this is the plan the grid compiled.

#include <gtest/gtest.h>

#include <optional>

#include "base/counters.h"
#include "base/str_util.h"
#include "calculus/printer.h"
#include "cost/cost_model.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "pascalr/sample_db.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::QueryGenerator;

struct GridChoice {
  PlannedQuery planned;  ///< the hash, unordered cell's compiled plan
  CostEstimate estimate;
  int level = 0;
  bool perm = false;
  bool ordered = false;
  DivisionAlgorithm division = DivisionAlgorithm::kHash;
};

/// The exhaustive grid the search used to enumerate, with its visiting
/// order and tie-break: levels 4 -> 0, then permanent-index reuse, ordered
/// indexes and division; exact ties go to the lowest level, then to the
/// cell visited first. Permanent-index reuse is tried even where no fresh
/// index exists (the search skips it there): such a cell can only tie its
/// sibling, and loses the tie. Also fails the test if a sort or btree
/// cell is strictly cheaper than the hash, unordered cell of its level and
/// permanent-index choice.
std::optional<GridChoice> ExhaustiveGrid(const Database& db,
                                         const BoundQuery& query,
                                         const PlannerOptions& base,
                                         const std::string& what) {
  std::optional<GridChoice> best;
  for (int level = 4; level >= 0; --level) {
    for (bool perm : {false, true}) {
      PlannerOptions options = base;
      options.level = static_cast<OptLevel>(level);
      options.division = DivisionAlgorithm::kHash;
      options.use_permanent_indexes = perm;
      Result<PlannedQuery> planned =
          PlanQuery(db, CloneBoundQuery(query), options);
      if (!planned.ok()) continue;
      bool any_transient = false;
      for (const IndexBuildSpec& spec : planned->plan.indexes) {
        any_transient |= !IndexBorrowsPermanent(planned->plan, db, spec);
      }
      double base_rank = 0.0;
      for (bool ordered : {false, true}) {
        if (ordered && !any_transient) continue;  // an exact duplicate
        for (DivisionAlgorithm division :
             {DivisionAlgorithm::kHash, DivisionAlgorithm::kSort}) {
          QueryPlan plan = CloneQueryPlan(planned->plan);
          if (ordered) {
            for (IndexBuildSpec& spec : plan.indexes) spec.ordered = true;
          }
          plan.division = division;
          CostEstimate est = EstimatePlanCost(plan, db);
          const double rank = est.weighted_cost;
          const bool hash_cell =
              !ordered && division == DivisionAlgorithm::kHash;
          if (hash_cell) {
            base_rank = rank;
          } else {
            EXPECT_GE(rank, base_rank)
                << what << ": O" << level << (perm ? "/perm" : "")
                << (ordered ? "/btree" : "")
                << (division == DivisionAlgorithm::kSort ? "/sort-div" : "")
                << " is strictly cheaper than its hash, unordered cell";
          }
          if (best.has_value() &&
              !(rank < best->estimate.weighted_cost ||
                (rank == best->estimate.weighted_cost &&
                 level < best->level))) {
            continue;
          }
          best = GridChoice{ClonePlannedQuery(*planned), est, level, perm,
                            ordered, division};
        }
      }
    }
  }
  return best;
}

/// Runs the search and the grid on `sel` and expects the same choice.
void ExpectSearchMatchesGrid(const Database& db, const SelectionExpr& sel,
                             const std::string& what) {
  Binder binder(&db);
  Result<BoundQuery> bound = binder.Bind(sel.Clone());
  ASSERT_TRUE(bound.ok()) << what << ": " << bound.status().ToString();
  PlannerOptions base;
  base.level = OptLevel::kAuto;
  const std::string context = what + "\n" + FormatSelection(sel);

  CompileCounters before = GlobalCompileCounters();
  Result<PlannedQuery> searched =
      PlanQuery(db, CloneBoundQuery(*bound), base);
  CompileCounters after = GlobalCompileCounters();
  std::optional<GridChoice> grid = ExhaustiveGrid(db, *bound, base, context);
  ASSERT_EQ(searched.ok(), grid.has_value())
      << context << "\n"
      << (searched.ok() ? "" : searched.status().ToString());
  if (!grid.has_value()) return;

  // One normalization per search (plus rule 1's rebuild when it folds).
  EXPECT_LE(after.standard_forms - before.standard_forms, 2u) << context;
  EXPECT_LE(after.plans - before.plans, 10u) << context;

  EXPECT_FALSE(grid->ordered) << context;
  EXPECT_EQ(grid->division, DivisionAlgorithm::kHash) << context;
  const std::string chosen =
      StrFormat("  chosen: O%d/hash-div%s\n", grid->level,
                grid->perm ? "/perm" : "");
  EXPECT_NE(searched->cost_candidates.find(chosen), std::string::npos)
      << context << "\nexpected" << chosen << searched->cost_candidates;
  EXPECT_EQ(searched->estimate.weighted_cost, grid->estimate.weighted_cost)
      << context;
  EXPECT_EQ(searched->estimate.predicted.TotalWork(),
            grid->estimate.predicted.TotalWork())
      << context;
  // Every level is accounted for in the candidate table: costed, pruned,
  // or named as the same plan as the level below.
  for (int level = 0; level <= 4; ++level) {
    EXPECT_NE(searched->cost_candidates.find("O" + std::to_string(level)),
              std::string::npos)
        << context << "\n"
        << searched->cost_candidates;
  }
  PlannedQuery body = ClonePlannedQuery(*searched);
  body.cost_based = false;
  EXPECT_EQ(ExplainPlan(body), ExplainPlan(grid->planned)) << context;
}

SelectionExpr ParseSelection(const std::string& source) {
  Parser parser(source);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  return std::move(sel).value();
}

/// The corpus: the paper's two running examples plus generated queries
/// of every query_gen shape.
std::vector<std::pair<std::string, SelectionExpr>> Corpus() {
  std::vector<std::pair<std::string, SelectionExpr>> out;
  out.emplace_back("example 2.1", ParseSelection(Example21QuerySource()));
  out.emplace_back("example 4.5", ParseSelection(Example45QuerySource()));
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    QueryGenerator gen(seed);
    const std::string tag = " seed " + std::to_string(seed);
    out.emplace_back("random" + tag, gen.RandomSelection(3));
    out.emplace_back("two-free" + tag, gen.RandomSelectionTwoFree(2));
    out.emplace_back("chain" + tag, gen.RandomChainSelection(3 + seed % 3));
    out.emplace_back("all-over-conjunction" + tag,
                     gen.RandomAllOverConjunction());
  }
  return out;
}

class PlanSearchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(PlanSearchEquivalenceTest, SearchChoosesTheExhaustiveGridsPlan) {
  const auto [n, permanent_index] = GetParam();
  auto db = MakeUniversityDb(/*populate=*/false);
  UniversityScale scale;
  scale.employees = n;
  scale.papers = 2 * n;
  scale.courses = n / 2 + 1;
  scale.timetable = 3 * n;
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  if (permanent_index) {
    ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
    ASSERT_TRUE(db->EnsureIndex("employees", "enr", false).ok());
  }
  ASSERT_TRUE(db->AnalyzeAll().ok());
  for (const auto& [name, sel] : Corpus()) {
    ExpectSearchMatchesGrid(
        *db, sel,
        StrFormat("n=%zu%s %s", n, permanent_index ? " +index" : "",
                  name.c_str()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndIndexes, PlanSearchEquivalenceTest,
    ::testing::Combine(::testing::Values<size_t>(16, 64, 256),
                       ::testing::Bool()));

TEST(PlanSearchEquivalenceTest, NoOpLevelsAreNamedNotCompiled) {
  // A join with no monadic term and no quantifier: range extension and
  // push-down both change nothing, so O3 and O4 are the O2 plan.
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(ParseSelection(
      "[<e.ename, t.tcnr> OF EACH e IN employees, EACH t IN timetable: "
      "e.enr = t.tenr]"));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  CompileCounters before = GlobalCompileCounters();
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  CompileCounters after = GlobalCompileCounters();
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_NE(planned->cost_candidates.find(
                "O4: same plan as O3 (no quantifier pushed)"),
            std::string::npos)
      << planned->cost_candidates;
  EXPECT_NE(planned->cost_candidates.find(
                "O3: same plan as O2 (no range extended)"),
            std::string::npos)
      << planned->cost_candidates;
  EXPECT_EQ(after.standard_forms - before.standard_forms, 1u);
  EXPECT_LE(after.plans - before.plans, 3u);
}

}  // namespace
}  // namespace pascalr
