// The kAuto search plans each distinct strategy level once: it searches
// levels x permanent-index reuse, shares one folded standard form and
// skips levels whose transformation is a no-op. This suite keeps the
// exhaustive grid it replaced as a reference — levels x ordered transient
// indexes x permanent-index reuse — and checks that the search chooses
// exactly the grid's plan: same level, same permanent-index choice, same
// estimate, same EXPLAIN body. It also checks the premise of dropping the
// ordered-index dimension: no forced-btree cell is ever strictly cheaper
// than its hash-index sibling.
//
// The forced-btree cells are emulated on the compiled plan (every
// IndexBuildSpec flipped to ordered, then re-costed): ordering changes
// nothing else in the compiled plan, so this is the plan the grid
// compiled.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
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
  PlannedQuery planned;  ///< the hash-index cell's compiled plan
  CostEstimate estimate;
  int level = 0;
  bool perm = false;
  bool ordered = false;
};

/// The exhaustive grid the search used to enumerate, with its visiting
/// order and tie-break: levels 4 -> 0, then permanent-index reuse and
/// ordered indexes; exact ties go to the lowest level, then to the cell
/// visited first. Permanent-index reuse is tried even where no fresh index
/// exists (the search skips it there): such a cell can only tie its
/// sibling, and loses the tie. Also fails the test if a btree cell is
/// strictly cheaper than the hash-index cell of its level and
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
        QueryPlan plan = CloneQueryPlan(planned->plan);
        if (ordered) {
          for (IndexBuildSpec& spec : plan.indexes) spec.ordered = true;
        }
        CostEstimate est = EstimatePlanCost(plan, db);
        const double rank = est.weighted_cost;
        if (!ordered) {
          base_rank = rank;
        } else {
          EXPECT_GE(rank, base_rank)
              << what << ": O" << level << (perm ? "/perm" : "")
              << "/btree is strictly cheaper than its hash-index cell";
        }
        if (best.has_value() &&
            !(rank < best->estimate.weighted_cost ||
              (rank == best->estimate.weighted_cost &&
               level < best->level))) {
          continue;
        }
        best = GridChoice{ClonePlannedQuery(*planned), est, level, perm,
                          ordered};
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
  const std::string chosen = StrFormat("  chosen: O%d%s\n", grid->level,
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

// ------------------------------------------------------------ exactness pin
//
// A golden table of the search's choices, recorded once and never
// regenerated by a refactor of the planner or the cost model: for each
// (catalog, selection) the chosen candidate, the exact weighted cost (%a),
// the predicted total work, and a hash of the full EXPLAIN text (candidate
// table included). Regenerate only for an intended change of plans or
// estimates, by running this test with PASCALR_PLAN_SEARCH_GOLDEN_OUT set
// to the path of tests/plan_search_golden.inc.

struct GoldenRow {
  const char* chosen;
  const char* weighted_cost;
  uint64_t total_work;
  uint64_t explain_hash;
};

const GoldenRow kGolden[] = {
#include "tests/plan_search_golden.inc"
};

/// 150 generated selections per seed: random formulas, two free
/// variables, chains, stars, cycles and ALL over a conjunction.
std::vector<std::pair<std::string, SelectionExpr>> GoldenCorpus(
    uint64_t seed) {
  std::vector<std::pair<std::string, SelectionExpr>> out;
  QueryGenerator gen(seed);
  for (size_t i = 0; i < 25; ++i) {
    const std::string tag = StrFormat(" seed %llu #%zu",
                                      static_cast<unsigned long long>(seed), i);
    out.emplace_back("random" + tag, gen.RandomSelection(3));
    out.emplace_back("two-free" + tag, gen.RandomSelectionTwoFree(2));
    out.emplace_back("chain" + tag, gen.RandomChainSelection(3 + i % 3));
    out.emplace_back("star" + tag, gen.RandomStarSelection(2 + i % 3));
    out.emplace_back("cycle" + tag, gen.RandomCycleSelection(3 + i % 2));
    out.emplace_back("all-over-conjunction" + tag,
                     gen.RandomAllOverConjunction());
  }
  return out;
}

std::string GoldenRowFor(const Database& db, const SelectionExpr& sel) {
  Binder binder(&db);
  Result<BoundQuery> bound = binder.Bind(sel.Clone());
  if (!bound.ok()) return "{\"bind failed\", \"\", 0, 0},";
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  Result<PlannedQuery> planned =
      PlanQuery(db, std::move(bound).value(), options);
  if (!planned.ok()) {
    const std::string status = planned.status().ToString();
    return StrFormat("{\"failed\", \"\", 0, 0x%016llxull},",
                     static_cast<unsigned long long>(
                         Fnv1a64(status.data(), status.size())));
  }
  const std::string& table = planned->cost_candidates;
  const size_t at = table.rfind("chosen: ");
  std::string chosen = at == std::string::npos ? "" : table.substr(at + 8);
  while (!chosen.empty() && chosen.back() == '\n') chosen.pop_back();
  const std::string explain = ExplainPlan(*planned);
  return StrFormat(
      "{\"%s\", \"%a\", %lluull, 0x%016llxull},", chosen.c_str(),
      planned->estimate.weighted_cost,
      static_cast<unsigned long long>(
          planned->estimate.predicted.TotalWork()),
      static_cast<unsigned long long>(
          Fnv1a64(explain.data(), explain.size())));
}

TEST(PlanSearchGoldenTest, ChoicesEstimatesAndExplainArePinned) {
  std::vector<std::string> rows;
  std::vector<std::string> names;
  for (bool permanent_index : {false, true}) {
    auto db = MakeUniversityDb(/*populate=*/false);
    UniversityScale scale;
    scale.employees = 64;
    scale.papers = 128;
    scale.courses = 33;
    scale.timetable = 192;
    ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
    if (permanent_index) {
      ASSERT_TRUE(db->EnsureIndex("timetable", "tenr", false).ok());
      ASSERT_TRUE(db->EnsureIndex("employees", "enr", false).ok());
    }
    ASSERT_TRUE(db->AnalyzeAll().ok());
    for (uint64_t seed : {1u, 2u}) {
      for (const auto& [name, sel] : GoldenCorpus(seed)) {
        rows.push_back(GoldenRowFor(*db, sel));
        names.push_back((permanent_index ? "+index " : "") + name + "\n" +
                        FormatSelection(sel));
      }
    }
  }
  if (const char* out = std::getenv("PASCALR_PLAN_SEARCH_GOLDEN_OUT")) {
    FILE* f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr) << out;
    std::fprintf(f,
                 "// Generated by plan_search_equivalence_test "
                 "(PlanSearchGoldenTest); see the comment there.\n");
    for (const std::string& row : rows) std::fprintf(f, "%s\n", row.c_str());
    std::fclose(f);
    return;
  }
  const size_t golden_rows = sizeof(kGolden) / sizeof(kGolden[0]);
  ASSERT_EQ(rows.size(), golden_rows);
  size_t mismatches = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const GoldenRow& g = kGolden[i];
    const std::string want = StrFormat(
        "{\"%s\", \"%s\", %lluull, 0x%016llxull},", g.chosen, g.weighted_cost,
        static_cast<unsigned long long>(g.total_work),
        static_cast<unsigned long long>(g.explain_hash));
    if (rows[i] != want && ++mismatches <= 10) {
      ADD_FAILURE() << names[i] << "\n  pinned: " << want
                    << "\n  now:    " << rows[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace pascalr
