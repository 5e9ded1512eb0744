// Demand-driven collection (CollectionPolicy::kLazy): builders-level
// equivalence against the eager oracle, keyed-partial probes, cursor
// behaviour (Open does no collection work; early Close skips never-
// demanded structures, counter-asserted), the ≥3-input-conjunction
// acceptance bound, and the SET COLLECTION / EXPLAIN / plan-cache
// surface.

#include "exec/collection.h"

#include <sstream>

#include <gtest/gtest.h>

#include "exec/cursor.h"
#include "opt/explain.h"
#include "pipeline/compile.h"
#include "opt/planner.h"
#include "pascalr/prepared.h"
#include "pascalr/sample_db.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::TupleStrings;

// One structure per disjunct, no division: the streamed union finds the
// first tuple inside disjunct 0, so disjuncts 1 and 2 stay untouched.
const char* const kThreeDisjunctQuery =
    "[<e.ename> OF EACH e IN employees:"
    " (e.estatus = professor)"
    " OR SOME t IN timetable (e.enr = t.tenr)"
    " OR SOME p IN papers (e.enr = p.penr)]";

// One conjunction joining >=3 structures at levels 1/2 (the acceptance
// query shape: sl(c), ij(c,t), ij(e,t)).
const char* const kThreeInputConjunction =
    "[<e.ename> OF EACH e IN employees:"
    " SOME c IN courses SOME t IN timetable"
    " ((c.clevel <= sophomore) AND (c.cnr = t.tcnr) AND (e.enr = t.tenr))]";

PlannedQuery MustPlan(const Database& db, const std::string& query,
                      PlannerOptions options) {
  Result<PlannedQuery> planned = PlanQuery(db, MustBind(db, query), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  return std::move(planned).value();
}

// ----------------------------------------------------------- builder units

TEST(CollectionBuildersTest, LazyEnsureStructureMatchesEagerOracle) {
  auto db = MakeUniversityDb();
  for (int level = 0; level <= 4; ++level) {
    PlannerOptions options;
    options.level = static_cast<OptLevel>(level);
    PlannedQuery planned = MustPlan(*db, kThreeInputConjunction, options);

    ExecStats eager_stats;
    Result<CollectionResult> eager =
        ExecuteCollection(planned.plan, *db, &eager_stats);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    EXPECT_EQ(eager_stats.structures_built, planned.plan.structures.size());

    ExecStats lazy_stats;
    CollectionBuilders builders(planned.plan, *db, &lazy_stats);
    // Demand the structures one by one, in reverse order for spice: each
    // must come out row-identical to the eager oracle's.
    for (size_t i = planned.plan.structures.size(); i-- > 0;) {
      ASSERT_TRUE(builders.EnsureStructure(i).ok());
      const RefRelation& got = builders.result().structures[i];
      const RefRelation& want = eager->structures[i];
      ASSERT_EQ(got.size(), want.size()) << "structure " << i;
      for (const RowView row : want.rows()) {
        EXPECT_TRUE(got.Contains(row)) << "structure " << i;
      }
    }
    EXPECT_EQ(lazy_stats.structures_built, planned.plan.structures.size());
  }
}

TEST(CollectionBuildersTest, KeyedMatchesAgreeWithEagerRows) {
  auto db = MakeUniversityDb();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  PlannedQuery planned = MustPlan(*db, kThreeInputConjunction, options);

  ExecStats eager_stats;
  Result<CollectionResult> eager =
      ExecuteCollection(planned.plan, *db, &eager_stats);
  ASSERT_TRUE(eager.ok());

  ExecStats lazy_stats;
  CollectionBuilders builders(planned.plan, *db, &lazy_stats);
  size_t keyed_structures = 0;
  for (size_t i = 0; i < planned.plan.structures.size(); ++i) {
    int keyed = StructureKeyedColumn(planned.plan, i);
    ASSERT_EQ(keyed, builders.KeyedColumn(i));
    if (keyed < 0) continue;
    ++keyed_structures;
    // Probe every key the eager structure holds: the keyed rows must be
    // exactly the eager rows carrying that key.
    const RefRelation& want = eager->structures[i];
    for (const RowView row : want.rows()) {
      const Ref& key = row[static_cast<size_t>(keyed)];
      Result<RowSpan> got = builders.KeyedMatches(i, key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      size_t want_count = 0;
      for (const RowView w : want.rows()) {
        if (w[static_cast<size_t>(keyed)] == key) ++want_count;
      }
      EXPECT_EQ(got->size(), want_count) << "structure " << i;
      for (const RowView g : *got) {
        EXPECT_TRUE(want.Contains(g)) << "structure " << i;
      }
    }
    // Keyed population never marks the structure built.
    EXPECT_FALSE(builders.structure_built(i));
  }
  ASSERT_GE(keyed_structures, 2u) << "query should exercise keyed probes";
  EXPECT_EQ(lazy_stats.structures_built, 0u);
  // Probing every key rebuilds at most what eager built (here exactly,
  // since every key matches); the strict saving is the cursor-level
  // early-close property, asserted below.
  EXPECT_LE(lazy_stats.structure_elements_built,
            eager_stats.structure_elements_built);
}

TEST(CollectionBuildersTest, LeafModeAnalysisMatchesExecutedBuilds) {
  // LazyConjunctionLeafModes mirrors the lowering: when it reports no
  // deferred leaf for the only conjunction, a full lazy drain must
  // materialise no structure at all (streamed + keyed only).
  auto db = MakeUniversityDb();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.collection = CollectionPolicy::kLazy;
  PlannedQuery planned = MustPlan(*db, kThreeInputConjunction, options);
  ASSERT_EQ(planned.plan.conj_inputs.size(), 1u);
  std::vector<LazyLeafMode> modes = LazyConjunctionLeafModes(
      planned.plan, 0, AnalyzePipelineShape(planned.plan));
  ASSERT_EQ(modes.size(), planned.plan.conj_inputs[0].size());
  for (LazyLeafMode mode : modes) {
    EXPECT_NE(mode, LazyLeafMode::kDeferred);
  }

  Session session(db.get());
  session.options() = options;
  auto prepared = session.Prepare(kThreeInputConjunction);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  Tuple t;
  while (true) {
    auto more = cursor->Next(&t);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  EXPECT_EQ(cursor->stats().structures_built, 0u);
  cursor->Close();
}

// ------------------------------------------------------- cursor behaviour

TEST(LazyCollectionTest, OpenDoesNoCollectionWork) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  session.options().collection = CollectionPolicy::kLazy;
  auto prepared = session.Prepare(kThreeInputConjunction);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  const ExecStats& at_open = cursor->stats();
  EXPECT_EQ(at_open.elements_scanned, 0u);
  EXPECT_EQ(at_open.structures_built, 0u);
  EXPECT_EQ(at_open.structure_elements_built, 0u);
  EXPECT_EQ(at_open.combination_rows, 0u);
  // The first Next pays for what it demands — and only that.
  Tuple t;
  auto more = cursor->Next(&t);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_TRUE(*more);
  EXPECT_GT(cursor->stats().elements_scanned, 0u);
  cursor->Close();
}

TEST(LazyCollectionTest, FullDrainIsTupleIdenticalToEagerAcrossLevels) {
  for (int level = 0; level <= 5; ++level) {
    auto db = MakeUniversityDb();
    ASSERT_TRUE(db->AnalyzeAll().ok());
    for (const char* src : {kThreeDisjunctQuery, kThreeInputConjunction}) {
      Session eager(db.get());
      eager.options().level = static_cast<OptLevel>(level);
      eager.options().collection = CollectionPolicy::kEager;
      Session lazy(db.get());
      lazy.options().level = static_cast<OptLevel>(level);
      lazy.options().collection = CollectionPolicy::kLazy;
      auto run_eager = eager.Query(src);
      auto run_lazy = lazy.Query(src);
      ASSERT_TRUE(run_eager.ok()) << run_eager.status().ToString();
      ASSERT_TRUE(run_lazy.ok()) << run_lazy.status().ToString();
      EXPECT_EQ(TupleStrings(run_lazy->tuples), TupleStrings(run_eager->tuples))
          << "level " << level << "\n" << src;
    }
  }
}

TEST(LazyCollectionTest, EarlyCloseSkipsNeverDemandedStructures) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  session.options().collection = CollectionPolicy::kLazy;
  auto prepared = session.Prepare(kThreeDisjunctQuery);
  ASSERT_TRUE(prepared.ok());
  size_t structure_count = 0;
  {
    auto cursor = prepared->OpenCursor();
    ASSERT_TRUE(cursor.ok());
    const PlannedQuery* planned = prepared->planned();
    ASSERT_NE(planned, nullptr);
    structure_count = planned->plan.structures.size();
    ASSERT_GE(structure_count, 3u);
    Tuple t;
    auto more = cursor->Next(&t);
    ASSERT_TRUE(more.ok() && *more);
    ExecStats early = cursor->stats();
    cursor->Close();
    // The first tuple came out of disjunct 0's stream: the later
    // disjuncts' structures were never materialised.
    EXPECT_LT(early.structures_built, structure_count);
  }
  // The eager policy on the same query builds every structure at Open.
  session.options().collection = CollectionPolicy::kEager;
  auto eager_cursor = prepared->OpenCursor();
  ASSERT_TRUE(eager_cursor.ok());
  EXPECT_EQ(eager_cursor->stats().structures_built, structure_count);
  eager_cursor->Close();
}

TEST(LazyCollectionTest, KeyedProbePullsItsLeftInputOneRowAtATime) {
  // In keyed mode a probe join pulls its left input one row at a time:
  // each left row is one unit of demand on the keyed right side, so a
  // cursor closed early never runs the left side's streamed collection
  // ahead of the output. At O1 the conjunction streams sl_c into a
  // full-built ij_t_c and probes ij_t_e keyed on t. Pulling the left side
  // a whole 3-row chunk at a time scans 66 elements here, not 62.
  UniversityScale scale;
  scale.employees = 12;
  scale.papers = 24;
  scale.courses = 7;
  scale.timetable = 36;
  auto db = MakeUniversityDb(/*populate=*/false);
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  Session session(db.get());
  session.options().level = OptLevel::kParallel;
  session.options().collection = CollectionPolicy::kLazy;
  session.options().batch_size = 3;
  auto prepared = session.Prepare(kThreeInputConjunction);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  Tuple t;
  for (int i = 0; i < 4; ++i) {
    auto more = cursor->Next(&t);
    ASSERT_TRUE(more.ok() && *more) << "tuple " << i;
  }
  EXPECT_EQ(cursor->stats().structure_elements_built, 61u);
  EXPECT_EQ(cursor->stats().elements_scanned, 62u);
  cursor->Close();
}

TEST(LazyCollectionTest, AcceptanceThreeInputConjunctionOneTupleBound) {
  // The acceptance criterion: on a >=3-input-conjunction paper-style
  // query drained for one tuple and closed, lazy collection builds
  // strictly fewer structure elements than eager.
  UniversityScale scale;
  scale.employees = 48;
  scale.papers = 80;
  scale.courses = 25;
  scale.timetable = 144;
  scale.seed = 3;
  for (OptLevel level : {OptLevel::kParallel, OptLevel::kOneStep}) {
    auto db = MakeUniversityDb(/*populate=*/false);
    ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
    auto one_tuple_elements = [&](CollectionPolicy policy) -> uint64_t {
      Session session(db.get());
      session.options().level = level;
      session.options().collection = policy;
      auto prepared = session.Prepare(kThreeInputConjunction);
      EXPECT_TRUE(prepared.ok());
      auto cursor = prepared->OpenCursor();
      EXPECT_TRUE(cursor.ok());
      Tuple t;
      auto more = cursor->Next(&t);
      EXPECT_TRUE(more.ok() && *more);
      uint64_t built = cursor->stats().structure_elements_built;
      cursor->Close();
      return built;
    };
    uint64_t eager = one_tuple_elements(CollectionPolicy::kEager);
    uint64_t lazy = one_tuple_elements(CollectionPolicy::kLazy);
    EXPECT_GT(eager, 0u) << OptLevelToString(level);
    EXPECT_LT(lazy, eager) << OptLevelToString(level);
  }
}

// ------------------------------------------------------------ SQL surface

TEST(LazyCollectionSurfaceTest, SetCollectionStatementAndExplain) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  EXPECT_EQ(session.options().collection, CollectionPolicy::kEager);

  ASSERT_TRUE(session.ExecuteScript("SET COLLECTION LAZY;").ok());
  EXPECT_EQ(session.options().collection, CollectionPolicy::kLazy);
  auto text_lazy = session.Explain(kThreeInputConjunction);
  ASSERT_TRUE(text_lazy.ok());
  EXPECT_NE(text_lazy->find("policy: lazy"), std::string::npos) << *text_lazy;
  EXPECT_NE(text_lazy->find("on demand"), std::string::npos) << *text_lazy;

  ASSERT_TRUE(session.ExecuteScript("SET COLLECTION EAGER;").ok());
  EXPECT_EQ(session.options().collection, CollectionPolicy::kEager);
  auto text_eager = session.Explain(kThreeInputConjunction);
  ASSERT_TRUE(text_eager.ok());
  EXPECT_NE(text_eager->find("policy: eager"), std::string::npos)
      << *text_eager;
  EXPECT_EQ(text_eager->find("on demand"), std::string::npos) << *text_eager;

  EXPECT_FALSE(session.ExecuteScript("SET COLLECTION MAYBE;").ok());
}

TEST(LazyCollectionSurfaceTest, TogglingPolicyInvalidatesCachedPlans) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(kThreeDisjunctQuery);
  ASSERT_TRUE(prepared.ok());
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cache_hit);
  auto second = prepared->Execute();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);

  session.options().collection = CollectionPolicy::kLazy;  // -> replan
  auto third = prepared->Execute();
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->plan_cache_hit);
  EXPECT_EQ(TupleStrings(third->tuples), TupleStrings(first->tuples));
}

}  // namespace
}  // namespace pascalr
