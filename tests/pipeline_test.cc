// The pipelined combination subsystem (src/pipeline/): operator units,
// pipelined-vs-materialized tuple identity across the paper examples and
// planner levels, peak-intermediate-row accounting (pipelined <=
// materialized, strictly lower on >=3-input conjunctions), early-Close
// join-work skipping, and the SET PIPELINE / EXPLAIN surface.

#include "pipeline/compile.h"

#include <sstream>

#include <gtest/gtest.h>

#include "exec/cursor.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "pascalr/prepared.h"
#include "pascalr/session.h"
#include "pipeline/iterators.h"
#include "pipeline/shape.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

// ------------------------------------------------------------ operator units

TEST(PipelineIteratorTest, ScanAndProjectDedup) {
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  ij.Add({R(1, 0), R(2, 0)});
  ij.Add({R(1, 0), R(2, 1)});
  ij.Add({R(1, 1), R(2, 0)});

  ExecStats stats;
  PeakTracker tracker(&stats);
  // Project onto "a" with dedup: 3 child rows collapse to 2.
  auto project = std::make_unique<ProjectIter>(
      std::make_unique<ScanIter>(&ij), std::vector<int>{0},
      std::vector<std::string>{"a"}, /*dedup=*/true, &stats, &tracker);
  RefRow row;
  std::vector<RefRow> rows;
  while (true) {
    auto more = project->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (RefRow{R(1, 0)}));
  EXPECT_EQ(rows[1], (RefRow{R(1, 1)}));
  EXPECT_EQ(stats.combination_rows, 2u);
  EXPECT_EQ(stats.peak_intermediate_rows, 2u);  // the dedup seen-set
}

TEST(PipelineIteratorTest, ProbeJoinKeyedSemiAndCross) {
  RefRelation left = RefRelation::IndirectJoin("e", "t");
  left.Add({R(1, 0), R(4, 0)});
  left.Add({R(1, 1), R(4, 1)});
  left.Add({R(1, 2), R(4, 9)});  // no partner
  RefRelation right = RefRelation::IndirectJoin("t", "c");
  right.Add({R(4, 0), R(3, 0)});
  right.Add({R(4, 0), R(3, 1)});
  right.Add({R(4, 1), R(3, 0)});

  auto drain = [](RefIterator* it) {
    std::vector<RefRow> rows;
    RefRow row;
    while (true) {
      auto more = it->Next(&row);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
      rows.push_back(row);
    }
    return rows;
  };

  // Full join on t: (e,t) x (t,c) -> (e,t,c), 3 pairs.
  ExecStats stats;
  ProbeJoinIter join(std::make_unique<ScanIter>(&left), &right,
                     /*left_key=*/{1}, /*right_key=*/{0},
                     /*right_extras=*/{1}, /*semi=*/false, &stats);
  EXPECT_EQ(drain(&join).size(), 3u);
  EXPECT_EQ(stats.combination_rows, 3u);

  // Semi join: one emission per matching left row, no extra columns.
  ExecStats semi_stats;
  ProbeJoinIter semi(std::make_unique<ScanIter>(&left), &right,
                     /*left_key=*/{1}, /*right_key=*/{0},
                     /*right_extras=*/{1}, /*semi=*/true, &semi_stats);
  std::vector<RefRow> semi_rows = drain(&semi);
  ASSERT_EQ(semi_rows.size(), 2u);
  EXPECT_EQ(semi_rows[0].size(), 2u);  // left columns only
  EXPECT_LT(semi_stats.combination_rows, stats.combination_rows);

  // Cross step (no shared key): |left| x |right| emissions.
  ExecStats cross_stats;
  ProbeJoinIter cross(std::make_unique<ScanIter>(&left), &right,
                      /*left_key=*/{}, /*right_key=*/{},
                      /*right_extras=*/{0, 1}, /*semi=*/false, &cross_stats);
  EXPECT_EQ(drain(&cross).size(), 9u);
}

TEST(PipelineIteratorTest, ExtendFilterConcatUnit) {
  std::vector<Ref> refs = {R(7, 0), R(7, 1), R(7, 2)};
  ExecStats stats;
  auto extend = std::make_unique<ExtendIter>(std::make_unique<UnitIter>(),
                                             &refs, &stats);
  RefRow row;
  size_t n = 0;
  while (true) {
    auto more = extend->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_EQ(row.size(), 1u);
    ++n;
  }
  EXPECT_EQ(n, 3u);

  // Filter keeps rows whose two columns hold the same ref.
  RefRelation pairs = RefRelation::IndirectJoin("x", "y");
  pairs.Add({R(1, 0), R(1, 0)});
  pairs.Add({R(1, 0), R(1, 1)});
  FilterIter filter(std::make_unique<ScanIter>(&pairs), 0, 1, /*equal=*/true,
                    &stats);
  size_t kept = 0;
  while (true) {
    auto more = filter.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++kept;
  }
  EXPECT_EQ(kept, 1u);

  std::vector<RefIteratorPtr> parts;
  parts.push_back(std::make_unique<UnitIter>());
  parts.push_back(std::make_unique<EmptyIter>());
  parts.push_back(std::make_unique<UnitIter>());
  ConcatIter concat(std::move(parts));
  size_t units = 0;
  while (true) {
    auto more = concat.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++units;
  }
  EXPECT_EQ(units, 2u);
}

TEST(PipelineShapeTest, ExistentialAndNeededSplit) {
  // [free e] SOME t ALL p SOME c: c is inner to the ALL -> existential;
  // e, t, p survive to the tail (t is outer to the ALL).
  QueryPlan plan;
  auto add = [&](const char* var, Quantifier q) {
    QuantifiedVar qv;
    qv.var = var;
    qv.quantifier = q;
    qv.range = RangeExpr("employees");
    plan.sf.prefix.push_back(std::move(qv));
  };
  add("e", Quantifier::kFree);
  add("t", Quantifier::kSome);
  add("p", Quantifier::kAll);
  add("c", Quantifier::kSome);
  PipelineShape shape = AnalyzePipelineShape(plan);
  EXPECT_TRUE(shape.has_division);
  EXPECT_EQ(shape.free_names, (std::vector<std::string>{"e"}));
  EXPECT_EQ(shape.needed, (std::vector<std::string>{"e", "t", "p"}));
  EXPECT_EQ(shape.existential, (std::vector<std::string>{"c"}));
  EXPECT_EQ(shape.tail.size(), 3u);

  // Without the ALL every quantified variable is purely existential.
  plan.sf.prefix[2].quantifier = Quantifier::kSome;
  PipelineShape flat = AnalyzePipelineShape(plan);
  EXPECT_FALSE(flat.has_division);
  EXPECT_EQ(flat.needed, (std::vector<std::string>{"e"}));
  EXPECT_EQ(flat.existential, (std::vector<std::string>{"t", "p", "c"}));
}

// -------------------------------------------------- end-to-end equivalence

const char* const kPaperExamples[] = {
    "[<e.ename> OF EACH e IN employees: e.estatus = professor]",
    "[<e.ename> OF EACH e IN employees:"
    " SOME t IN timetable (e.enr = t.tenr)]",
    "[<e.ename> OF EACH e IN employees:"
    " (e.estatus = professor) AND"
    " (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))"
    "  OR SOME c IN courses ((c.clevel <= sophomore)"
    "     AND SOME t IN timetable ((c.cnr = t.tcnr) AND"
    "                              (e.enr = t.tenr))))]",
    "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
    " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]",
};

// A 3-input conjunction at levels 1/2: one conjunction joining ij(e,t),
// ij(c,t) and the monadic restriction on c.
const char* kThreeInputConjunction =
    "[<e.ename> OF EACH e IN employees:"
    " SOME c IN courses SOME t IN timetable"
    " ((c.clevel <= sophomore) AND (c.cnr = t.tcnr) AND (e.enr = t.tenr))]";

TEST(PipelineEquivalenceTest, PaperExamplesAcrossLevelsAndModes) {
  for (int level = 0; level <= 5; ++level) {
    auto db = MakeUniversityDb();
    ASSERT_TRUE(db->AnalyzeAll().ok());
    for (const char* src : kPaperExamples) {
      Session on(db.get());
      on.options().level = static_cast<OptLevel>(level);
      on.options().pipeline = true;
      Session off(db.get());
      off.options().level = static_cast<OptLevel>(level);
      off.options().pipeline = false;
      auto run_on = on.Query(src);
      auto run_off = off.Query(src);
      ASSERT_TRUE(run_on.ok()) << run_on.status().ToString();
      ASSERT_TRUE(run_off.ok()) << run_off.status().ToString();
      EXPECT_EQ(TupleStrings(run_on->tuples), TupleStrings(run_off->tuples))
          << "level " << level << "\n" << src;
    }
  }
}

TEST(PipelineEquivalenceTest, CursorActuallyStreamsAndMatches) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  for (const char* src : kPaperExamples) {
    auto prepared = session.Prepare(src);
    ASSERT_TRUE(prepared.ok());
    auto cursor = prepared->OpenCursor();
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_TRUE(cursor->pipelined()) << src;
    // Open ran only the collection phase: no combination row exists yet.
    EXPECT_EQ(cursor->stats().combination_rows, 0u) << src;
    std::vector<Tuple> streamed;
    Tuple t;
    while (true) {
      auto more = cursor->Next(&t);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      streamed.push_back(std::move(t));
    }
    cursor->Close();

    PlannerOptions materialized = session.options();
    materialized.pipeline = false;
    auto reference =
        RunQuery(*db, testing_util::MustBind(*db, src), materialized);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(TupleStrings(streamed), TupleStrings(reference->tuples)) << src;
  }
}

TEST(PipelineEquivalenceTest, CompileFailureFailsTheOpen) {
  // A pipelined plan the compiler rejects must surface its Status from
  // Cursor::Open, never run through the materializing combination.
  auto db = MakeUniversityDb();
  Result<PlannedQuery> planned = PlanQuery(
      *db, testing_util::MustBind(*db, kPaperExamples[0]), PlannerOptions());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_TRUE(planned->plan.pipeline);
  planned->plan.conj_inputs.clear();  // out of sync with the disjuncts
  Result<Cursor> cursor = Cursor::Open(
      std::make_shared<const QueryPlan>(std::move(planned->plan)), *db);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInternal)
      << cursor.status().ToString();
}

TEST(PipelineEquivalenceTest, DivisionPathIsIdenticalFromTheBufferOn) {
  // Example 2.1 has the universal quantifier: the pipelined division
  // input must be the very relation the materializing path divides, so
  // the division work counters agree exactly.
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(Example21QuerySource());
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->pipelined());
  Tuple t;
  std::vector<Tuple> streamed;
  while (true) {
    auto more = cursor->Next(&t);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    streamed.push_back(std::move(t));
  }
  ExecStats pipelined = cursor->stats();
  cursor->Close();

  PlannerOptions materialized = session.options();
  materialized.pipeline = false;
  auto reference = RunQuery(
      *db, testing_util::MustBind(*db, Example21QuerySource()), materialized);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(TupleStrings(streamed), TupleStrings(reference->tuples));
  EXPECT_EQ(pipelined.division_input_rows,
            reference->stats.division_input_rows);
  EXPECT_EQ(pipelined.dereferences, reference->stats.dereferences);
}

// ---------------------------------------------------------- peak accounting

struct ModeStats {
  ExecStats stats;
  size_t tuples = 0;
};

ModeStats RunMode(Database* db, const std::string& src, OptLevel level,
                  bool pipeline) {
  Session session(db);
  session.options().level = level;
  session.options().pipeline = pipeline;
  auto run = session.Query(src);
  EXPECT_TRUE(run.ok()) << run.status().ToString() << "\n" << src;
  ModeStats out;
  if (run.ok()) {
    out.stats = run->stats;
    out.tuples = run->tuples.size();
  }
  return out;
}

TEST(PipelinePeakTest, PipelinedPeakNeverExceedsMaterializedOnPaperExamples) {
  for (const char* src : kPaperExamples) {
    for (int level = 0; level <= 4; ++level) {
      auto db = MakeUniversityDb();
      ModeStats mat = RunMode(db.get(), src, static_cast<OptLevel>(level),
                              /*pipeline=*/false);
      ModeStats pipe = RunMode(db.get(), src, static_cast<OptLevel>(level),
                               /*pipeline=*/true);
      EXPECT_EQ(pipe.tuples, mat.tuples) << src;
      EXPECT_LE(pipe.stats.peak_intermediate_rows,
                mat.stats.peak_intermediate_rows)
          << "level " << level << "\n" << src;
    }
  }
}

TEST(PipelinePeakTest, StrictlyLowerOnThreeInputConjunctions) {
  // Levels whose plans feed >=3 structures into one conjunction; the
  // materializing path must hold a join intermediate the pipeline never
  // builds.
  UniversityScale scale;
  scale.employees = 24;
  scale.papers = 40;
  scale.courses = 13;
  scale.timetable = 72;
  scale.seed = 11;
  for (OptLevel level : {OptLevel::kParallel, OptLevel::kOneStep}) {
    auto db = MakeUniversityDb(/*populate=*/false);
    ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
    ModeStats mat =
        RunMode(db.get(), kThreeInputConjunction, level, /*pipeline=*/false);
    ModeStats pipe =
        RunMode(db.get(), kThreeInputConjunction, level, /*pipeline=*/true);
    EXPECT_EQ(pipe.tuples, mat.tuples);
    EXPECT_GT(mat.stats.peak_intermediate_rows, 0u);
    EXPECT_LT(pipe.stats.peak_intermediate_rows,
              mat.stats.peak_intermediate_rows)
        << OptLevelToString(level);
  }
  // Generated >=3-input chain conjunctions keep the strict gap too.
  QueryGenerator gen(20260728);
  auto db = MakeUniversityDb(/*populate=*/false);
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  size_t strict = 0, total = 0;
  for (int i = 0; i < 8; ++i) {
    SelectionExpr sel = gen.RandomChainSelection(3, 0.3);
    Binder binder(db.get());
    auto bound_on = binder.Bind(sel.Clone());
    auto bound_off = binder.Bind(sel.Clone());
    ASSERT_TRUE(bound_on.ok() && bound_off.ok());
    PlannerOptions on, off;
    on.level = off.level = OptLevel::kParallel;
    on.pipeline = true;
    off.pipeline = false;
    auto run_off = RunQuery(*db, std::move(bound_off).value(), off);
    ASSERT_TRUE(run_off.ok());
    // The pipelined side goes through the cursor (RunQuery always
    // materializes); Session::Query uses the cursor.
    Session session(db.get());
    session.options() = on;
    Binder rebinder(db.get());
    auto prepared = session.PrepareSelection(std::move(sel));
    ASSERT_TRUE(prepared.ok());
    auto exec = prepared->Execute();
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(run_off->tuples));
    ++total;
    EXPECT_LE(exec->stats.peak_intermediate_rows,
              run_off->stats.peak_intermediate_rows);
    if (exec->stats.peak_intermediate_rows <
        run_off->stats.peak_intermediate_rows) {
      ++strict;
    }
  }
  EXPECT_GE(strict, total / 2) << "pipelining should beat materialization "
                                  "on most 3-join chains";
}

// ------------------------------------------------------------- early close

TEST(PipelineEarlyCloseTest, CloseAfterOneTupleSkipsJoinWork) {
  UniversityScale scale;
  scale.employees = 48;
  scale.papers = 80;
  scale.courses = 25;
  scale.timetable = 144;
  scale.seed = 3;
  auto db = MakeUniversityDb(/*populate=*/false);
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  const std::string src =
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]";

  Session session(db.get());
  // Early close skips work at chunk granularity: under the default
  // 1024-row batch the whole combination fits in the first pull at this
  // scale, so pin a small batch to keep the streaming skip observable.
  ASSERT_TRUE(session.ExecuteScript("SET BATCH 16;").ok());
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok());

  auto full = prepared->OpenCursor();
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->pipelined());
  Tuple t;
  size_t results = 0;
  while (true) {
    auto more = full->Next(&t);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++results;
  }
  ExecStats drained = full->stats();
  full->Close();
  ASSERT_GT(results, 4u) << "query too selective to observe streaming";

  auto partial = prepared->OpenCursor();
  ASSERT_TRUE(partial.ok());
  auto more = partial->Next(&t);
  ASSERT_TRUE(more.ok() && *more);
  ExecStats early = partial->stats();
  partial->Close();

  // Closing after one tuple moved strictly fewer join counters than
  // draining: the unperformed combination work never happened.
  EXPECT_LT(early.combination_rows, drained.combination_rows);
  EXPECT_LT(early.dereferences, drained.dereferences);
  EXPECT_LT(early.TotalWork(), drained.TotalWork());
}

// ------------------------------------------------------------ SQL / EXPLAIN

TEST(PipelineSurfaceTest, SetPipelineStatementAndExplainMode) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  EXPECT_TRUE(session.options().pipeline);

  ASSERT_TRUE(session.ExecuteScript("SET PIPELINE OFF;").ok());
  EXPECT_FALSE(session.options().pipeline);
  auto text_off = session.Explain(kPaperExamples[1]);
  ASSERT_TRUE(text_off.ok());
  EXPECT_NE(text_off->find("mode: materialized"), std::string::npos)
      << *text_off;

  ASSERT_TRUE(session.ExecuteScript("SET PIPELINE ON;").ok());
  EXPECT_TRUE(session.options().pipeline);
  auto text_on = session.Explain(kPaperExamples[1]);
  ASSERT_TRUE(text_on.ok());
  EXPECT_NE(text_on->find("mode: pipelined"), std::string::npos) << *text_on;

  EXPECT_FALSE(session.ExecuteScript("SET PIPELINE MAYBE;").ok());
}

TEST(PipelineSurfaceTest, TogglingPipelineInvalidatesCachedPlans) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(kPaperExamples[1]);
  ASSERT_TRUE(prepared.ok());
  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cache_hit);
  auto second = prepared->Execute();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);

  session.options().pipeline = false;  // options changed -> replan
  auto third = prepared->Execute();
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->plan_cache_hit);
  EXPECT_EQ(TupleStrings(third->tuples), TupleStrings(first->tuples));
}

TEST(PipelineSurfaceTest, ExplainRendersIteratorTreeWithCardinalities) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  std::ostringstream out;
  Session session(db.get(), &out);
  // The 3-input conjunction at level 2 with fresh stats attaches a tree;
  // pipelined EXPLAIN renders it as the iterator chain.
  ASSERT_TRUE(session.ExecuteScript("SET OPTLEVEL 2;").ok());
  auto text = session.Explain(kThreeInputConjunction);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("mode: pipelined"), std::string::npos) << *text;
  EXPECT_NE(text->find("existential-only vars"), std::string::npos) << *text;
  EXPECT_NE(text->find("pipelined sink"), std::string::npos) << *text;
}

}  // namespace
}  // namespace pascalr
