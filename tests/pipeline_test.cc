// The pipelined combination subsystem (src/pipeline/): operator units,
// tuple identity against the paper's materialized reference
// (tests/materialized_reference.h) across the paper examples and planner
// levels, peak-intermediate-row accounting (pipelined <= materialized,
// strictly lower on >=3-input conjunctions), early-Close join-work
// skipping, and the EXPLAIN surface.

#include "pipeline/compile.h"

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "base/str_util.h"
#include "exec/cursor.h"
#include "opt/explain.h"
#include "opt/planner.h"
#include "pascalr/prepared.h"
#include "pascalr/session.h"
#include "pipeline/iterators.h"
#include "pipeline/shape.h"
#include "tests/materialized_reference.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MaterializedRun;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

// ------------------------------------------------------------ operator units

// Drains `it` through NextBatch at `capacity` rows per pull and returns
// the rows in order. Every pull before exhaustion must carry 1 to
// `capacity` rows.
std::vector<RefRow> DrainRows(RefIterator* it, size_t capacity) {
  std::vector<RefRow> rows;
  Chunk chunk;
  RefRow row;
  while (true) {
    chunk.capacity = capacity;
    auto more = it->NextBatch(&chunk);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    EXPECT_GT(chunk.rows, 0u);
    EXPECT_LE(chunk.rows, capacity);
    for (size_t r = 0; r < chunk.rows; ++r) {
      chunk.RowAt(r, &row);
      rows.push_back(row);
    }
  }
  return rows;
}

// The unit drains run at capacities 1 and 3, so chunk boundaries fall
// inside match chains, extensions and dedup runs.
constexpr size_t kUnitCapacities[] = {1, 3};

TEST(PipelineIteratorTest, ScanAndProjectDedup) {
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  ij.Add({R(1, 0), R(2, 0)});
  ij.Add({R(1, 0), R(2, 1)});
  ij.Add({R(1, 1), R(2, 0)});

  for (size_t capacity : kUnitCapacities) {
    SCOPED_TRACE(capacity);
    ExecStats stats;
    PeakTracker tracker(&stats);
    // Project onto "a" with dedup: 3 child rows collapse to 2.
    ProjectIter project(std::make_unique<ScanIter>(&ij), std::vector<int>{0},
                        std::vector<std::string>{"a"}, /*dedup=*/true, &stats,
                        &tracker);
    std::vector<RefRow> rows = DrainRows(&project, capacity);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], (RefRow{R(1, 0)}));
    EXPECT_EQ(rows[1], (RefRow{R(1, 1)}));
    EXPECT_EQ(stats.combination_rows, 2u);
    EXPECT_EQ(stats.peak_intermediate_rows, 2u);  // the dedup seen-set
  }
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

  for (size_t capacity : kUnitCapacities) {
    SCOPED_TRACE(capacity);
    // Full join on t: (e,t) x (t,c) -> (e,t,c), 3 pairs in probe order.
    ExecStats stats;
    ProbeJoinIter join(std::make_unique<ScanIter>(&left), &right,
                       /*left_key=*/{1}, /*right_key=*/{0},
                       /*right_extras=*/{1}, /*semi=*/false, &stats);
    std::vector<RefRow> joined = DrainRows(&join, capacity);
    ASSERT_EQ(joined.size(), 3u);
    EXPECT_EQ(joined[0], (RefRow{R(1, 0), R(4, 0), R(3, 0)}));
    EXPECT_EQ(joined[1], (RefRow{R(1, 0), R(4, 0), R(3, 1)}));
    EXPECT_EQ(joined[2], (RefRow{R(1, 1), R(4, 1), R(3, 0)}));
    EXPECT_EQ(stats.combination_rows, 3u);

    // Semi join: one emission per matching left row, no extra columns.
    ExecStats semi_stats;
    ProbeJoinIter semi(std::make_unique<ScanIter>(&left), &right,
                       /*left_key=*/{1}, /*right_key=*/{0},
                       /*right_extras=*/{1}, /*semi=*/true, &semi_stats);
    std::vector<RefRow> semi_rows = DrainRows(&semi, capacity);
    ASSERT_EQ(semi_rows.size(), 2u);
    EXPECT_EQ(semi_rows[0].size(), 2u);  // left columns only
    EXPECT_LT(semi_stats.combination_rows, stats.combination_rows);

    // Cross step (no shared key): |left| x |right| emissions.
    ExecStats cross_stats;
    ProbeJoinIter cross(std::make_unique<ScanIter>(&left), &right,
                        /*left_key=*/{}, /*right_key=*/{},
                        /*right_extras=*/{0, 1}, /*semi=*/false,
                        &cross_stats);
    EXPECT_EQ(DrainRows(&cross, capacity).size(), 9u);
  }
}

TEST(PipelineIteratorTest, ProbeJoinEmitsMatchesInRightRowOrder) {
  // 300 join keys with 4 right rows each, added key-interleaved, so the
  // join table's probe runs for different keys overlap and every key's
  // rows sit far apart in the right structure. Each left row's matches
  // must still come out in right-row (scan) order: the nested-loop order
  // the materializing join produces.
  RefRelation right = RefRelation::IndirectJoin("t", "c");
  for (uint32_t c = 0; c < 4; ++c) {
    for (uint32_t t = 0; t < 300; ++t) {
      right.Add({R(4, t), R(3, c * 1000 + (t * 37) % 1000)});
    }
  }
  RefRelation left = RefRelation::IndirectJoin("e", "t");
  for (uint32_t e = 0; e < 600; ++e) {
    left.Add({R(1, e), R(4, (e * 7) % 310)});  // t >= 300: no partner
  }
  std::vector<RefRow> want;
  std::vector<RefRow> want_semi;
  for (const RowView l : left.rows()) {
    bool matched = false;
    for (const RowView r : right.rows()) {
      if (l[1] != r[0]) continue;
      want.push_back({l[0], l[1], r[1]});
      if (!matched) want_semi.push_back({l[0], l[1]});
      matched = true;
    }
  }
  ASSERT_GT(want.size(), Chunk::kDefaultRows);

  for (size_t capacity : {size_t{1}, size_t{3}, Chunk::kDefaultRows}) {
    SCOPED_TRACE(capacity);
    ExecStats stats;
    ProbeJoinIter join(std::make_unique<ScanIter>(&left), &right,
                       /*left_key=*/{1}, /*right_key=*/{0},
                       /*right_extras=*/{1}, /*semi=*/false, &stats);
    EXPECT_EQ(DrainRows(&join, capacity), want);
    EXPECT_EQ(stats.combination_rows, want.size());

    ExecStats semi_stats;
    ProbeJoinIter semi(std::make_unique<ScanIter>(&left), &right,
                       /*left_key=*/{1}, /*right_key=*/{0},
                       /*right_extras=*/{1}, /*semi=*/true, &semi_stats);
    EXPECT_EQ(DrainRows(&semi, capacity), want_semi);
  }
}

TEST(PipelineIteratorTest, ExtendFilterConcatUnit) {
  std::vector<Ref> refs = {R(7, 0), R(7, 1), R(7, 2)};
  for (size_t capacity : kUnitCapacities) {
    SCOPED_TRACE(capacity);
    ExecStats stats;
    ExtendIter extend(std::make_unique<UnitIter>(), &refs, &stats);
    std::vector<RefRow> extended = DrainRows(&extend, capacity);
    ASSERT_EQ(extended.size(), 3u);
    for (size_t i = 0; i < extended.size(); ++i) {
      EXPECT_EQ(extended[i], (RefRow{refs[i]}));
    }

    // Filter keeps rows whose two columns hold the same ref.
    RefRelation pairs = RefRelation::IndirectJoin("x", "y");
    pairs.Add({R(1, 0), R(1, 0)});
    pairs.Add({R(1, 0), R(1, 1)});
    FilterIter filter(std::make_unique<ScanIter>(&pairs), 0, 1,
                      /*equal=*/true, &stats);
    EXPECT_EQ(DrainRows(&filter, capacity).size(), 1u);

    std::vector<RefIteratorPtr> parts;
    parts.push_back(std::make_unique<UnitIter>());
    parts.push_back(std::make_unique<EmptyIter>());
    parts.push_back(std::make_unique<UnitIter>());
    ConcatIter concat(std::move(parts));
    std::vector<RefRow> units = DrainRows(&concat, capacity);
    ASSERT_EQ(units.size(), 2u);
    EXPECT_TRUE(units[0].empty());  // the arity-0 TRUE row
  }
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

/// Plans `bound` under `options` and runs the materialized reference.
MaterializedRun MustRunMaterialized(const Database& db, BoundQuery bound,
                                    const PlannerOptions& options) {
  Result<PlannedQuery> planned = PlanQuery(db, std::move(bound), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  if (!planned.ok()) return {};
  Result<MaterializedRun> run =
      testing_util::RunMaterialized(planned->plan, db);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run).value() : MaterializedRun();
}

MaterializedRun MustRunMaterialized(const Database& db, const std::string& src,
                                    const PlannerOptions& options) {
  return MustRunMaterialized(db, testing_util::MustBind(db, src), options);
}

TEST(PipelineEquivalenceTest, PaperExamplesAcrossLevels) {
  for (int level = 0; level <= 5; ++level) {
    auto db = MakeUniversityDb();
    ASSERT_TRUE(db->AnalyzeAll().ok());
    for (const char* src : kPaperExamples) {
      Session session(db.get());
      session.options().level = static_cast<OptLevel>(level);
      auto run = session.Query(src);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      MaterializedRun reference =
          MustRunMaterialized(*db, src, session.options());
      EXPECT_EQ(TupleStrings(run->tuples), TupleStrings(reference.tuples))
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

    MaterializedRun reference =
        MustRunMaterialized(*db, src, session.options());
    EXPECT_EQ(TupleStrings(streamed), TupleStrings(reference.tuples)) << src;
  }
}

TEST(PipelineEquivalenceTest, CompileFailureFailsTheOpen) {
  // A pipelined plan the compiler rejects must surface its Status from
  // Cursor::Open, never run through the materializing combination.
  auto db = MakeUniversityDb();
  Result<PlannedQuery> planned = PlanQuery(
      *db, testing_util::MustBind(*db, kPaperExamples[0]), PlannerOptions());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
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

  MaterializedRun reference =
      MustRunMaterialized(*db, Example21QuerySource(), session.options());
  EXPECT_EQ(TupleStrings(streamed), TupleStrings(reference.tuples));
  EXPECT_EQ(pipelined.division_input_rows, reference.stats.division_input_rows);
  EXPECT_EQ(pipelined.dereferences, reference.stats.dereferences);
}

TEST(PipelineEquivalenceTest, HashAndSortDivisionAgreeBeyondOneChunk) {
  // Example 2.1 on a synthetic database large enough that the quantifier
  // tail buffers more than one chunk of division input: the hash and the
  // sort division (which sorts row ids over the buffered relation) must
  // give the same tuples.
  auto db = MakeUniversityDb(/*populate=*/false);
  UniversityScale scale;
  scale.employees = 60;
  scale.papers = 120;
  scale.courses = 20;
  scale.timetable = 180;
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  std::vector<std::multiset<std::string>> results;
  for (DivisionAlgorithm division :
       {DivisionAlgorithm::kHash, DivisionAlgorithm::kSort}) {
    Session session(db.get());
    session.options().level = OptLevel::kOneStep;
    session.options().division = division;
    auto run = session.Query(Example21QuerySource());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(run->stats.division_input_rows, Chunk::kDefaultRows);
    results.push_back(TupleStrings(run->tuples));
  }
  EXPECT_FALSE(results[0].empty());
  EXPECT_EQ(results[0], results[1]);
}

// ---------------------------------------------------------- peak accounting

struct ModeStats {
  ExecStats stats;
  size_t tuples = 0;
};

/// `src` at `level` through the Cursor (pipeline) or the materialized
/// reference.
ModeStats RunMode(Database* db, const std::string& src, OptLevel level,
                  bool pipeline) {
  ModeStats out;
  if (!pipeline) {
    PlannerOptions options;
    options.level = level;
    MaterializedRun run = MustRunMaterialized(*db, src, options);
    out.stats = run.stats;
    out.tuples = run.tuples.size();
    return out;
  }
  Session session(db);
  session.options().level = level;
  auto run = session.Query(src);
  EXPECT_TRUE(run.ok()) << run.status().ToString() << "\n" << src;
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
    auto bound = binder.Bind(sel.Clone());
    ASSERT_TRUE(bound.ok());
    PlannerOptions options;
    options.level = OptLevel::kParallel;
    MaterializedRun reference =
        MustRunMaterialized(*db, std::move(bound).value(), options);
    Session session(db.get());
    session.options() = options;
    auto prepared = session.PrepareSelection(std::move(sel));
    ASSERT_TRUE(prepared.ok());
    auto exec = prepared->Execute();
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(reference.tuples));
    ++total;
    EXPECT_LE(exec->stats.peak_intermediate_rows,
              reference.stats.peak_intermediate_rows);
    if (exec->stats.peak_intermediate_rows <
        reference.stats.peak_intermediate_rows) {
      ++strict;
    }
  }
  EXPECT_GE(strict, total / 2) << "pipelining should beat materialization "
                                  "on most 3-join chains";
}

// ------------------------------------------------------------- join order

TEST(PipelineJoinOrderTest, ExecutedOrderFollowsActualSizesNotStaleStats) {
  // The combination phase joins greedily smallest-first on the sizes of
  // the structures collection actually built. ANALYZE records 13
  // courses, so sl_c (sophomore courses) is the smallest input; growing
  // courses 10x with courses nobody teaches makes it the largest, while
  // the statistics still describe the old relation.
  UniversityScale scale;
  scale.employees = 24;
  scale.papers = 40;
  scale.courses = 13;
  scale.timetable = 72;
  scale.seed = 11;
  auto db = MakeUniversityDb(/*populate=*/false);
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session.ExecuteScript("SET OPTLEVEL 1;").ok());
  const std::string explain =
      std::string("EXPLAIN ANALYZE ") + kThreeInputConjunction + ";";

  ASSERT_TRUE(session.ExecuteScript(explain).ok()) << out.str();
  std::string before = out.str();
  EXPECT_NE(before.find("scan sl_c  (rows=4 "), std::string::npos) << before;

  std::string grow;
  for (int i = 0; i < 117; ++i) {
    grow += StrFormat("courses :+ [<%d, freshman, 'X%d'>];", 1000 + i, i);
  }
  ASSERT_TRUE(session.ExecuteScript(grow).ok());
  ASSERT_EQ(db->FindRelation("courses")->cardinality(), 130u);
  ASSERT_EQ(db->FindFreshStats("courses"), nullptr);

  out.str("");
  ASSERT_TRUE(session.ExecuteScript(explain).ok()) << out.str();
  std::string after = out.str();
  // sl_c comes first in declaration order, but ij_c_t (72 rows) is now
  // the smallest input: it drives, ij_t_e probes, and sl_c (121 rows)
  // is left as a membership filter.
  EXPECT_NE(after.find("conjunction 0: join {sl_c, ij_c_t, ij_t_e}"),
            std::string::npos)
      << after;
  EXPECT_NE(after.find("scan ij_c_t  (rows=72 "), std::string::npos) << after;
  EXPECT_NE(after.find("probe-join ij_t_e  (rows=72 "), std::string::npos)
      << after;
  EXPECT_NE(after.find("filter sl_c  (rows=18 "), std::string::npos) << after;
  EXPECT_EQ(after.find("scan sl_c"), std::string::npos) << after;

  // 72 probe-join rows + 18 filtered + 18 projected + 12 through the sink.
  auto run = session.Query(kThreeInputConjunction);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->tuples.size(), 12u);
  EXPECT_EQ(run->stats.combination_rows, 120u);
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

TEST(PipelineSurfaceTest, DeletedOptionsAreUnknown) {
  // The pipeline is the only execution mode, the greedy order the only
  // join order and the eager pass the only collection policy: there is
  // nothing to switch.
  auto db = MakeUniversityDb();
  Session session(db.get());
  for (const char* stmt :
       {"SET PIPELINE ON;", "SET PIPELINE OFF;", "SET JOINORDER DP;",
        "SET JOINORDER BUSHY;", "SET JOINORDER GREEDY;",
        "SET COLLECTION EAGER;", "SET COLLECTION LAZY;"}) {
    Status status = session.ExecuteScript(stmt);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << stmt;
  }
  auto text = session.Explain(kPaperExamples[1]);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("mode: pipelined"), std::string::npos) << *text;
}

TEST(PipelineSurfaceTest, ExplainDescribesThePipelinedCombination) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  std::ostringstream out;
  Session session(db.get(), &out);
  // The 3-input conjunction at level 2: EXPLAIN describes the pipelined
  // combination and names the greedy join order.
  ASSERT_TRUE(session.ExecuteScript("SET OPTLEVEL 2;").ok());
  auto text = session.Explain(kThreeInputConjunction);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("mode: pipelined"), std::string::npos) << *text;
  EXPECT_NE(text->find("existential-only vars"), std::string::npos) << *text;
  EXPECT_NE(text->find("pipelined sink"), std::string::npos) << *text;
  EXPECT_NE(text->find("join order: greedy smallest-first at execution"),
            std::string::npos)
      << *text;
  EXPECT_EQ(text->find("iterator tree"), std::string::npos) << *text;
}

}  // namespace
}  // namespace pascalr
