// Vectorized batch-at-a-time execution (src/pipeline/chunk.h):
//
//  - NextBatch contract units (chunk boundaries, the FilterIter
//    selection-vector shape) over hand-built structures;
//  - a property sweep — batch size x optimization level x drain depth
//    on random queries — against the naive evaluator oracle: full
//    drains are set-equal to it, partial drains (a cursor closed after
//    k tuples) emit distinct oracle rows only;
//  - the determinism contract: SET BATCH 1024 drains emit the
//    bit-identical tuple sequence AND work counters of the 1-row-chunk
//    drain (SET BATCH 1), batches_emitted aside;
//  - SET PARALLEL is gone: the executor is serial;
//  - the covered-leaf residual-predicate lowering (FilterIter
//    membership) and its EXPLAIN rendering;
//  - EXPLAIN ANALYZE batch attribution (batches= / rows/batch=).

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cursor.h"
#include "exec/naive.h"
#include "obs/profile.h"
#include "opt/planner.h"
#include "pascalr/sample_db.h"
#include "pascalr/session.h"
#include "pipeline/chunk.h"
#include "pipeline/iterators.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

// ------------------------------------------------------------ chunk units

TEST(ChunkTest, ResetFixesArityAndRowsRoundTrip) {
  Chunk chunk;
  chunk.capacity = 4;
  chunk.Reset(2);
  auto append = [&chunk](uint32_t slot) {
    chunk.cols[0].push_back(R(1, slot));
    chunk.cols[1].push_back(R(2, slot));
    ++chunk.rows;
  };
  append(0);
  append(1);
  EXPECT_EQ(chunk.arity(), 2u);
  EXPECT_EQ(chunk.rows, 2u);
  EXPECT_FALSE(chunk.full());
  RefRow row;
  chunk.RowAt(1, &row);
  EXPECT_EQ(row, (RefRow{R(1, 1), R(2, 1)}));
  append(2);
  append(3);
  EXPECT_TRUE(chunk.full());
  chunk.Reset(1);
  EXPECT_EQ(chunk.arity(), 1u);
  EXPECT_EQ(chunk.rows, 0u);
}

TEST(ChunkTest, SmallBatchesConcatenateToTheSingleFullBatch) {
  // The same scan pulled at capacity 3 and at capacity 1024: the small
  // chunks concatenate to the one full chunk, and exhaustion is
  // signalled only by a pull that returns no rows.
  RefRelation sl = RefRelation::SingleList("a");
  for (uint32_t i = 0; i < 10; ++i) sl.Add({R(1, i)});
  auto drain = [&](size_t capacity, size_t* batches) {
    ScanIter scan(&sl);
    Chunk chunk;
    std::vector<Ref> refs;
    *batches = 0;
    while (true) {
      chunk.capacity = capacity;
      auto more = scan.NextBatch(&chunk);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) {
        EXPECT_EQ(chunk.rows, 0u);
        break;
      }
      EXPECT_GT(chunk.rows, 0u);
      ++*batches;
      refs.insert(refs.end(), chunk.cols[0].begin(),
                  chunk.cols[0].begin() + chunk.rows);
    }
    return refs;
  };
  size_t small_batches = 0;
  size_t full_batches = 0;
  std::vector<Ref> small = drain(3, &small_batches);
  std::vector<Ref> full = drain(Chunk::kDefaultRows, &full_batches);
  EXPECT_EQ(small_batches, 4u);  // 3 + 3 + 3 + 1
  EXPECT_EQ(full_batches, 1u);
  ASSERT_EQ(full.size(), 10u);
  EXPECT_EQ(small, full);
}

TEST(FilterIterTest, MembershipModeKeepsExactlyContainedRows) {
  // The vectorized reference filter: child rows whose key columns form a
  // row of `member` survive; comparisons count every input row, and
  // kept rows count as combination output (the semi probe-join totals).
  RefRelation stream = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 8; ++i) stream.Add({R(1, i), R(2, i)});
  RefRelation member = RefRelation::IndirectJoin("a", "b");
  member.Add({R(1, 2), R(2, 2)});
  member.Add({R(1, 5), R(2, 5)});
  member.Add({R(1, 7), R(2, 6)});  // wrong pair: must not match slot 7

  ExecStats stats;
  FilterIter filter(std::make_unique<ScanIter>(&stream), &member,
                    std::vector<int>{0, 1}, &stats);
  Chunk chunk;
  std::vector<RefRow> rows;
  while (true) {
    chunk.capacity = 4;
    auto more = filter.NextBatch(&chunk);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    RefRow row;
    for (size_t r = 0; r < chunk.rows; ++r) {
      chunk.RowAt(r, &row);
      rows.push_back(row);
    }
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (RefRow{R(1, 2), R(2, 2)}));
  EXPECT_EQ(rows[1], (RefRow{R(1, 5), R(2, 5)}));
  EXPECT_EQ(stats.comparisons, 8u);
  EXPECT_EQ(stats.combination_rows, 2u);
}

// ------------------------------------------------------- property sweep

// Plans with `options` and drains through Cursor — the pipelined path,
// which is the only one that honors batch_size. (RunQuery uses
// the materializing evaluator and would bypass the vectorized code.)
std::vector<Tuple> MustRunWith(const Database& db, const BoundQuery& bound,
                               PlannerOptions options, ExecStats* stats) {
  Result<PlannedQuery> planned =
      PlanQuery(db, CloneBoundQuery(bound), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  if (!planned.ok()) return {};
  ExecStats sink;
  std::vector<Tuple> tuples;
  {
    Result<Cursor> cursor = Cursor::Open(
        std::make_shared<const QueryPlan>(std::move(planned->plan)), db,
        &sink);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return {};
    Tuple tuple;
    while (true) {
      Result<bool> more = cursor->Next(&tuple);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      tuples.push_back(std::move(tuple));
    }
  }  // close flushes the run's stats into `sink`
  if (stats != nullptr) *stats = sink;
  return tuples;
}

// Opens a cursor for `options`, pulls at most `k` tuples and closes it
// early.
std::vector<Tuple> PartialDrain(const Database& db, const BoundQuery& bound,
                                PlannerOptions options, size_t k) {
  Result<PlannedQuery> planned =
      PlanQuery(db, CloneBoundQuery(bound), options);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  if (!planned.ok()) return {};
  Result<Cursor> cursor = Cursor::Open(
      std::make_shared<const QueryPlan>(std::move(planned->plan)), db);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return {};
  std::vector<Tuple> tuples;
  Tuple tuple;
  while (tuples.size() < k) {
    Result<bool> more = cursor->Next(&tuple);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    tuples.push_back(std::move(tuple));
  }
  cursor->Close();
  return tuples;
}

TEST(VectorizedParallelPropertyTest, AllConfigurationsMatchNaiveOracle) {
  auto db = MakeUniversityDb();
  int checked = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    QueryGenerator gen(seed);
    SelectionExpr sel = gen.RandomSelection(3);
    Binder binder(db.get());
    Result<BoundQuery> bound = binder.Bind(sel.Clone());
    ASSERT_TRUE(bound.ok());
    NaiveEvaluator naive(db.get());
    Result<std::vector<Tuple>> expected = naive.Evaluate(*bound);
    ASSERT_TRUE(expected.ok());
    auto want = TupleStrings(*expected);
    const std::set<std::string> oracle(want.begin(), want.end());
    for (int level = 0; level <= 4; ++level) {
      for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
        PlannerOptions options;
        options.level = static_cast<OptLevel>(level);
        options.batch_size = batch;
        std::vector<Tuple> got = MustRunWith(*db, *bound, options, nullptr);
        EXPECT_EQ(TupleStrings(got), want)
            << "seed=" << seed << " level=" << level << " batch=" << batch;
        for (size_t k : {size_t{1}, (oracle.size() + 1) / 2}) {
          std::vector<Tuple> part = PartialDrain(*db, *bound, options, k);
          EXPECT_EQ(part.size(), std::min(k, oracle.size()))
              << "seed=" << seed << " level=" << level << " batch=" << batch
              << " k=" << k;
          std::set<std::string> seen;
          for (const Tuple& t : part) {
            EXPECT_EQ(oracle.count(t.ToString()), 1u)
                << "seed=" << seed << " level=" << level << " batch=" << batch
                << " k=" << k << ": not an oracle row: " << t.ToString();
            EXPECT_TRUE(seen.insert(t.ToString()).second)
                << "seed=" << seed << " level=" << level << " batch=" << batch
                << " k=" << k << ": repeated row: " << t.ToString();
          }
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ------------------------------------------------- determinism contract

TEST(VectorizedParallelDeterminismTest, BatchedDrainsAreBitIdentical) {
  auto db = MakeUniversityDb();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    QueryGenerator gen(seed * 31);
    SelectionExpr sel = gen.RandomSelection(3);
    Binder binder(db.get());
    Result<BoundQuery> bound = binder.Bind(sel.Clone());
    ASSERT_TRUE(bound.ok());

    PlannerOptions oracle;
    oracle.batch_size = 1;  // 1-row chunks through the same operators
    ExecStats oracle_stats;
    std::vector<Tuple> oracle_rows =
        MustRunWith(*db, *bound, oracle, &oracle_stats);

    PlannerOptions options;
    options.batch_size = 1024;
    ExecStats stats;
    std::vector<Tuple> rows = MustRunWith(*db, *bound, options, &stats);

    // Bit-identical sequence: same tuples in the same order.
    ASSERT_EQ(rows.size(), oracle_rows.size()) << "seed=" << seed;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].ToString(), oracle_rows[i].ToString())
          << "seed=" << seed << " row " << i;
    }
    // Deterministic counters: everything except batches_emitted, which
    // describes the drain shape rather than the work done (the sink's
    // chunk count: one per sink row at BATCH 1, each tuple returned
    // having come out of its own sink row).
    EXPECT_GE(oracle_stats.batches_emitted, oracle_rows.size())
        << "seed=" << seed;
    ExecStats normalized = stats;
    normalized.batches_emitted = 0;
    ExecStats oracle_normalized = oracle_stats;
    oracle_normalized.batches_emitted = 0;
    EXPECT_EQ(normalized.ToString(), oracle_normalized.ToString())
        << "seed=" << seed;
    EXPECT_EQ(stats.morsels_dispatched, 0u);
  }
}

// --------------------------------------- covered-leaf residual predicate

// Two dyadic terms between the same variable pair plus a third input:
// whichever e/t indirect join the greedy order takes second binds no new
// columns, so the lowering runs it as a FilterIter membership probe
// (and EXPLAIN ANALYZE says so). Level 1 keeps the two e/t terms as two
// separate structures (no mutual-restriction folding).
const char kResidualQuery[] =
    "[<e.ename> OF EACH e IN employees: SOME t IN timetable "
    "(((e.enr = t.tenr) AND (e.enr <> t.tcnr)) AND "
    "SOME p IN papers (e.enr = p.penr))]";

TEST(ResidualFilterTest, CoveredLeafLowersToMembershipFilter) {
  auto db = MakeUniversityDb();
  UniversityScale scale;
  scale.employees = 60;
  scale.papers = 400;
  scale.courses = 30;
  scale.timetable = 800;
  scale.seed = 7;
  ASSERT_TRUE(PopulateSynthetic(db.get(), scale).ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  BoundQuery bound = MustBind(*db, kResidualQuery);
  NaiveEvaluator naive(db.get());
  Result<std::vector<Tuple>> expected = naive.Evaluate(bound);
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected->empty());

  // EXPLAIN ANALYZE's operator tree names the executed operators: the
  // covered leaf runs as a membership filter, not a probe-join.
  std::ostringstream out;
  Session session(db.get(), &out);
  EXPECT_TRUE(session
                  .ExecuteScript(std::string("SET OPTLEVEL 1; EXPLAIN ANALYZE ") +
                                 kResidualQuery + ";")
                  .ok())
      << out.str();
  std::string text = out.str();
  EXPECT_NE(text.find("filter ij_t_e"), std::string::npos) << text;

  PlannerOptions options;
  options.level = OptLevel::kParallel;

  // The pipelined drain matches the oracle, and the membership filter
  // counts a comparison per input row.
  ExecStats stats;
  std::vector<Tuple> got = MustRunWith(*db, bound, options, &stats);
  EXPECT_EQ(TupleStrings(got), TupleStrings(*expected));
  EXPECT_GT(stats.comparisons, 0u);
}

// --------------------------------------------------- session + profiling

TEST(SessionBatchParallelTest, SetBatchIsAppliedAndSetParallelIsRejected) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session.ExecuteScript("SET BATCH 64;").ok());
  EXPECT_FALSE(session.ExecuteScript("SET BATCH 0;").ok());
  EXPECT_FALSE(session.ExecuteScript("SET BATCH 65537;").ok());
  // The morsel-parallel drain was removed: PARALLEL is an unknown option.
  Status parallel = session.ExecuteScript("SET PARALLEL 4;");
  EXPECT_EQ(parallel.code(), StatusCode::kInvalidArgument)
      << parallel.ToString();
  auto run = session.Query("[<e.ename> OF EACH e IN employees: e.enr >= 1]");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // EXPLAIN surfaces the chunk size and nothing about a parallel drain.
  ASSERT_TRUE(session
                  .ExecuteScript("EXPLAIN [<e.ename> OF EACH e IN employees: "
                                 "e.enr >= 1];")
                  .ok());
  std::string text = out.str();
  EXPECT_NE(text.find("vectorized: 64-row chunks"), std::string::npos) << text;
  EXPECT_EQ(text.find("parallel drain"), std::string::npos) << text;
}

TEST(ExplainAnalyzeBatchTest, ProfiledDrainsReportBatchesWithoutDoubleCount) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "EXPLAIN ANALYZE [<e.ename, p.ptitle> OF EACH e IN "
                      "employees, EACH p IN papers: e.enr = p.penr];")
                  .ok());
  std::string text = out.str();
  // Batch pulls are attributed: the profiled operators report how many
  // chunks they emitted and the average fill.
  EXPECT_NE(text.find("batches="), std::string::npos) << text;
  EXPECT_NE(text.find("rows/batch="), std::string::npos) << text;
}

}  // namespace
}  // namespace pascalr
