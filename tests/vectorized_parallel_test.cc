// Vectorized batch-at-a-time execution (src/pipeline/chunk.h):
//
//  - NextBatch contract units (row bridge, the vectorized FilterIter
//    reference shape) over hand-built structures;
//  - a property sweep — collection policy x batch size x optimization
//    level on random queries — set-equal to the naive evaluator oracle;
//  - the determinism contract: SET BATCH 1024 drains emit the
//    bit-identical tuple sequence AND work counters of the
//    row-at-a-time oracle (SET BATCH 1);
//  - SET PARALLEL is gone: the executor is serial;
//  - the covered-leaf residual-predicate lowering (FilterIter
//    membership) and its EXPLAIN rendering;
//  - EXPLAIN ANALYZE batch attribution (batches= / rows/batch=).

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cursor.h"
#include "exec/naive.h"
#include "obs/profile.h"
#include "opt/explain.h"
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

TEST(ChunkTest, AppendRowFixesArityAndRoundTrips) {
  Chunk chunk;
  chunk.capacity = 4;
  chunk.AppendRow({R(1, 0), R(2, 0)});
  chunk.AppendRow({R(1, 1), R(2, 1)});
  EXPECT_EQ(chunk.arity(), 2u);
  EXPECT_EQ(chunk.rows, 2u);
  EXPECT_FALSE(chunk.full());
  RefRow row;
  chunk.RowAt(1, &row);
  EXPECT_EQ(row, (RefRow{R(1, 1), R(2, 1)}));
  chunk.AppendRow({R(1, 2), R(2, 2)});
  chunk.AppendRow({R(1, 3), R(2, 3)});
  EXPECT_TRUE(chunk.full());
}

TEST(ChunkTest, RowBridgeBatchesMatchRowPulls) {
  // The default NextBatch (RefIterator row bridge) must deliver exactly
  // the Next() row sequence, split at capacity boundaries, and signal
  // exhaustion only on an empty batch.
  RefRelation sl = RefRelation::SingleList("a");
  for (uint32_t i = 0; i < 10; ++i) sl.Add({R(1, i)});
  ScanIter scan(&sl);
  Chunk chunk;
  std::vector<RefRow> batched;
  size_t batches = 0;
  while (true) {
    chunk.capacity = 3;
    auto more = scan.NextBatch(&chunk);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_GT(chunk.rows, 0u);
    ++batches;
    RefRow row;
    for (size_t r = 0; r < chunk.rows; ++r) {
      chunk.RowAt(r, &row);
      batched.push_back(row);
    }
  }
  EXPECT_EQ(batches, 4u);  // 3 + 3 + 3 + 1
  ASSERT_EQ(batched.size(), 10u);
  ScanIter rescan(&sl);
  RefRow row;
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(*rescan.Next(&row));
    EXPECT_EQ(row, batched[i]) << "row " << i;
  }
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
    for (int level = 0; level <= 4; ++level) {
      for (CollectionPolicy policy :
           {CollectionPolicy::kEager, CollectionPolicy::kLazy}) {
        for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
          PlannerOptions options;
          options.level = static_cast<OptLevel>(level);
          options.collection = policy;
          options.batch_size = batch;
          std::vector<Tuple> got = MustRunWith(*db, *bound, options, nullptr);
          EXPECT_EQ(TupleStrings(got), want)
              << "seed=" << seed << " level=" << level
              << " policy=" << (policy == CollectionPolicy::kLazy)
              << " batch=" << batch;
          ++checked;
        }
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
    oracle.batch_size = 1;  // exact row-at-a-time serial oracle
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
    // describes the drain shape rather than the work done (zero for a
    // row-at-a-time drain, the chunk count otherwise).
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

// Two dyadic terms between the same variable pair plus a third input so
// the join-order DP attaches a tree: the second indirect join binds no
// new columns, so the eager lowering runs it as a FilterIter membership
// probe (and EXPLAIN says so). Level 1 keeps the two e/t terms as two
// separate structures (no mutual-restriction folding), and the DP needs
// fresh statistics over a skewed database to beat the greedy fallback.
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

  PlannerOptions options;
  options.level = OptLevel::kParallel;
  Result<PlannedQuery> planned = PlanQuery(*db, CloneBoundQuery(bound), options);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::string text = ExplainPlan(*planned);
  EXPECT_NE(text.find("filter on ["), std::string::npos) << text;
  EXPECT_NE(text.find("(membership)"), std::string::npos) << text;
  EXPECT_NE(text.find("membership-probe"), std::string::npos) << text;

  // The pipelined drain matches the oracle, and the membership filter
  // counts a comparison per input row.
  ExecStats stats;
  std::vector<Tuple> got = MustRunWith(*db, bound, options, &stats);
  EXPECT_EQ(TupleStrings(got), TupleStrings(*expected));
  EXPECT_GT(stats.comparisons, 0u);

  // Lazy keeps the probe-join lowering (demand builds stay possible):
  // same rows either way.
  PlannerOptions lazy = options;
  lazy.collection = CollectionPolicy::kLazy;
  Result<PlannedQuery> lazy_planned =
      PlanQuery(*db, CloneBoundQuery(bound), lazy);
  ASSERT_TRUE(lazy_planned.ok());
  std::string lazy_text = ExplainPlan(*lazy_planned);
  EXPECT_EQ(lazy_text.find("(membership)"), std::string::npos) << lazy_text;
  std::vector<Tuple> lazy_got = MustRunWith(*db, bound, lazy, nullptr);
  EXPECT_EQ(TupleStrings(lazy_got), TupleStrings(*expected));
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
