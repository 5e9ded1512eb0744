// Prepared queries: Prepare / Bind / Execute lifecycle, host-variable
// parameters, cursor streaming, and — the acceptance bar — zero
// parse / normalize / plan-search work on cached re-execution, asserted
// via the global compile counters.

#include "pascalr/prepared.h"

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "base/counters.h"
#include "pascalr/session.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::FirstStrings;
using testing_util::MakeUniversityDb;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

// The paper's running examples (Example 2.1 plus smaller shapes), all
// parameter-free — used for Query()-vs-prepared identity sweeps.
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

CompileCounters Snapshot() { return GlobalCompileCounters(); }

uint64_t CompileWorkSince(const CompileCounters& before) {
  const CompileCounters& now = GlobalCompileCounters();
  return (now.parses - before.parses) + (now.binds - before.binds) +
         (now.standard_forms - before.standard_forms) +
         (now.plans - before.plans) +
         (now.plan_searches - before.plan_searches);
}

TEST(PreparedQueryTest, ParameterizedExecuteMatchesLiteralQuery) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr <= $top]");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->param_names(), std::vector<std::string>{"top"});

  for (int64_t top : {0, 2, 5, 99}) {
    auto exec = prepared->Execute({{"top", Value::MakeInt(top)}});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto literal = session.Query(
        "[<e.ename> OF EACH e IN employees: e.enr <= " +
        std::to_string(top) + "]");
    ASSERT_TRUE(literal.ok()) << literal.status().ToString();
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(literal->tuples))
        << "top=" << top;
  }
  EXPECT_EQ(prepared->stats().executes, 4u);
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  EXPECT_EQ(prepared->stats().plan_cache_hits, 3u);
}

TEST(PreparedQueryTest, CachedReexecutionDoesZeroCompileWork) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().level = OptLevel::kAuto;

  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: (e.enr <= $top) AND"
      " SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // First execute pays for planning (including the kAuto plan search).
  auto first = prepared->Execute({{"top", Value::MakeInt(3)}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);

  // Re-executions — same or different values — move none of the compile
  // counters: no parse, no bind, no normalization, no plan search.
  CompileCounters before = Snapshot();
  for (int64_t top : {3, 1, 5, 2, 4}) {
    auto exec = prepared->Execute({{"top", Value::MakeInt(top)}});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_TRUE(exec->plan_cache_hit) << "top=" << top;
  }
  EXPECT_EQ(CompileWorkSince(before), 0u);
  EXPECT_EQ(prepared->stats().plan_cache_hits, 5u);
}

TEST(PreparedQueryTest, CursorStreamsIdenticalTuplesAndStopsEarly) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " SOME t IN timetable (e.enr = t.tenr)]";

  auto run = session.Query(src);
  ASSERT_TRUE(run.ok());

  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->OpenCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  // Full drain is tuple-identical, including order.
  std::vector<Tuple> streamed;
  Tuple t;
  while (true) {
    auto more = cursor->Next(&t);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    streamed.push_back(t);
  }
  ASSERT_EQ(streamed.size(), run->tuples.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], run->tuples[i]) << i;
  }
  cursor->Close();

  // Early termination: one tuple costs one row's dereferences, not the
  // whole result's.
  auto partial = prepared->OpenCursor();
  ASSERT_TRUE(partial.ok());
  uint64_t before_next = partial->stats().dereferences;
  auto more = partial->Next(&t);
  ASSERT_TRUE(more.ok());
  if (*more) {
    EXPECT_LT(partial->stats().dereferences - before_next,
              std::max<uint64_t>(2, run->stats.dereferences));
  }
  partial->Close();
}

TEST(PreparedQueryTest, QueryWrapperMatchesPreparedAcrossPaperExamples) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  for (const char* src : kPaperExamples) {
    auto via_query = session.Query(src);
    ASSERT_TRUE(via_query.ok()) << via_query.status().ToString() << "\n"
                                << src;
    auto prepared = session.Prepare(src);
    ASSERT_TRUE(prepared.ok());
    auto exec = prepared->Execute();
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(via_query->tuples))
        << src;
    // And cursor-streamed, once more.
    auto cursor = prepared->OpenCursor();
    ASSERT_TRUE(cursor.ok());
    std::vector<Tuple> streamed;
    Tuple t;
    while (true) {
      auto more = cursor->Next(&t);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      streamed.push_back(std::move(t));
    }
    EXPECT_EQ(TupleStrings(streamed), TupleStrings(via_query->tuples)) << src;
  }
}

TEST(PreparedQueryTest, GeneratedCorpusCursorIdentity) {
  QueryGenerator gen(20260728);
  for (int i = 0; i < 40; ++i) {
    auto db = MakeUniversityDb(/*populate=*/false);
    gen.RandomDatabase(db.get());
    Session session(db.get());
    SelectionExpr sel = gen.RandomSelection();

    Binder binder(db.get());
    auto bound = binder.Bind(sel.Clone());
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto reference = RunQuery(*db, std::move(bound).value(), session.options());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    auto prepared = session.PrepareSelection(std::move(sel));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto exec = prepared->Execute();
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(reference->tuples))
        << "seeded query " << i;

    // Cached re-execution agrees too (no catalog change in between).
    auto again = prepared->Execute();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->plan_cache_hit);
    EXPECT_EQ(TupleStrings(again->tuples), TupleStrings(reference->tuples));
  }
}

TEST(PreparedQueryTest, ParameterTypingAndBindingErrors) {
  auto db = MakeUniversityDb();
  Session session(db.get());

  // Params type against the compared component; enum labels work.
  auto by_status = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.estatus = $status]");
  ASSERT_TRUE(by_status.ok()) << by_status.status().ToString();
  auto professors =
      by_status->Execute({{"status", Value::MakeString("professor")}});
  ASSERT_TRUE(professors.ok()) << professors.status().ToString();
  auto expected = session.Query(
      "[<e.ename> OF EACH e IN employees: e.estatus = professor]");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(TupleStrings(professors->tuples),
            TupleStrings(expected->tuples));

  // Missing binding, unknown parameter, wrong kind, bad label.
  EXPECT_EQ(by_status->Execute().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(by_status
                ->Execute({{"status", Value::MakeString("professor")},
                           {"nope", Value::MakeInt(1)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(by_status->Execute({{"status", Value::MakeInt(1)}})
                .status()
                .code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(by_status->Execute({{"status", Value::MakeString("janitor")}})
                .status()
                .code(),
            StatusCode::kNotFound);

  // A parameter compared with anything but a component is rejected at
  // Prepare (it cannot be typed and produces a variable-free term).
  EXPECT_FALSE(
      session.Prepare("[<e.ename> OF EACH e IN employees: $a = $b]").ok());
  EXPECT_FALSE(
      session.Prepare("[<e.ename> OF EACH e IN employees: $a = 3]").ok());
  // One parameter, two incompatible uses.
  EXPECT_EQ(session
                .Prepare("[<e.ename> OF EACH e IN employees:"
                         " (e.enr = $x) AND (e.ename = $x)]")
                .status()
                .code(),
            StatusCode::kTypeMismatch);

  // Running a parameterized selection through the un-prepared API fails
  // with a pointer to Prepare, instead of planning garbage.
  auto direct = session.Query(
      "[<e.ename> OF EACH e IN employees: e.enr = $top]");
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreparedQueryTest, AutoPlannerSeesBoundSelectivity) {
  auto db = MakeUniversityDb(/*populate=*/false);
  // A skewed timetable: almost every row has tenr = 1. Keys are
  // <tenr, tcnr, tday>; tcnr cycles 1..95 with tday advancing per cycle,
  // keeping keys unique and tcnr within its 1..99 subrange.
  Relation* timetable = db->FindRelation("timetable");
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(timetable
                    ->Insert(Tuple{Value::MakeInt(i < 190 ? 1 : 2 + i % 5),
                                   Value::MakeInt(1 + i % 95),
                                   Value::MakeEnum((i / 95) % 5),
                                   Value::MakeInt(9000000 + i),
                                   Value::MakeString("R")})
                    .ok());
  }
  Relation* employees = db->FindRelation("employees");
  for (int i = 1; i <= 40; ++i) {
    ASSERT_TRUE(employees
                    ->Insert(Tuple{Value::MakeInt(i),
                                   Value::MakeString("E" + std::to_string(i)),
                                   Value::MakeEnum(i % 4)})
                    .ok());
  }
  ASSERT_TRUE(db->AnalyzeAll().ok());

  Session session(db.get());
  session.options().level = OptLevel::kAuto;
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " SOME t IN timetable ((t.tenr = $who) AND (e.enr = t.tenr))]";

  // Two separately prepared queries, first executed under a selective
  // vs. a non-selective binding: the plan search costs each against its
  // own bound value, so the estimates must differ — parameterized
  // selectivity is really coming from the values.
  auto selective = session.Prepare(src);
  ASSERT_TRUE(selective.ok());
  ASSERT_TRUE(selective->Execute({{"who", Value::MakeInt(6)}}).ok());
  auto popular = session.Prepare(src);
  ASSERT_TRUE(popular.ok());
  ASSERT_TRUE(popular->Execute({{"who", Value::MakeInt(1)}}).ok());

  ASSERT_NE(selective->planned(), nullptr);
  ASSERT_NE(popular->planned(), nullptr);
  EXPECT_TRUE(selective->planned()->cost_based);
  EXPECT_LT(selective->planned()->estimate.weighted_cost,
            popular->planned()->estimate.weighted_cost);
}

TEST(PreparedQueryTest, PrepareExecuteStatements) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "PREPARE who AS [<e.ename> OF EACH e IN employees:"
                      " e.enr <= $top];")
                  .ok())
      << out.str();
  EXPECT_NE(out.str().find("prepared who ($top)"), std::string::npos);

  Status st = session.ExecuteScript("EXECUTE who WITH $top = 2;");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.str().find("who: "), std::string::npos);

  // Second run reports the cached plan.
  st = session.ExecuteScript("EXECUTE who WITH $top = 3;");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(out.str().find("(cached plan)"), std::string::npos);

  EXPECT_EQ(session.ExecuteScript("EXECUTE nope;").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      session.ExecuteScript("EXECUTE who WITH $wrong = 1;").code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.ExecuteScript("EXECUTE who WITH $top = 3, $top = 1;").code(),
      StatusCode::kInvalidArgument);
}

TEST(PreparedQueryTest, ExplainCachedPlanNeedsNoBindings) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr <= $top]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(3)}}).ok());
  // With a plan cached, EXPLAIN works without (re)supplying values...
  auto text = prepared->Explain();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("$top"), std::string::npos) << *text;
  // ...but with no plan yet, it needs them.
  auto fresh = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr <= $top]");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->Explain().status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fresh->Explain({{"top", Value::MakeInt(1)}}).ok());
}

// Execute is OpenCursor + drain, so a run accounts for itself the same
// way on both entry points. The run replans: Example 2.1 at strategy 4
// with `courses` empty, where rule 2 abandons the range extension.
TEST(PreparedQueryTest, ExecuteAndDrainedCursorAccountIdentically) {
  struct Accounting {
    uint64_t count = 0;
    uint64_t latency_samples = 0;
    uint64_t replans = 0;
    uint64_t elements_built = 0;
    std::string totals;
    int64_t statement_replans = -1;
  };
  auto account = [](bool via_cursor) {
    Accounting a;
    auto db = MakeUniversityDb();
    db->FindRelation("courses")->Clear();
    Session session(db.get());
    session.options().level = OptLevel::kQuantPush;
    auto prepared = session.Prepare(Example21QuerySource());
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) return a;
    if (via_cursor) {
      auto cursor = prepared->OpenCursor();
      EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
      if (!cursor.ok()) return a;
      Tuple tuple;
      while (true) {
        auto more = cursor->Next(&tuple);
        EXPECT_TRUE(more.ok());
        if (!more.ok() || !*more) break;
      }
      cursor->Close();
    } else {
      EXPECT_TRUE(prepared->Execute().ok());
    }
    const MetricsRegistry& metrics = session.metrics();
    auto counter = [&](const char* name) -> uint64_t {
      const Counter* c = metrics.FindCounter(name);
      return c == nullptr ? 0 : c->value();
    };
    a.count = counter("query.count");
    a.replans = counter("query.replans");
    a.elements_built = counter("collection.elements_built");
    const LatencyHistogram* latency = metrics.FindHistogram("query.latency_us");
    a.latency_samples = latency == nullptr ? 0 : latency->count();
    a.totals = session.total_stats().ToString();
    auto row = session.Query(
        "[<s.replans> OF EACH s IN sys$statements: s.calls > 0]");
    EXPECT_TRUE(row.ok()) << row.status().ToString();
    if (row.ok() && row->tuples.size() == 1) {
      a.statement_replans = row->tuples[0].at(0).AsInt();
    }
    return a;
  };
  const Accounting execute = account(/*via_cursor=*/false);
  const Accounting cursor = account(/*via_cursor=*/true);
  EXPECT_EQ(execute.count, 1u);
  EXPECT_EQ(execute.latency_samples, 1u);
  EXPECT_GE(execute.replans, 1u);
  EXPECT_GT(execute.elements_built, 0u);
  EXPECT_EQ(execute.statement_replans,
            static_cast<int64_t>(execute.replans));
  EXPECT_EQ(cursor.count, execute.count);
  EXPECT_EQ(cursor.latency_samples, execute.latency_samples);
  EXPECT_EQ(cursor.replans, execute.replans);
  EXPECT_EQ(cursor.elements_built, execute.elements_built);
  EXPECT_EQ(cursor.totals, execute.totals);
  EXPECT_EQ(cursor.statement_replans, execute.statement_replans);
}

}  // namespace
}  // namespace pascalr
