// Observability layer (src/obs/): metrics registry and latency
// percentiles, query-trace span trees (well-formed nesting, per-stage
// spans), EXPLAIN ANALYZE (result identity between instrumented and
// uninstrumented runs across paper examples, q-error rendering), zero
// counter drift when tracing is off, and Chrome trace-event export.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/counters.h"
#include "exec/cursor.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "opt/explain.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::TupleStrings;

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.FindCounter("c"), nullptr);
  metrics.counter("c").Inc();
  metrics.counter("c").Inc(4);
  ASSERT_NE(metrics.FindCounter("c"), nullptr);
  EXPECT_EQ(metrics.FindCounter("c")->value(), 5u);
  metrics.gauge("g").Set(-7);
  ASSERT_NE(metrics.FindGauge("g"), nullptr);
  EXPECT_EQ(metrics.FindGauge("g")->value(), -7);
}

TEST(MetricsTest, HistogramPercentilesBracketTheQuantiles) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Mean(), (1000u * 1001u / 2u) / 1000u);
  // Bucket upper bounds overestimate by at most one bucket (~19%).
  EXPECT_GE(h.Percentile(0.50), 500u);
  EXPECT_LE(h.Percentile(0.50), 640u);
  EXPECT_GE(h.Percentile(0.99), 990u);
  EXPECT_LE(h.Percentile(0.99), 1000u);  // clamped to the observed max
  EXPECT_LE(h.Percentile(1.0), 1000u);
  std::string summary = h.Summary();
  EXPECT_NE(summary.find("count=1000"), std::string::npos);
  EXPECT_NE(summary.find("p99="), std::string::npos);
}

TEST(MetricsTest, DumpIsSortedAndStable) {
  MetricsRegistry metrics;
  EXPECT_NE(metrics.Dump().find("no metrics recorded"), std::string::npos);
  metrics.counter("b.second").Inc(2);
  metrics.counter("a.first").Inc();
  metrics.histogram("lat").Record(10);
  std::string dump = metrics.Dump();
  EXPECT_LT(dump.find("a.first"), dump.find("b.second"));
  EXPECT_NE(dump.find("lat"), std::string::npos);
}

// ----------------------------------------------------------------- traces

/// Asserts the structural invariants of one recorded span tree: the root
/// is span 0 with parent -1, every other span's parent precedes it, every
/// child lies within its parent's [start, end] window, and the durations
/// of any span's direct children sum to at most the span's own duration.
void CheckWellFormed(const QueryTrace& trace) {
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].parent, -1);
  std::vector<uint64_t> child_time(trace.spans.size(), 0);
  for (size_t i = 1; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    ASSERT_GE(span.parent, 0) << "span " << i << " (" << span.name
                              << ") is a second root";
    ASSERT_LT(static_cast<size_t>(span.parent), i)
        << "span " << i << " opened before its parent";
    const TraceSpan& parent = trace.spans[static_cast<size_t>(span.parent)];
    EXPECT_GE(span.start_ns, parent.start_ns)
        << span.name << " starts before its parent " << parent.name;
    EXPECT_LE(span.start_ns + span.dur_ns, parent.start_ns + parent.dur_ns)
        << span.name << " ends after its parent " << parent.name;
    child_time[static_cast<size_t>(span.parent)] += span.dur_ns;
  }
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    EXPECT_LE(child_time[i], trace.spans[i].dur_ns)
        << "children of " << trace.spans[i].name
        << " account for more time than the span itself";
  }
}

bool HasSpan(const QueryTrace& trace, const std::string& name) {
  for (const TraceSpan& span : trace.spans) {
    if (span.name == name) return true;
  }
  return false;
}

TEST(TraceTest, QuerySpanTreeIsWellFormedAndCoversTheStages) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  session.set_tracing(true);
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  ASSERT_EQ(session.traces().size(), 1u);
  const QueryTrace& trace = session.traces()[0];
  CheckWellFormed(trace);
  EXPECT_EQ(trace.spans[0].name, "query");
  for (const char* stage :
       {"prepare", "parse", "bind", "execute", "plan", "collection",
        "drain"}) {
    EXPECT_TRUE(HasSpan(trace, stage)) << "missing span: " << stage
                                       << "\n" << trace.ToString();
  }
  // The drain span carries the run's deterministic counters.
  for (const TraceSpan& span : trace.spans) {
    if (span.name != "drain") continue;
    bool has_rows = false;
    for (const auto& [name, value] : span.counters) {
      if (name == "rows_emitted") {
        has_rows = true;
        EXPECT_EQ(value, 3u);  // Alice, Bob, Frank
      }
    }
    EXPECT_TRUE(has_rows);
  }
}

TEST(TraceTest, TracesAccumulateAndClear) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  session.set_tracing(true);
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  EXPECT_EQ(session.traces().size(), 2u);
  session.ClearTraces();
  EXPECT_TRUE(session.traces().empty());
  // Off again: no further traces.
  session.set_tracing(false);
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  EXPECT_TRUE(session.traces().empty());
}

TEST(TraceTest, SetTraceStatementTogglesTheSession) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  EXPECT_FALSE(session.tracing());
  ASSERT_TRUE(session.ExecuteScript("SET TRACE ON;").ok());
  EXPECT_TRUE(session.tracing());
  ASSERT_TRUE(session.ExecuteScript("SET TRACE OFF;").ok());
  EXPECT_FALSE(session.tracing());
  EXPECT_FALSE(session.ExecuteScript("SET TRACE MAYBE;").ok());
}

TEST(TraceTest, ChromeExportIsValidTraceEventJson) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  session.set_tracing(true);
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  std::string json = TracesToChromeJson(session.traces());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"drain\""), std::string::npos);
  // The query source rides along as args.detail on the root span, and the
  // drain's deterministic counters are numeric args.
  EXPECT_NE(json.find("\"detail\":\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_emitted\":3"), std::string::npos);

  std::string path = ::testing::TempDir() + "/obs_test.trace.json";
  ASSERT_TRUE(WriteTraceFile(path, session.traces()).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
}

// ------------------------------------------------- EXPLAIN ANALYZE + drift

/// Runs `source` once uninstrumented and once under a PipelineProfile,
/// asserting identical result tuples and identical deterministic work
/// counters — the profiled decorators must observe, never perturb.
void CheckResultIdentity(const std::string& source) {
  SCOPED_TRACE(source);
  auto db = MakeUniversityDb();
  Result<PlannedQuery> planned =
      PlanQuery(*db, MustBind(*db, source), PlannerOptions());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto shared = std::make_shared<PlannedQuery>(std::move(planned).value());
  std::shared_ptr<const QueryPlan> plan(shared, &shared->plan);

  auto drain = [&](PipelineProfile* profile, std::vector<Tuple>* tuples,
                   ExecStats* stats) {
    Result<Cursor> cursor = Cursor::Open(plan, *db, profile);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    Tuple t;
    while (true) {
      Result<bool> more = cursor->Next(&t);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      tuples->push_back(t);
    }
    *stats = cursor->stats();
    cursor->Close();
  };

  std::vector<Tuple> plain_tuples, profiled_tuples;
  ExecStats plain_stats, profiled_stats;
  drain(nullptr, &plain_tuples, &plain_stats);
  PipelineProfile profile;
  drain(&profile, &profiled_tuples, &profiled_stats);

  EXPECT_EQ(TupleStrings(plain_tuples), TupleStrings(profiled_tuples));
  EXPECT_EQ(plain_stats.ToString(), profiled_stats.ToString());
  // The profiled tree exists and its root (construction) saw exactly the
  // result cardinality.
  ASSERT_GE(profile.root(), 0);
  EXPECT_EQ(profile.node(profile.root()).prof.rows_out,
            profiled_tuples.size());
}

TEST(ExplainAnalyzeTest, InstrumentedRunsMatchUninstrumentedOnes) {
  const std::string queries[] = {
      Example21QuerySource(),
      // The two-free-variable join (Example 2.1's shape, no quantifier
      // tail folded away).
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]",
      // Universal quantifier: exercises the division sink.
      "[<e.ename> OF EACH e IN employees:"
      " ALL c IN courses (c.clevel <= senior)]",
      // Single range, restriction only.
      "[<e.ename> OF EACH e IN employees: e.enr < 5]",
  };
  for (const std::string& q : queries) CheckResultIdentity(q);
}

TEST(ExplainAnalyzeTest, StatementPrintsOperatorTableAndSummary) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session
                  .ExecuteScript("EXPLAIN ANALYZE " + Example21QuerySource() +
                                 ";")
                  .ok());
  std::string text = out.str();
  EXPECT_NE(text.find("analyze:"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
  EXPECT_NE(text.find("self="), std::string::npos);
  EXPECT_NE(text.find("result: 3 tuple(s)"), std::string::npos);
  // The instrumented run feeds the session like any other query.
  EXPECT_GT(session.total_stats().TotalWork(), 0u);
  ASSERT_NE(session.metrics().FindCounter("query.count"), nullptr);
  EXPECT_EQ(session.metrics().FindCounter("query.count")->value(), 1u);
}

TEST(ExplainAnalyzeTest, QErrorsRenderWhenEstimatesExist) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(
      session
          .ExecuteScript(
              "EXPLAIN ANALYZE [<e.ename, c.ctitle> OF EACH e IN employees,"
              " EACH c IN courses: SOME t IN timetable"
              " ((e.enr = t.tenr) AND (c.cnr = t.tcnr))];")
          .ok())
      << out.str();
  EXPECT_NE(out.str().find("q-err="), std::string::npos) << out.str();
}

TEST(ExplainAnalyzeTest, QErrorConvention) {
  EXPECT_DOUBLE_EQ(QError(10.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(20.0, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0), 1.0);
  // One-sided zeros stay finite.
  EXPECT_DOUBLE_EQ(QError(0.0, 10), 11.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 0), 11.0);
}

TEST(ObservabilityTest, TracingOffLeavesEveryCounterUntouched) {
  // The same script under tracing on and off: the deterministic ExecStats
  // and the global compile counters must agree bit-for-bit — the
  // acceptance gate for "zero overhead when off" (and "no perturbation
  // when on").
  auto run_with = [](bool tracing, ExecStats* stats,
                     CompileCounters* compile_delta) {
    auto db = MakeUniversityDb();
    Session session(db.get());
    session.set_tracing(tracing);
    CompileCounters before = GlobalCompileCounters();
    ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
    session.options().batch_size = 1;
    ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
    *stats = session.total_stats();
    CompileCounters after = GlobalCompileCounters();
    compile_delta->parses = after.parses - before.parses;
    compile_delta->binds = after.binds - before.binds;
    compile_delta->standard_forms = after.standard_forms -
                                    before.standard_forms;
    compile_delta->plans = after.plans - before.plans;
    compile_delta->plan_searches = after.plan_searches -
                                   before.plan_searches;
    compile_delta->collection_walks = after.collection_walks -
                                      before.collection_walks;
  };
  ExecStats stats_off, stats_on;
  CompileCounters delta_off, delta_on;
  run_with(false, &stats_off, &delta_off);
  run_with(true, &stats_on, &delta_on);
  EXPECT_EQ(stats_off.ToString(), stats_on.ToString());
  EXPECT_EQ(delta_off.parses, delta_on.parses);
  EXPECT_EQ(delta_off.binds, delta_on.binds);
  EXPECT_EQ(delta_off.standard_forms, delta_on.standard_forms);
  EXPECT_EQ(delta_off.plans, delta_on.plans);
  EXPECT_EQ(delta_off.plan_searches, delta_on.plan_searches);
  EXPECT_EQ(delta_off.collection_walks, delta_on.collection_walks);
}

TEST(ObservabilityTest, MetricsStatementDumpsTheRegistry) {
  auto db = MakeUniversityDb();
  std::ostringstream out;
  Session session(db.get(), &out);
  ASSERT_TRUE(session.ExecuteScript("METRICS;").ok());
  EXPECT_NE(out.str().find("no metrics recorded"), std::string::npos);
  out.str("");
  ASSERT_TRUE(session.Query(Example21QuerySource()).ok());
  ASSERT_TRUE(session.ExecuteScript("METRICS;").ok());
  EXPECT_NE(out.str().find("query.count"), std::string::npos);
  EXPECT_NE(out.str().find("query.latency_us"), std::string::npos);
}

}  // namespace
}  // namespace pascalr
