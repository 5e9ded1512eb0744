// The self-observing engine, observed: the sys$ system relations must
// report EXACTLY what happened — the acceptance bar is that a
// sys$statements row's aggregates match, bit for bit, the totals an
// independent tally of the same multi-session workload produces — and
// their materialization must be snapshot-consistent under concurrent
// writers (run under TSan in CI), invisible to the plan cache, and
// excluded from ANALYZE and script export.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/session_manager.h"
#include "obs/stmt_stats.h"
#include "obs/system_relations.h"
#include "pascalr/export.h"
#include "pascalr/session.h"
#include "test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;

const char kWorkloadQuery[] = "[<e.ename> OF EACH e IN employees: e.enr >= 1]";
// FormatSelection normalization of the above — the sys$statements key.
const char kWorkloadFingerprint[] =
    "[<e.ename> OF EACH e IN employees: (e.enr >= 1)]";

TEST(SystemRelationsTest, StatementsRowMatchesMultiSessionWorkloadExactly) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());

  constexpr int kThreads = 4;
  constexpr int kExecsPerThread = 16;

  // Independent tally of the workload: every thread records its own
  // latencies' side of the story — rows, cache verdicts, and an ExecStats
  // merge — exactly the way the store folds them.
  struct Tally {
    uint64_t calls = 0;
    uint64_t rows = 0;
    uint64_t plan_hits = 0;
    ExecStats counters;
  };
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = manager.CreateSession();
      auto prepared = session->Prepare(kWorkloadQuery);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      for (int i = 0; i < kExecsPerThread; ++i) {
        auto exec = prepared->Execute({});
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        Tally& tally = tallies[t];
        ++tally.calls;
        tally.rows += exec->tuples.size();
        if (exec->plan_cache_hit) ++tally.plan_hits;
        tally.counters.Merge(exec->stats);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Tally expected;
  for (const Tally& tally : tallies) {
    expected.calls += tally.calls;
    expected.rows += tally.rows;
    expected.plan_hits += tally.plan_hits;
    expected.counters.Merge(tally.counters);
  }
  ASSERT_EQ(expected.calls,
            static_cast<uint64_t>(kThreads) * kExecsPerThread);

  // First oracle: the store itself.
  StmtStatsSnapshot direct = db->stmt_stats().SnapshotOne(kWorkloadFingerprint);
  EXPECT_EQ(direct.calls, expected.calls);
  EXPECT_EQ(direct.rows, expected.rows);
  EXPECT_EQ(direct.plan_hits, expected.plan_hits);
  EXPECT_EQ(direct.plan_misses, expected.calls - expected.plan_hits);

  // Second oracle, the acceptance bar: the same numbers read back through
  // the engine's own query language from sys$statements.
  auto session = manager.CreateSession();
  auto run = session->Query(
      std::string("[<s.calls, s.rows, s.plan_hits, s.plan_misses, "
                  "s.elements_scanned, s.comparisons, s.dereferences, "
                  "s.peak_intermediate_rows, s.total_work> "
                  "OF EACH s IN sys$statements: s.fingerprint = '") +
      kWorkloadFingerprint + "']");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->tuples.size(), 1u);
  const Tuple& row = run->tuples[0];
  EXPECT_EQ(row.at(0).AsInt(), static_cast<int64_t>(expected.calls));
  EXPECT_EQ(row.at(1).AsInt(), static_cast<int64_t>(expected.rows));
  EXPECT_EQ(row.at(2).AsInt(), static_cast<int64_t>(expected.plan_hits));
  EXPECT_EQ(row.at(3).AsInt(),
            static_cast<int64_t>(expected.calls - expected.plan_hits));
  EXPECT_EQ(row.at(4).AsInt(),
            static_cast<int64_t>(expected.counters.elements_scanned));
  EXPECT_EQ(row.at(5).AsInt(),
            static_cast<int64_t>(expected.counters.comparisons));
  EXPECT_EQ(row.at(6).AsInt(),
            static_cast<int64_t>(expected.counters.dereferences));
  EXPECT_EQ(row.at(7).AsInt(),
            static_cast<int64_t>(expected.counters.peak_intermediate_rows));
  EXPECT_EQ(row.at(8).AsInt(),
            static_cast<int64_t>(expected.counters.TotalWork()));

  // And the server-wide metrics agree with the store's grand totals.
  auto counters = db->server_metrics().CountersSnapshot();
  uint64_t store_calls = 0;
  for (const StmtStatsSnapshot& s : db->stmt_stats().SnapshotAll()) {
    store_calls += s.calls;
  }
  EXPECT_EQ(counters["server.query.count"], store_calls);
}

TEST(SystemRelationsTest, ScansAreSnapshotConsistentUnderConcurrentWriters) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());

  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 40;
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto session = manager.CreateSession();
      const int base = 5000 + w * 1000;
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        std::string stmt = "employees :+ [<" + std::to_string(base + i) +
                           ", 'W" + std::to_string(w) + "x" +
                           std::to_string(i) + "', student>];";
        Status status = session->ExecuteScript(stmt);
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
    });
  }

  // Readers poll the employees row of sys$relations while the writers
  // run. Each refresh happens before the reading snapshot is captured and
  // publishes atomically, so cardinality may only move forward (inserts
  // only) and must never show a torn in-between state or a bind failure.
  std::vector<std::thread> readers;
  constexpr int kReaders = 2;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto session = manager.CreateSession();
      int64_t last = 0;
      do {
        auto run = session->Query(
            "[<t.cardinality> OF EACH t IN sys$relations: "
            "t.name = 'employees']");
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_EQ(run->tuples.size(), 1u);
        const int64_t cardinality = run->tuples[0].at(0).AsInt();
        EXPECT_GE(cardinality, last) << "cardinality went backwards";
        last = cardinality;
      } while (!writers_done.load(std::memory_order_acquire));
    });
  }

  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Settled state: the view reports the final cardinality exactly.
  auto session = manager.CreateSession();
  auto run = session->Query(
      "[<t.cardinality> OF EACH t IN sys$relations: t.name = 'employees']");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->tuples.size(), 1u);
  EXPECT_EQ(run->tuples[0].at(0).AsInt(),
            static_cast<int64_t>(db->FindRelation("employees")->cardinality()));
}

TEST(SystemRelationsTest, RefreshDoesNotInvalidateCachedPlans) {
  auto db = MakeUniversityDb();
  Session session(db.get());

  auto prepared = session.Prepare(kWorkloadQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared->Execute({});
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cache_hit);

  // A sys$ query refreshes the views and quietly seeds their statistics —
  // neither may bump the stats epoch or touch user-relation mod counts.
  const uint64_t epoch_before = db->stats_epoch();
  auto telemetry = session.Query(
      "[<s.fingerprint> OF EACH s IN sys$statements: s.calls > 0]");
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().ToString();
  EXPECT_FALSE(telemetry->tuples.empty());
  EXPECT_EQ(db->stats_epoch(), epoch_before);

  auto second = prepared->Execute({});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit)
      << "telemetry refresh invalidated an unrelated cached plan";

  // The trivial seeded statistics are in place (cost model input) …
  EXPECT_NE(db->FindFreshStats(sysrel::kStatements), nullptr);
  // … and ANALYZE leaves the system relations alone: the epoch moves only
  // for the user relations it scanned.
  size_t user_relations = 0;
  for (const std::string& name : db->RelationNames()) {
    if (!IsSystemRelationName(name)) ++user_relations;
  }
  ASSERT_TRUE(db->AnalyzeAll().ok());
  EXPECT_LE(db->stats_epoch() - epoch_before, user_relations);
}

TEST(SystemRelationsTest, AbandonedCursorFoldsEmittedRowsAtClose) {
  auto db = MakeUniversityDb();
  Session session(db.get());

  auto prepared = session.Prepare(kWorkloadQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  {
    auto cursor = prepared->OpenCursor({});
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    Tuple tuple;
    auto more = cursor->Next(&tuple);  // draw ONE row, then abandon
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(more.value());
  }  // destructor closes → fold fires

  StmtStatsSnapshot row = db->stmt_stats().SnapshotOne(kWorkloadFingerprint);
  EXPECT_EQ(row.calls, 1u);
  EXPECT_EQ(row.rows, 1u) << "fold must report rows actually emitted";
}

TEST(SystemRelationsTest, SlowLogRecordsOnlyArmedAboveThreshold) {
  auto db = MakeUniversityDb();
  Session session(db.get());

  // Disarmed (default): nothing records.
  ASSERT_TRUE(session.Query(kWorkloadQuery).ok());
  EXPECT_EQ(db->slow_log().recorded(), 0u);

  // Armed at 0us-adjacent threshold: every query is "slow".
  ASSERT_TRUE(session.ExecuteScript("SET SLOWLOG 1;").ok());
  ASSERT_TRUE(session.Query(kWorkloadQuery).ok());
  ASSERT_EQ(db->slow_log().recorded(), 1u);
  auto records = db->slow_log().SnapshotAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].source, kWorkloadFingerprint);
  EXPECT_GT(records[0].latency_us, 0u);
  EXPECT_GT(records[0].total_work, 0u);

  // Unreachable threshold: armed but nothing qualifies.
  ASSERT_TRUE(session.ExecuteScript("SET SLOWLOG 999999999;").ok());
  ASSERT_TRUE(session.Query(kWorkloadQuery).ok());
  EXPECT_EQ(db->slow_log().recorded(), 1u);
  // A threshold beyond 64 bits is a lexer error (the shell's `.slow N`
  // forwards here), and the armed threshold stays as it was.
  EXPECT_FALSE(
      session.ExecuteScript("SET SLOWLOG 99999999999999999999999;").ok());
  EXPECT_EQ(db->slow_log().threshold_us(), 999999999u);
  ASSERT_TRUE(session.ExecuteScript("SET SLOWLOG OFF;").ok());
  EXPECT_EQ(db->slow_log().threshold_us(), 0u);
}

TEST(SystemRelationsTest, SessionsViewTracksRegistrationAndTallies) {
  auto db = MakeUniversityDb();
  {
    Session a(db.get());
    Session b(db.get());
    ASSERT_TRUE(a.Query(kWorkloadQuery).ok());
    ASSERT_TRUE(a.Query(kWorkloadQuery).ok());
    ASSERT_TRUE(b.ExecuteScript(
        "employees :+ [<9001, 'x', student>];").ok());
    auto run = a.Query(
        "[<t.id, t.queries, t.writes> OF EACH t IN sys$sessions: TRUE]");
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->tuples.size(), 2u);
    bool saw_a = false;
    bool saw_b = false;
    for (const Tuple& t : run->tuples) {
      if (t.at(0).AsInt() == static_cast<int64_t>(a.session_id())) {
        saw_a = true;
        EXPECT_EQ(t.at(1).AsInt(), 2);  // the sys$ read itself folds later
        EXPECT_EQ(t.at(2).AsInt(), 0);
      }
      if (t.at(0).AsInt() == static_cast<int64_t>(b.session_id())) {
        saw_b = true;
        EXPECT_EQ(t.at(1).AsInt(), 0);
        EXPECT_EQ(t.at(2).AsInt(), 1);
      }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
  }
  // Both sessions unregistered at destruction.
  EXPECT_EQ(db->session_registry().size(), 0u);
}

TEST(SystemRelationsTest, ExportSkipsSystemRelations) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  ASSERT_TRUE(session.Query(kWorkloadQuery).ok());
  ASSERT_TRUE(session.Query(
      "[<s.calls> OF EACH s IN sys$statements: TRUE]").ok());
  ASSERT_NE(db->FindRelation(sysrel::kStatements), nullptr);

  auto script = ExportScript(*db);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->find("sys$"), std::string::npos)
      << "derived telemetry must not be exported";

  // The export replays cleanly into a fresh database.
  Database fresh;
  Session replay(&fresh);
  Status st = replay.ExecuteScript(*script);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace pascalr
