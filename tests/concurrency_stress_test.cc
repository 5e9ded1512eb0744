// Multi-session stress test with a serial oracle: N writer threads commit
// single-statement inserts/deletes while M reader threads execute a
// prepared query in a loop. Every reader result must be BIT-IDENTICAL to
// replaying the committed-statement log — keyed by commit version — up to
// that execution's snapshot version into a fresh database. That property
// is exactly snapshot isolation: a reader sees all statements committed
// at or before its snapshot and none after, never a torn statement.
//
// Writers use DML statements only (insert / delete): each commits as ONE
// db_version bump, so commit versions enumerate the serial write history
// densely and a log prefix is a well-defined database state. (Assignment
// `:=` is drop+create+inserts and commits several versions per statement
// — it is deliberately not part of this workload; see catalog/database.h.)
//
// Run under ThreadSanitizer in CI (the sanitizers job) — the assertions
// prove isolation, TSan proves the absence of data races.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/session_manager.h"
#include "exec/naive.h"
#include "obs/stmt_stats.h"
#include "pascalr/session.h"
#include "test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::MustBind;
using testing_util::TupleStrings;

constexpr int kWriters = 2;
constexpr int kStatementsPerWriter = 50;
constexpr int kReaders = 4;

const char kQuery[] = "[<e.ename> OF EACH e IN employees: e.enr >= 1]";

struct ReaderObservation {
  uint64_t snapshot_version = 0;
  std::multiset<std::string> tuples;
};

TEST(ConcurrencyStressTest, ReadersMatchSerialOracleAtTheirSnapshot) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());

  // The committed write history: commit version -> the statement that
  // committed as it. Writers append under a mutex *after* their statement
  // returns; versions are unique because write statements serialise on
  // the database write mutex and each DML statement bumps db_version
  // exactly once.
  std::mutex log_mu;
  std::map<uint64_t, std::string> commit_log;

  // Phase coordination makes the interleaving deterministic, not just
  // likely: every reader records one observation BEFORE any writer runs
  // and one AFTER the last writer committed, so each reader provably
  // spans at least two database versions. In between, readers free-run
  // against the live writers — that window is what TSan inspects.
  std::atomic<int> readers_ready{0};
  std::atomic<bool> writers_go{false};
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!writers_go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto session = manager.CreateSession();
      // Disjoint key ranges per writer: every statement succeeds, so the
      // log needs no failure bookkeeping.
      const int base = 1000 + w * 1000;
      for (int i = 0; i < kStatementsPerWriter; ++i) {
        std::string stmt;
        if (i % 3 == 2) {
          // Delete a key this writer inserted two statements ago.
          stmt = "employees :- [<" + std::to_string(base + i - 2) + ">];";
        } else {
          stmt = "employees :+ [<" + std::to_string(base + i) + ", 'W" +
                 std::to_string(w) + "x" + std::to_string(i) +
                 "', student>];";
        }
        Status status = session->ExecuteScript(stmt);
        ASSERT_TRUE(status.ok()) << stmt << ": " << status.ToString();
        uint64_t version = session->last_commit_version();
        std::lock_guard<std::mutex> lock(log_mu);
        auto inserted = commit_log.emplace(version, stmt);
        ASSERT_TRUE(inserted.second)
            << "two statements committed as version " << version;
      }
    });
  }

  std::vector<std::vector<ReaderObservation>> observations(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto session = manager.CreateSession();
      auto prepared = session->Prepare(kQuery);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      auto observe = [&] {
        auto exec = prepared->Execute({});
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        ReaderObservation obs;
        obs.snapshot_version = exec->snapshot_version;
        obs.tuples = TupleStrings(exec->tuples);
        observations[r].push_back(std::move(obs));
      };
      observe();  // Pre-write observation (writers are still gated).
      readers_ready.fetch_add(1, std::memory_order_acq_rel);
      while (!writers_done.load(std::memory_order_acquire)) {
        observe();
      }
      observe();  // Post-write observation (all statements committed).
    });
  }

  while (readers_ready.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  writers_go.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ASSERT_EQ(commit_log.size(),
            static_cast<size_t>(kWriters * kStatementsPerWriter));

  // Serial oracle: replay the log prefix `<= version` into a fresh
  // database and run the same query single-threaded. Memoised per
  // version — many observations share a snapshot.
  std::map<uint64_t, std::multiset<std::string>> oracle;
  auto oracle_at = [&](uint64_t version) -> const std::multiset<std::string>& {
    auto found = oracle.find(version);
    if (found != oracle.end()) return found->second;
    auto fresh = MakeUniversityDb();
    Session replay(fresh.get());
    for (const auto& [v, stmt] : commit_log) {
      if (v > version) break;
      Status status = replay.ExecuteScript(stmt);
      EXPECT_TRUE(status.ok()) << stmt << ": " << status.ToString();
    }
    auto run = replay.Query(kQuery);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return oracle.emplace(version, TupleStrings(run->tuples)).first->second;
  };

  const uint64_t final_version = commit_log.rbegin()->first;
  size_t total = 0;
  for (int r = 0; r < kReaders; ++r) {
    // At minimum the gated pre-write and post-write observations.
    ASSERT_GE(observations[r].size(), 2u);
    uint64_t prev_version = 0;
    for (size_t i = 0; i < observations[r].size(); ++i) {
      const ReaderObservation& obs = observations[r][i];
      // Snapshots move forward within one session.
      EXPECT_GE(obs.snapshot_version, prev_version) << "reader " << r;
      prev_version = obs.snapshot_version;
      EXPECT_EQ(obs.tuples, oracle_at(obs.snapshot_version))
          << "reader " << r << " execute " << i << " at snapshot version "
          << obs.snapshot_version;
      ++total;
    }
    // The phase gates force every reader across at least two states:
    // one from before the first commit, one at the final version.
    EXPECT_LT(observations[r].front().snapshot_version, final_version)
        << "reader " << r;
    EXPECT_EQ(observations[r].back().snapshot_version, final_version)
        << "reader " << r;
  }
  EXPECT_GE(total, static_cast<size_t>(kReaders) * 2);
  EXPECT_GE(oracle.size(), 2u) << "no interleaving happened";

  // The final state equals replaying the whole log.
  auto final_run = manager.CreateSession()->Query(kQuery);
  ASSERT_TRUE(final_run.ok()) << final_run.status().ToString();
  EXPECT_EQ(TupleStrings(final_run->tuples),
            oracle_at(commit_log.rbegin()->first));
}

TEST(ConcurrencyStressTest, StmtStatsFoldingMatchesSerialOracleExactly) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());

  // N sessions hammer the SAME prepared statement concurrently; the
  // statement-stats row must afterwards equal what a serial tally of the
  // very same executions produces — folds are statement-granular and
  // lossless, no double counts, no drops, under contention.
  constexpr int kThreads = 6;
  constexpr int kExecsPerThread = 25;

  struct Tally {
    uint64_t rows = 0;
    uint64_t plan_hits = 0;
    ExecStats counters;
  };
  std::vector<Tally> tallies(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = manager.CreateSession();
      auto prepared = session->Prepare(kQuery);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kExecsPerThread; ++i) {
        auto exec = prepared->Execute({});
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        tallies[t].rows += exec->tuples.size();
        if (exec->plan_cache_hit) ++tallies[t].plan_hits;
        tallies[t].counters.Merge(exec->stats);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  Tally expected;
  for (const Tally& tally : tallies) {
    expected.rows += tally.rows;
    expected.plan_hits += tally.plan_hits;
    expected.counters.Merge(tally.counters);
  }
  const uint64_t calls = static_cast<uint64_t>(kThreads) * kExecsPerThread;

  // FormatSelection normalization of kQuery — the store's key.
  const std::string fingerprint =
      "[<e.ename> OF EACH e IN employees: (e.enr >= 1)]";
  StmtStatsSnapshot row = db->stmt_stats().SnapshotOne(fingerprint);
  EXPECT_EQ(row.calls, calls);
  EXPECT_EQ(row.rows, expected.rows);
  EXPECT_EQ(row.plan_hits, expected.plan_hits);
  EXPECT_EQ(row.plan_misses, calls - expected.plan_hits);
  EXPECT_EQ(row.counters.elements_scanned, expected.counters.elements_scanned);
  EXPECT_EQ(row.counters.comparisons, expected.counters.comparisons);
  EXPECT_EQ(row.counters.dereferences, expected.counters.dereferences);
  EXPECT_EQ(row.counters.peak_intermediate_rows,
            expected.counters.peak_intermediate_rows);
  EXPECT_EQ(row.counters.TotalWork(), expected.counters.TotalWork());
  // Latency quantiles cannot be predicted, but they must be ordered and
  // total_us must cover the per-call mean exactly.
  EXPECT_LE(row.p50_us, row.p95_us);
  EXPECT_LE(row.p95_us, row.p99_us);
  EXPECT_LE(row.p99_us, row.max_us);
  EXPECT_EQ(row.mean_us, row.total_us / calls);
}

TEST(ConcurrencyStressTest, SharedPlanCacheStaysHotAcrossSessionChurn) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());

  // Warm the cache once, then hammer it from short-lived sessions on
  // several threads — the workload bench_concurrent measures. With no
  // interleaved writes every adoption must validate and hit.
  ASSERT_TRUE(manager.CreateSession()->Query(kQuery).ok());
  auto warm = manager.counters();

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        auto session = manager.CreateSession();
        auto run = session->Query(kQuery);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  auto after = manager.counters();
  EXPECT_EQ(after.shared_plan_hits - warm.shared_plan_hits,
            static_cast<uint64_t>(kThreads * kSessionsPerThread))
      << "every post-warmup session must adopt the shared plan";
  EXPECT_EQ(after.shared_plan_misses, warm.shared_plan_misses);
}

// The collection kernel reads the column mirror a word at a time, cells of
// invisible slots included, while a writer fills reused slots. Readers run
// restricted prepared selections (mirror terms, and a restriction with an
// OR and a string term) while one writer inserts, upserts and deletes
// employees and compacts after every few statements, so slots freed by
// compaction are reused under running scans. Every read must equal the
// naive evaluator over the write log replayed up to its snapshot, and TSan
// must see no race on the mirror.
TEST(ConcurrencyStressTest, RestrictedScansMatchNaiveAcrossSlotReuse) {
  const char* kSelections[] = {
      "[<e.enr, e.ename> OF EACH e IN employees: (e.estatus = student) AND "
      "(e.enr >= 1000)]",
      "[<e.enr> OF EACH e IN [EACH e IN employees: (e.enr < 1030) OR "
      "(e.estatus = professor)]: (e.ename <> 'N1004')]",
  };
  constexpr int kStatements = 90;
  constexpr int kScanReaders = 3;

  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  Relation* employees = db->FindRelation("employees");
  ASSERT_NE(employees, nullptr);

  // One logged write: insert, upsert, or erase (tuple holds the key).
  struct Write {
    enum Kind { kInsert, kUpsert, kErase } kind;
    Tuple tuple;
  };
  auto apply = [](Relation* rel, const Write& w) {
    switch (w.kind) {
      case Write::kInsert:
        return rel->Insert(w.tuple).status();
      case Write::kUpsert:
        return rel->Upsert(w.tuple).status();
      case Write::kErase:
        return rel->EraseByKey(w.tuple);
    }
    return Status::OK();
  };
  auto employee = [](int64_t enr, bool student) {
    return Tuple{Value::MakeInt(enr),
                 Value::MakeString("N" + std::to_string(enr)),
                 Value::MakeEnum(student ? 0 : 3)};
  };

  std::map<uint64_t, Write> commit_log;  // the writer's own; read after join
  std::atomic<int> readers_ready{0};
  std::atomic<bool> writer_go{false};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    while (!writer_go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::vector<int64_t> live;
    int64_t next = 1000;
    for (int i = 0; i < kStatements; ++i) {
      Write w;
      switch (i % 5) {
        case 0:
        case 1:
          w = {Write::kInsert, employee(next, next % 3 != 0)};
          live.push_back(next++);
          break;
        case 2:
          // Flip the status of the oldest live key: a new version that
          // the first selection's terms see differently.
          w = {Write::kUpsert, employee(live.front(), i % 10 == 2)};
          break;
        case 3:
          w = {Write::kErase, Tuple{Value::MakeInt(live.front())}};
          live.erase(live.begin());
          break;
        default:
          // Frees the dead versions; the next inserts and upserts reuse
          // their slots while readers keep scanning.
          db->Compact();
          continue;
      }
      Database::WriteStatementGuard guard = db->BeginWriteStatement();
      Status status = apply(employees, w);
      ASSERT_TRUE(status.ok()) << status.ToString();
      commit_log.emplace(guard.Commit(), std::move(w));
    }
  });

  struct Observation {
    size_t selection = 0;
    uint64_t snapshot_version = 0;
    std::multiset<std::string> tuples;
  };
  std::vector<std::vector<Observation>> observations(kScanReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kScanReaders; ++r) {
    readers.emplace_back([&, r] {
      const size_t selection = static_cast<size_t>(r) % 2;
      auto session = manager.CreateSession();
      auto prepared = session->Prepare(kSelections[selection]);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      auto observe = [&] {
        auto exec = prepared->Execute({});
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        observations[r].push_back({selection, exec->snapshot_version,
                                   TupleStrings(exec->tuples)});
      };
      observe();
      readers_ready.fetch_add(1, std::memory_order_acq_rel);
      while (!writer_done.load(std::memory_order_acquire)) observe();
      observe();
    });
  }
  while (readers_ready.load(std::memory_order_acquire) < kScanReaders) {
    std::this_thread::yield();
  }
  writer_go.store(true, std::memory_order_release);
  writer.join();
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(commit_log.size(), static_cast<size_t>(kStatements * 4 / 5));
  // Compaction freed dead versions, so later writes reused slots.
  EXPECT_GT(db->ConcurrencyCountersView().versions_retired, 0u);

  // Naive oracle over the log prefix `<= version`, memoised per version.
  std::map<std::pair<size_t, uint64_t>, std::multiset<std::string>> oracle;
  auto oracle_at = [&](size_t selection, uint64_t version)
      -> const std::multiset<std::string>& {
    auto found = oracle.find({selection, version});
    if (found != oracle.end()) return found->second;
    auto fresh = MakeUniversityDb();
    Relation* rel = fresh->FindRelation("employees");
    for (const auto& [v, w] : commit_log) {
      if (v > version) break;
      EXPECT_TRUE(apply(rel, w).ok());
    }
    NaiveEvaluator naive(fresh.get());
    auto rows = naive.Evaluate(MustBind(*fresh, kSelections[selection]));
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return oracle.emplace(std::make_pair(selection, version),
                          TupleStrings(*rows))
        .first->second;
  };
  size_t versions_seen = 0;
  for (int r = 0; r < kScanReaders; ++r) {
    ASSERT_GE(observations[r].size(), 2u);
    uint64_t last = UINT64_MAX;
    for (size_t i = 0; i < observations[r].size(); ++i) {
      const Observation& obs = observations[r][i];
      EXPECT_EQ(obs.tuples, oracle_at(obs.selection, obs.snapshot_version))
          << "reader " << r << " execute " << i << " at snapshot version "
          << obs.snapshot_version;
      versions_seen += obs.snapshot_version != last;
      last = obs.snapshot_version;
    }
  }
  EXPECT_GE(versions_seen, static_cast<size_t>(kScanReaders) * 2)
      << "no interleaving happened";
}

}  // namespace
}  // namespace pascalr
