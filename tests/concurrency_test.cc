// Unit tests for the concurrent-serving subsystem (src/concurrency/):
// StableVector publication, SnapshotRegistry quiesce, snapshot isolation
// through the full session stack, versioned deletes + compaction, the
// shared plan cache, and commit versioning. The multi-threaded
// reader/writer torture test with the serial oracle lives in
// concurrency_stress_test.cc.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "base/stable_vector.h"
#include "concurrency/session_manager.h"
#include "concurrency/snapshot.h"
#include "pascalr/session.h"
#include "test_util.h"

namespace pascalr {
namespace {

using testing_util::FirstStrings;
using testing_util::MakeUniversityDb;
using testing_util::TupleStrings;

const char kAllEmployees[] = "[<e.ename> OF EACH e IN employees: e.enr >= 1]";
const char kJoinQuery[] =
    "[<e.ename> OF EACH e IN employees:"
    " SOME t IN timetable (e.enr = t.tenr)]";

// ---- StableVector ---------------------------------------------------

TEST(StableVectorTest, AddressesStableAcrossBlockGrowth) {
  StableVector<uint64_t> v;
  size_t first = v.Append();
  v[first] = 42;
  const uint64_t* addr = &v[first];
  // Push well past the first (256) and second (512) blocks.
  for (uint64_t i = 1; i < 3000; ++i) {
    size_t idx = v.Append();
    v[idx] = i;
  }
  EXPECT_EQ(v.size(), 3000u);
  EXPECT_EQ(&v[first], addr) << "growth must never move elements";
  EXPECT_EQ(v[first], 42u);
  for (uint64_t i = 1; i < 3000; ++i) EXPECT_EQ(v[i], i);
}

TEST(StableVectorTest, ConcurrentReaderSeesOnlyPublishedElements) {
  constexpr uint64_t kUnset = 0;
  constexpr size_t kTotal = 20000;
  struct Cell {
    std::atomic<uint64_t> value{kUnset};
  };
  StableVector<Cell> v;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      size_t n = v.size();
      for (size_t i = 0; i < n; ++i) {
        uint64_t x = v[i].value.load(std::memory_order_acquire);
        // A published element is constructed: either still the default or
        // the writer's fill — never garbage.
        if (x != kUnset && x != i + 1) {
          ADD_FAILURE() << "torn element " << i << ": " << x;
          return;
        }
      }
    }
  });
  for (size_t i = 0; i < kTotal; ++i) {
    size_t idx = v.Append();
    v[idx].value.store(idx + 1, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(v.size(), kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(v[i].value.load(std::memory_order_relaxed), i + 1);
  }
}

// ---- SnapshotRegistry -----------------------------------------------

std::unique_ptr<const Snapshot> MakeEmptySnapshot() {
  return std::make_unique<Snapshot>();
}

TEST(SnapshotRegistryTest, TryQuiesceRunsOnlyWhenIdle) {
  SnapshotRegistry registry;
  bool ran = false;
  EXPECT_TRUE(registry.TryQuiesce([&] { ran = true; }));
  EXPECT_TRUE(ran);

  SnapshotRef snap = registry.Register(MakeEmptySnapshot);
  EXPECT_EQ(registry.ActiveCount(), 1u);
  EXPECT_FALSE(registry.TryQuiesce([] { FAIL() << "must not run"; }));

  snap.reset();
  EXPECT_EQ(registry.ActiveCount(), 0u);
  EXPECT_TRUE(registry.TryQuiesce([] {}));
}

TEST(SnapshotRegistryTest, QuiesceWaitsForLiveSnapshots) {
  SnapshotRegistry registry;
  SnapshotRef snap = registry.Register(MakeEmptySnapshot);
  std::atomic<bool> released{false};
  std::thread holder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true, std::memory_order_release);
    snap.reset();
  });
  bool ran = false;
  registry.Quiesce([&] {
    // The quiesce window must start only after the holder let go. (No
    // registry calls in here: Quiesce holds the registry mutex while
    // running the callback.)
    EXPECT_TRUE(released.load(std::memory_order_acquire));
    ran = true;
  });
  EXPECT_TRUE(ran);
  holder.join();
  EXPECT_EQ(registry.ActiveCount(), 0u);
  // The gate must reopen: new snapshots register fine afterwards.
  SnapshotRef after = registry.Register(MakeEmptySnapshot);
  EXPECT_EQ(registry.ActiveCount(), 1u);
}

// ---- snapshot isolation through the session stack -------------------

TEST(ConcurrencyTest, SnapshotReadsIgnoreLaterCommits) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  ASSERT_TRUE(db->serving());
  auto writer = manager.CreateSession();
  auto reader = manager.CreateSession();

  SnapshotRef before = db->TakeSnapshot();
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(
      writer->ExecuteScript("employees :+ [<7, 'Grace', professor>];").ok());

  // A fresh read sees the committed insert...
  auto now = reader->Query(kAllEmployees);
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_EQ(FirstStrings(now->tuples).count("Grace"), 1u);

  // ...but under the old snapshot the insert does not exist.
  {
    ScopedSnapshotInstall install(before);
    auto old = reader->Query(kAllEmployees);
    ASSERT_TRUE(old.ok()) << old.status().ToString();
    EXPECT_EQ(FirstStrings(old->tuples).count("Grace"), 0u);
  }
}

TEST(ConcurrencyTest, DroppedRelationStaysReadableUnderSnapshot) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto session = manager.CreateSession();

  auto baseline = session->Query(kJoinQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  SnapshotRef before = db->TakeSnapshot();
  ASSERT_TRUE(db->DropRelation("timetable").ok());

  // Without the snapshot the relation is gone.
  EXPECT_FALSE(session->Query(kJoinQuery).ok());

  // Under the snapshot the join still binds, plans, and returns the
  // pre-drop answer: the snapshot's strong ref keeps the relation alive.
  {
    ScopedSnapshotInstall install(before);
    auto old = session->Query(kJoinQuery);
    ASSERT_TRUE(old.ok()) << old.status().ToString();
    EXPECT_EQ(TupleStrings(old->tuples), TupleStrings(baseline->tuples));
  }
}

TEST(ConcurrencyTest, WriteStatementsCommitOneVersionEach) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto session = manager.CreateSession();

  uint64_t v0 = db->db_version();
  ASSERT_TRUE(
      session->ExecuteScript("employees :+ [<50, 'Zoe', student>];").ok());
  EXPECT_EQ(db->db_version(), v0 + 1);
  EXPECT_EQ(session->last_commit_version(), v0 + 1);

  ASSERT_TRUE(session->ExecuteScript("employees :- [<50>];").ok());
  EXPECT_EQ(db->db_version(), v0 + 2);
  EXPECT_EQ(session->last_commit_version(), v0 + 2);

  // Reads commit nothing.
  ASSERT_TRUE(session->Query(kAllEmployees).ok());
  EXPECT_EQ(db->db_version(), v0 + 2);
}

TEST(ConcurrencyTest, ExecuteReportsItsSnapshotVersion) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto session = manager.CreateSession();

  auto prepared = session->Prepare(kAllEmployees);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto exec = prepared->Execute({});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->snapshot_version, db->db_version());

  ASSERT_TRUE(
      session->ExecuteScript("employees :+ [<60, 'Yan', student>];").ok());
  auto exec2 = prepared->Execute({});
  ASSERT_TRUE(exec2.ok()) << exec2.status().ToString();
  EXPECT_EQ(exec2->snapshot_version, db->db_version());
  EXPECT_GT(exec2->snapshot_version, exec->snapshot_version);
}

// ---- versioned deletes and compaction -------------------------------

TEST(ConcurrencyTest, CompactionReclaimsDeadVersionsAndKeepsData) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto session = manager.CreateSession();

  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(session
                    ->ExecuteScript("employees :+ [<" + std::to_string(i) +
                                    ", 'T" + std::to_string(i) +
                                    "', student>];")
                    .ok());
  }
  for (int i = 100; i < 110; ++i) {
    ASSERT_TRUE(
        session->ExecuteScript("employees :- [<" + std::to_string(i) + ">];")
            .ok());
  }

  auto survivors = session->Query(kAllEmployees);
  ASSERT_TRUE(survivors.ok()) << survivors.status().ToString();
  auto names_before = TupleStrings(survivors->tuples);
  EXPECT_EQ(names_before.size(), 6u + 10u);  // seed data + surviving inserts

  size_t retired = manager.Compact();
  EXPECT_GT(retired, 0u) << "ten deleted versions should be reclaimable";
  auto counters = manager.counters();
  EXPECT_GE(counters.compactions, 1u);
  EXPECT_GE(counters.versions_retired, retired);

  // Compaction must be invisible to queries.
  auto after = session->Query(kAllEmployees);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TupleStrings(after->tuples), names_before);

  // And the heap must actually be reusable: inserting after compaction
  // refills reclaimed slots without disturbing anything.
  ASSERT_TRUE(
      session->ExecuteScript("employees :+ [<100, 'Back', student>];").ok());
  auto refilled = session->Query(kAllEmployees);
  ASSERT_TRUE(refilled.ok());
  EXPECT_EQ(FirstStrings(refilled->tuples).count("Back"), 1u);
}

// ---- shared plan cache ----------------------------------------------

TEST(ConcurrencyTest, SharedPlanCacheServesSecondSession) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto first = manager.CreateSession();
  auto second = manager.CreateSession();

  auto r1 = first->Query(kJoinQuery);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto v0 = manager.counters();

  auto r2 = second->Query(kJoinQuery);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto v1 = manager.counters();

  EXPECT_GT(v1.shared_plan_hits, v0.shared_plan_hits)
      << "second session must adopt the first session's plan";
  EXPECT_EQ(TupleStrings(r1->tuples), TupleStrings(r2->tuples));
}

TEST(ConcurrencyTest, SharedPlanCacheRejectsStaleEntryAfterWrite) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto first = manager.CreateSession();
  auto second = manager.CreateSession();

  auto r1 = first->Query(kAllEmployees);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  // The write moves the relation's mod count; the cached entry's
  // watermark no longer matches, so adopting it would read the future or
  // plan on stale cardinalities — it must be rejected, recompiled, and
  // the fresh result must include the new row.
  ASSERT_TRUE(
      first->ExecuteScript("employees :+ [<70, 'New', student>];").ok());
  auto v0 = manager.counters();
  auto r2 = second->Query(kAllEmployees);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto v1 = manager.counters();

  EXPECT_EQ(v1.shared_plan_hits, v0.shared_plan_hits);
  EXPECT_GT(v1.shared_plan_misses, v0.shared_plan_misses);
  EXPECT_EQ(FirstStrings(r2->tuples).count("New"), 1u);
}

TEST(ConcurrencyTest, SharedCacheKeySeparatesPlannerOptions) {
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto first = manager.CreateSession();
  auto second = manager.CreateSession();
  second->options().join_order_dp = false;  // different plan-relevant option

  auto r1 = first->Query(kJoinQuery);
  ASSERT_TRUE(r1.ok());
  auto v0 = manager.counters();
  auto r2 = second->Query(kJoinQuery);
  ASSERT_TRUE(r2.ok());
  auto v1 = manager.counters();

  EXPECT_EQ(v1.shared_plan_hits, v0.shared_plan_hits)
      << "different options must never share a plan";
  EXPECT_EQ(TupleStrings(r1->tuples), TupleStrings(r2->tuples));
}

// ---- legacy mode unaffected -----------------------------------------

TEST(ConcurrencyTest, NonServingDatabaseTakesNoSnapshots) {
  auto db = MakeUniversityDb();
  EXPECT_FALSE(db->serving());
  EXPECT_EQ(db->TakeSnapshot(), nullptr);
  Session session(db.get());
  auto run = session.Query(kAllEmployees);
  ASSERT_TRUE(run.ok());
  auto counters = db->ConcurrencyCountersView();
  EXPECT_EQ(counters.snapshots_taken, 0u);
  EXPECT_EQ(counters.shared_plan_hits + counters.shared_plan_misses, 0u);
  EXPECT_EQ(db->db_version(), 0u);
}

}  // namespace
}  // namespace pascalr
