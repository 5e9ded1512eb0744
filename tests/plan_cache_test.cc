// Plan-cache invalidation: mutations (mod_count), ANALYZE (stats epoch),
// option changes, relation re-creation, and parameter-dependent range
// emptiness all force a replan — and a stale cache never returns wrong
// tuples.

#include <gtest/gtest.h>

#include "base/counters.h"
#include "concurrency/session_manager.h"
#include "pascalr/prepared.h"
#include "pascalr/session.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::TupleStrings;

TEST(PlanCacheTest, MutationBumpsModCountAndForcesReplan) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());

  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);

  // Mutating a referenced relation invalidates the cached plan...
  ASSERT_TRUE(session
                  .ExecuteScript("employees :+ [<42, 'Zara', professor>];")
                  .ok());
  auto after = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  // ...and the new tuple is visible.
  bool found = false;
  for (const Tuple& t : after->tuples) {
    if (t.at(0).AsString() == "Zara") found = true;
  }
  EXPECT_TRUE(found);

  // Mutating an *unreferenced* relation does not.
  ASSERT_TRUE(session
                  .ExecuteScript("courses :+ [<77, senior, 'Opt'>];")
                  .ok());
  auto unrelated = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(unrelated.ok());
  EXPECT_TRUE(unrelated->plan_cache_hit);
}

TEST(PlanCacheTest, HitAndMissCountersFeedTheSessionMetrics) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses"), nullptr);

  // First execute compiles: one miss, no hit yet.
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  ASSERT_NE(session.metrics().FindCounter("plan_cache.misses"), nullptr);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 1u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits"), nullptr);

  // Cached re-executes count hits without moving the miss counter.
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(2)}}).ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(3)}}).ok());
  ASSERT_NE(session.metrics().FindCounter("plan_cache.hits"), nullptr);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits")->value(), 2u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 1u);

  // Invalidation turns the next execute back into a miss.
  ASSERT_TRUE(session
                  .ExecuteScript("employees :+ [<43, 'Yuri', student>];")
                  .ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 2u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits")->value(), 2u);
}

TEST(PlanCacheTest, AnalyzeAfterSkewShiftDropsTheCachedAutoPlan) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().level = OptLevel::kAuto;

  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees:"
      " (e.enr <= $top) AND SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}}).ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}})->plan_cache_hit);

  // Shift the data, then ANALYZE: the epoch moves even though the
  // relations' mod_counts were already going to force a replan — and the
  // re-search runs against the *new* statistics.
  CompileCounters before = GlobalCompileCounters();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(session
                    .ExecuteScript("timetable :+ [<1, " +
                                   std::to_string(30 + i) +
                                   ", monday, 9001000, 'R9'>];")
                    .ok());
  }
  ASSERT_TRUE(db->AnalyzeAll().ok());
  auto re = prepared->Execute({{"top", Value::MakeInt(9)}});
  ASSERT_TRUE(re.ok());
  EXPECT_FALSE(re->plan_cache_hit);
  EXPECT_GT(GlobalCompileCounters().plan_searches, before.plan_searches);

  // A delete + ANALYZE moves both the mod_count and the stats epoch; the
  // next execute replans against the refreshed statistics.
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}})->plan_cache_hit);
  ASSERT_TRUE(session.ExecuteScript("timetable :- [<1, 30, monday>];").ok());
  ASSERT_TRUE(db->AnalyzeAll().ok());
  auto re2 = prepared->Execute({{"top", Value::MakeInt(9)}});
  ASSERT_TRUE(re2.ok());
  EXPECT_FALSE(re2->plan_cache_hit);
  // ANALYZE over an unchanged catalog recomputes nothing, keeps the
  // epoch, and the cache stays warm.
  ASSERT_TRUE(db->AnalyzeAll().ok());
  ASSERT_TRUE(prepared->Execute({{"top", Value::MakeInt(9)}})->plan_cache_hit);
}

TEST(PlanCacheTest, NewPermanentIndexInvalidates) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().use_permanent_indexes = true;
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees:"
      " SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());
  ASSERT_TRUE(prepared->Execute()->plan_cache_hit);

  // Declaring a permanent index moves the stats epoch: the cached plan
  // replans and can now borrow it instead of building a transient one.
  ASSERT_TRUE(session.ExecuteScript("INDEX timetable tenr;").ok());
  auto exec = prepared->Execute();
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->plan_cache_hit);
}

TEST(PlanCacheTest, OptionChangeInvalidates) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  session.options().level = OptLevel::kNaive;
  auto exec = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->plan_cache_hit);
  EXPECT_EQ(prepared->planned()->plan.level, OptLevel::kNaive);
}

TEST(PlanCacheTest, RelationRecreationForcesRebind) {
  Database db;
  Session session(&db);
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "VAR r : RELATION <a> OF RECORD a : 1..99 END;"
                      "r :+ [<1>]; r :+ [<2>]; r :+ [<3>];")
                  .ok());
  auto prepared =
      session.Prepare("[<x.a> OF EACH x IN r: x.a >= $lo]");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());

  // Drop + re-create r with the same shape but different contents: the
  // prepared query rebinds against the new relation object.
  ASSERT_TRUE(db.DropRelation("r").ok());
  ASSERT_TRUE(session
                  .ExecuteScript(
                      "VAR r : RELATION <a> OF RECORD a : 1..99 END;"
                      "r :+ [<7>];")
                  .ok());
  auto exec = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->plan_cache_hit);
  EXPECT_GE(prepared->stats().rebinds, 1u);
  ASSERT_EQ(exec->tuples.size(), 1u);
  EXPECT_EQ(exec->tuples[0].at(0).AsInt(), 7);
}

TEST(PlanCacheTest, ParamEmptinessFlipInExtendedRangeStaysCorrect) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  // ALL over a user-written extended range whose contents depend on $y:
  // when no paper has pyear = $y the range is empty and Lemma-1 folding
  // makes the ALL vacuously true — a plan compiled for a non-empty
  // binding is *wrong* for an empty one, so the cache must replan.
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " ALL p IN [EACH p IN papers: p.pyear = $y] (e.enr <> p.penr)]";
  auto prepared = session.Prepare(src);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto reference = [&](int64_t y) {
    std::string lit = src;
    std::string::size_type at = lit.find("$y");
    lit.replace(at, 2, std::to_string(y));
    auto run = session.Query(lit);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return TupleStrings(run->tuples);
  };

  for (int64_t y : {1977, 1399, 1975, 1399, 1977, 1976}) {
    auto exec = prepared->Execute({{"y", Value::MakeInt(y)}});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(TupleStrings(exec->tuples), reference(y)) << "y=" << y;
  }
}

TEST(PlanCacheTest, StaleCacheNeverReturnsWrongTuplesUnderChurn) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees:"
      " (e.enr >= $lo) AND SOME t IN timetable (e.enr = t.tenr)]");
  ASSERT_TRUE(prepared.ok());

  // Interleave mutations, ANALYZE, option flips, and executes; after
  // every step the prepared result must equal a freshly planned Query.
  const char* mutations[] = {
      "employees :+ [<50, 'New1', student>];",
      "timetable :+ [<50, 12, friday, 9001000, 'R7'>];",
      "ANALYZE;",
      "timetable :- [<50, 12, friday>];",
      "employees :+ [<51, 'New2', professor>];",
      "ANALYZE employees;",
      "timetable :+ [<51, 11, friday, 9001000, 'R8'>];",
  };
  int64_t lo = 0;
  for (const char* mutation : mutations) {
    ASSERT_TRUE(session.ExecuteScript(mutation).ok()) << mutation;
    lo = (lo + 3) % 7;
    auto exec = prepared->Execute({{"lo", Value::MakeInt(lo)}});
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto fresh = session.Query(
        "[<e.ename> OF EACH e IN employees:"
        " (e.enr >= " +
        std::to_string(lo) +
        ") AND SOME t IN timetable (e.enr = t.tenr)]");
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(TupleStrings(exec->tuples), TupleStrings(fresh->tuples))
        << mutation << " lo=" << lo;
    // And an immediate re-execute hits the (now fresh) cache, still
    // agreeing.
    auto again = prepared->Execute({{"lo", Value::MakeInt(lo)}});
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->plan_cache_hit);
    EXPECT_EQ(TupleStrings(again->tuples), TupleStrings(fresh->tuples));
  }
}

TEST(PlanCacheTest, SharedCollectionWalkPerAutoCandidate) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().level = OptLevel::kAuto;

  // A 3-input conjunction: the join-order DP needs structure estimates,
  // so each kAuto candidate walks the collection phase — the walk must be
  // shared with EstimatePlanCost (one walk per candidate, not two).
  const std::string src =
      "[<e.ename> OF EACH e IN employees:"
      " SOME t IN timetable SOME c IN courses"
      " ((e.enr = t.tenr) AND (t.tcnr = c.cnr) AND (c.clevel <= junior))]";
  CompileCounters before = GlobalCompileCounters();
  auto run = session.Query(src);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const CompileCounters& now = GlobalCompileCounters();
  uint64_t candidates = now.plans - before.plans;
  uint64_t walks = now.collection_walks - before.collection_walks;
  ASSERT_GT(candidates, 0u);
  EXPECT_LE(walks, candidates) << "each candidate should walk the "
                                  "collection phase at most once";

  // Sharing must not change the estimate: costing with a saved walk
  // equals costing from scratch, on a deterministic fixed-level plan.
  PlannerOptions fixed = session.options();
  fixed.level = OptLevel::kOneStep;
  auto bound = session.Bind(src);
  ASSERT_TRUE(bound.ok());
  auto planned = PlanQuery(*db, std::move(bound).value(), fixed);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  CollectionCost saved;
  EstimateStructureSizes(planned->plan, *db, &saved);
  ASSERT_TRUE(saved.valid);
  CostEstimate with_reuse = EstimatePlanCost(planned->plan, *db, &saved);
  CostEstimate from_scratch = EstimatePlanCost(planned->plan, *db);
  EXPECT_EQ(with_reuse.weighted_cost, from_scratch.weighted_cost);
  EXPECT_EQ(with_reuse.predicted.TotalWork(),
            from_scratch.predicted.TotalWork());
}

TEST(PlanCacheTest, InterleavedWritesFromAnotherSessionInvalidate) {
  // Concurrent serving: session A's cached plan must go stale when
  // session B — a different session, write guard and all — mutates a
  // referenced relation between A's executes, and every re-execute must
  // see exactly the rows committed before its snapshot.
  auto db = MakeUniversityDb();
  SessionManager manager(db.get());
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();

  auto prepared = a->Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  size_t baseline_rows = first->tuples.size();

  // B's committed write lands between A's executes: A must replan (its
  // stamps are stale) and the adopted-or-recompiled plan must produce
  // the new row.
  ASSERT_TRUE(
      b->ExecuteScript("employees :+ [<81, 'Ivy', professor>];").ok());
  auto second = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->plan_cache_hit);
  EXPECT_EQ(second->tuples.size(), baseline_rows + 1);

  // Steady state resumes: no interleaved write, the replanned entry hits.
  auto third = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->plan_cache_hit);
  EXPECT_EQ(TupleStrings(third->tuples), TupleStrings(second->tuples));

  // A delete from B invalidates again and shrinks the visible set.
  ASSERT_TRUE(b->ExecuteScript("employees :- [<81>];").ok());
  auto fourth = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth->plan_cache_hit);
  EXPECT_EQ(fourth->tuples.size(), baseline_rows);
}

}  // namespace
}  // namespace pascalr
