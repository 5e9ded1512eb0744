// Plan-cache invalidation: ANALYZE (stats epoch), option changes,
// relation re-creation, range emptiness flips (parameter-dependent or
// write-driven) and writes that move a relation's cardinality out of the
// stamp's x2 band all force a replan; any other write only revalidates
// the cached plan. A stale cache never returns wrong tuples.

#include <memory>
#include <set>
#include <string>
#include <vector>

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

/// Inserts students numbered first..last into employees through `session`.
void AddEmployees(Session* session, int first, int last) {
  for (int enr = first; enr <= last; ++enr) {
    const std::string n = std::to_string(enr);
    ASSERT_TRUE(
        session->ExecuteScript("employees :+ [<" + n + ", 'G" + n + "', student>];")
            .ok());
  }
}

TEST(PlanCacheTest, MutationBumpsModCountAndForcesReplan) {
  auto db = MakeUniversityDb();
  Session session(db.get());
  auto prepared = session.Prepare(
      "[<e.ename> OF EACH e IN employees: e.enr >= $lo]");
  ASSERT_TRUE(prepared.ok());

  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);

  // Mutating a referenced relation within the cardinality band (6 -> 7
  // employees) revalidates the cached plan instead of replanning it...
  ASSERT_TRUE(session
                  .ExecuteScript("employees :+ [<42, 'Zara', professor>];")
                  .ok());
  auto after = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  // ...and the new tuple is visible.
  bool found = false;
  for (const Tuple& t : after->tuples) {
    if (t.at(0).AsString() == "Zara") found = true;
  }
  EXPECT_TRUE(found);

  // Growing employees past twice its plan-time cardinality (6 -> 13)
  // breaches the band: the next execute replans, and sees every row.
  AddEmployees(&session, 43, 48);
  auto grown = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(grown.ok());
  EXPECT_FALSE(grown->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  EXPECT_EQ(grown->tuples.size(), 13u);

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

  // A write within the cardinality band is a hit that revalidates.
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.revalidations"),
            nullptr);
  ASSERT_TRUE(session
                  .ExecuteScript("employees :+ [<43, 'Yuri', student>];")
                  .ok());
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 1u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits")->value(), 3u);
  ASSERT_NE(session.metrics().FindCounter("plan_cache.revalidations"),
            nullptr);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.revalidations")->value(),
            1u);

  // Invalidation — here growing employees past twice its plan-time
  // cardinality (6 -> 13) — turns the next execute back into a miss.
  AddEmployees(&session, 44, 49);
  ASSERT_TRUE(prepared->Execute({{"lo", Value::MakeInt(1)}}).ok());
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.misses")->value(), 2u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.hits")->value(), 3u);
  EXPECT_EQ(session.metrics().FindCounter("plan_cache.revalidations")->value(),
            1u);
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

TEST(PlanCacheTest, OneCollectionWalkPerAutoCandidate) {
  auto db = MakeUniversityDb();
  ASSERT_TRUE(db->AnalyzeAll().ok());
  Session session(db.get());
  session.options().level = OptLevel::kAuto;

  // A 3-input conjunction: each kAuto candidate is costed by exactly one
  // collection-phase walk.
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
  EXPECT_EQ(walks, candidates)
      << "each candidate should walk the collection phase exactly once";
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

  // B's committed write lands between A's executes: A's mod counts are
  // stale, but the write flips no emptiness verdict and keeps employees
  // within the cardinality band, so A revalidates its plan — and the
  // revalidated plan must produce the new row.
  ASSERT_TRUE(
      b->ExecuteScript("employees :+ [<81, 'Ivy', professor>];").ok());
  auto second = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(prepared->stats().revalidations, 1u);
  EXPECT_EQ(prepared->stats().plan_compiles, 1u);
  EXPECT_EQ(second->tuples.size(), baseline_rows + 1);

  // Steady state resumes: no interleaved write, the replanned entry hits.
  auto third = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->plan_cache_hit);
  EXPECT_EQ(TupleStrings(third->tuples), TupleStrings(second->tuples));

  // A delete from B revalidates again and shrinks the visible set.
  ASSERT_TRUE(b->ExecuteScript("employees :- [<81>];").ok());
  auto fourth = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth->plan_cache_hit);
  EXPECT_EQ(prepared->stats().revalidations, 2u);
  EXPECT_EQ(fourth->tuples.size(), baseline_rows);

  // B grows employees past twice A's plan-time cardinality: the band is
  // breached, A replans, and sees every new row.
  AddEmployees(b.get(), 82, 88);
  auto fifth = prepared->Execute({{"lo", Value::MakeInt(1)}});
  ASSERT_TRUE(fifth.ok());
  EXPECT_FALSE(fifth->plan_cache_hit);
  EXPECT_EQ(prepared->stats().plan_compiles, 2u);
  EXPECT_EQ(fifth->tuples.size(), baseline_rows + 7);
}

// ---- revalidation soundness ------------------------------------------

enum class Outcome { kRevalidated, kReplanned };

/// One prepared copy of a source per strategy level (O0-O4 and AUTO), each
/// in its own session over one database. WriteThenCheck runs a write
/// script, then executes every copy: its plan must be revalidated or
/// replanned as expected, and its tuples must equal a fresh literal
/// Session::Query at the same level.
class EveryLevel {
 public:
  EveryLevel(Database* db, std::string src) : src_(std::move(src)) {
    for (int level = 0; level <= static_cast<int>(OptLevel::kAuto); ++level) {
      sessions_.push_back(std::make_unique<Session>(db));
      sessions_.back()->options().level = static_cast<OptLevel>(level);
      auto prepared = sessions_.back()->Prepare(src_);
      EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
      prepared_.push_back(std::move(*prepared));
    }
  }

  /// Returns the AUTO copy's tuples.
  std::multiset<std::string> WriteThenCheck(const std::string& script,
                                            Outcome expect) {
    if (!script.empty()) {
      Status st = sessions_[0]->ExecuteScript(script);
      EXPECT_TRUE(st.ok()) << script << ": " << st.ToString();
    }
    std::multiset<std::string> out;
    for (size_t i = 0; i < prepared_.size(); ++i) {
      const std::string where =
          script + " at " +
          std::string(OptLevelToString(sessions_[i]->options().level));
      const PreparedStats before = prepared_[i].stats();
      auto exec = prepared_[i].Execute();
      auto fresh = sessions_[i]->Query(src_);
      if (!exec.ok() || !fresh.ok()) {
        ADD_FAILURE() << where << ": " << exec.status().ToString() << " / "
                      << fresh.status().ToString();
        continue;
      }
      out = TupleStrings(fresh->tuples);
      EXPECT_EQ(TupleStrings(exec->tuples), out) << where;
      const PreparedStats& after = prepared_[i].stats();
      const bool revalidated = expect == Outcome::kRevalidated;
      EXPECT_EQ(exec->plan_cache_hit, revalidated) << where;
      EXPECT_EQ(after.revalidations - before.revalidations,
                revalidated ? 1u : 0u)
          << where;
      EXPECT_EQ(after.plan_compiles - before.plan_compiles,
                revalidated ? 0u : 1u)
          << where;
    }
    return out;
  }

 private:
  std::string src_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<PreparedQuery> prepared_;
};

// ROADMAP direction 4's guardrail: a literal extended range folds by
// Lemma 1 while empty, so every write that flips its emptiness must
// replan, and a write between flips that changes no verdict revalidates.
TEST(PlanCacheTest, LiteralExtendedRangeFlipReplansAtEveryLevel) {
  auto db = MakeUniversityDb();
  EveryLevel q(db.get(),
               "[<e.ename> OF EACH e IN employees:"
               " ALL p IN [EACH p IN papers: p.pyear = 1950] "
               "(e.enr <> p.penr)]");
  const auto vacuous = q.WriteThenCheck("", Outcome::kReplanned);
  EXPECT_EQ(vacuous.size(), 6u);
  q.WriteThenCheck("papers :+ [<5, 1976, 'P6'>];", Outcome::kRevalidated);
  const auto restricted =
      q.WriteThenCheck("papers :+ [<1, 1950, 'P7'>];", Outcome::kReplanned);
  EXPECT_EQ(restricted.count("Alice"), 0u);
  EXPECT_EQ(restricted.size(), 5u);
  q.WriteThenCheck("papers :- [<'P6', 5>];", Outcome::kRevalidated);
  EXPECT_EQ(q.WriteThenCheck("papers :- [<'P7', 1>];", Outcome::kReplanned),
            vacuous);
  q.WriteThenCheck("papers :+ [<2, 1950, 'P8'>];", Outcome::kReplanned);
}

// A base range under ALL folds by Lemma 1 while its relation is empty:
// emptying and refilling it replans, and the band applies from the
// refilled plan's cardinality on.
TEST(PlanCacheTest, EmptiedAndRefilledBaseRelationReplansAtEveryLevel) {
  auto db = MakeUniversityDb();
  EveryLevel q(db.get(),
               "[<e.ename> OF EACH e IN employees:"
               " ALL t IN timetable ((t.tenr <> e.enr) OR (t.tday = monday))]");
  q.WriteThenCheck("", Outcome::kReplanned);
  q.WriteThenCheck("timetable :- [<6, 12, monday>];", Outcome::kRevalidated);
  const auto vacuous = q.WriteThenCheck(
      "timetable :- [<1, 11, monday>]; timetable :- [<1, 12, tuesday>];"
      "timetable :- [<2, 12, monday>]; timetable :- [<3, 13, monday>];"
      "timetable :- [<4, 11, tuesday>];",
      Outcome::kReplanned);
  EXPECT_EQ(vacuous.size(), 6u);
  const auto refilled = q.WriteThenCheck(
      "timetable :+ [<1, 11, tuesday, 9001000, 'R1'>];", Outcome::kReplanned);
  EXPECT_EQ(refilled.count("Alice"), 0u);
  // 1 -> 2 elements stays within x2 of the refilled plan; 3 does not.
  q.WriteThenCheck("timetable :+ [<2, 12, monday, 9002000, 'R2'>];",
                   Outcome::kRevalidated);
  q.WriteThenCheck("timetable :+ [<3, 12, monday, 9003000, 'R3'>];",
                   Outcome::kReplanned);
}

// The band is x2 of the plan-time cardinality in both directions, and
// it is measured against the plan, not the last revalidation.
TEST(PlanCacheTest, CardinalityBandBreachReplansAtEveryLevel) {
  auto db = MakeUniversityDb();
  EveryLevel q(db.get(),
               "[<e.ename> OF EACH e IN employees:"
               " SOME p IN papers ((p.penr = e.enr) AND (p.pyear >= 1976))]");
  q.WriteThenCheck("", Outcome::kReplanned);  // 5 papers
  for (int i = 6; i <= 10; ++i) {             // up to 2 x 5
    q.WriteThenCheck("papers :+ [<5, 1978, 'Q" + std::to_string(i) + "'>];",
                     Outcome::kRevalidated);
  }
  q.WriteThenCheck("papers :+ [<6, 1978, 'Q11'>];", Outcome::kReplanned);
  for (int i = 11; i >= 7; --i) {  // 11 papers down to 6: 2 x 6 >= 11
    const std::string penr = i == 11 ? "6" : "5";
    q.WriteThenCheck("papers :- [<'Q" + std::to_string(i) + "', " + penr +
                         ">];",
                     Outcome::kRevalidated);
  }
  q.WriteThenCheck("papers :- [<'Q6', 5>];", Outcome::kReplanned);
}

}  // namespace
}  // namespace pascalr
