// Cost-based strategy selection (OptLevel::kAuto): the auto planner pays a
// plan-search overhead (one normalization, then at most one compilation and
// costing per strategy level and permanent-index choice) and should buy
// back a near-best execution.
//
// Expected shape:
//  - auto's measured total_work tracks the best fixed level (the regret
//    the acceptance test bounds at 1.25x);
//  - the search overhead is flat in data size, so auto's wall-clock
//    converges to the best level's as n grows;
//  - `chosen_level` exposes the decision for the record.
//
// BM_PlanSearch times the search alone (PlanQuery under kAuto, nothing
// executed) over a fixed set of generated selections: the cold-statement
// cost a plan-cache miss pays. The set comes from tests/query_gen.h, whose
// draw order the golden table of plan_search_equivalence_test pins, so it
// does not shift unnoticed.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "semantics/binder.h"
#include "tests/query_gen.h"

namespace pascalr {
namespace {

using bench_util::ExportStats;
using bench_util::MakeScaledDb;
using bench_util::MustRun;
using bench_util::MustRunOptions;

void BM_Auto_Example21(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  if (!db->AnalyzeAll().ok()) std::abort();
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  QueryRun last;
  const CompileCounters before = GlobalCompileCounters();
  for (auto _ : state) {
    last = MustRunOptions(*db, Example21QuerySource(), options);
    benchmark::DoNotOptimize(last.tuples);
  }
  const CompileCounters after = GlobalCompileCounters();
  ExportStats(state, last.stats, last.tuples.size());
  state.counters["chosen_level"] =
      static_cast<double>(static_cast<int>(last.planned.plan.level));
  state.counters["estimated_work"] =
      static_cast<double>(last.planned.estimate.predicted.TotalWork());
  // The search's own work, per search: a deterministic gate on the size
  // of the candidate space (bench_compare.py flags growth).
  const double searches = static_cast<double>(after.plan_searches -
                                              before.plan_searches);
  state.counters["plans_per_search"] =
      static_cast<double>(after.plans - before.plans) / searches;
  state.counters["collection_walks_per_search"] =
      static_cast<double>(after.collection_walks - before.collection_walks) /
      searches;
  state.counters["standard_forms_per_search"] =
      static_cast<double>(after.standard_forms - before.standard_forms) /
      searches;
}

void BM_Fixed_Example21(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto level = static_cast<OptLevel>(state.range(1));
  auto db = MakeScaledDb(n);
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, Example21QuerySource(), level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
  state.counters["chosen_level"] = static_cast<double>(state.range(1));
}

// Auto vs every fixed level at small scale, vs the feasible levels as the
// database grows (O0/O1 blow up combinatorially).
BENCHMARK(BM_Auto_Example21)
    ->Arg(16)
    ->Arg(48)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fixed_Example21)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 3})
    ->Args({16, 4})
    ->Args({48, 3})
    ->Args({48, 4})
    ->Args({200, 4})
    ->Args({1000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PlanSearch(benchmark::State& state) {
  auto db = MakeScaledDb(64);
  if (!db->AnalyzeAll().ok()) std::abort();
  // 16 selections of each generated shape, bound once.
  std::vector<BoundQuery> queries;
  testing_util::QueryGenerator gen(1);
  Binder binder(db.get());
  for (size_t i = 0; i < 16; ++i) {
    SelectionExpr shapes[] = {gen.RandomSelection(3),
                              gen.RandomSelectionTwoFree(2),
                              gen.RandomChainSelection(3 + i % 3),
                              gen.RandomStarSelection(2 + i % 3),
                              gen.RandomCycleSelection(3 + i % 2),
                              gen.RandomAllOverConjunction()};
    for (SelectionExpr& sel : shapes) {
      Result<BoundQuery> bound = binder.Bind(std::move(sel));
      if (!bound.ok()) std::abort();
      queries.push_back(std::move(bound).value());
    }
  }
  PlannerOptions options;
  options.level = OptLevel::kAuto;
  const CompileCounters before = GlobalCompileCounters();
  for (auto _ : state) {
    for (const BoundQuery& query : queries) {
      Result<PlannedQuery> planned =
          PlanQuery(*db, CloneBoundQuery(query), options);
      if (!planned.ok()) std::abort();
      benchmark::DoNotOptimize(planned->estimate.weighted_cost);
    }
  }
  const CompileCounters after = GlobalCompileCounters();
  const double searches = static_cast<double>(after.plan_searches -
                                              before.plan_searches);
  state.SetItemsProcessed(static_cast<int64_t>(searches));
  state.counters["plans_per_search"] =
      static_cast<double>(after.plans - before.plans) / searches;
  state.counters["collection_walks_per_search"] =
      static_cast<double>(after.collection_walks - before.collection_walks) /
      searches;
}

BENCHMARK(BM_PlanSearch)->Unit(benchmark::kMicrosecond);

// ANALYZE itself: one scan per relation; the price of fresh statistics.
void BM_Analyze(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  // Touch a relation each iteration so ANALYZE cannot shortcut on a
  // fresh cache.
  Relation* employees = db->FindRelation("employees");
  int64_t next = static_cast<int64_t>(n) + 1000000;
  for (auto _ : state) {
    (void)employees->Insert(Tuple{Value::MakeInt(next++),
                                  Value::MakeString("X"),
                                  Value::MakeEnum(0)});
    if (!db->AnalyzeAll().ok()) std::abort();
    benchmark::DoNotOptimize(db->FindFreshStats("employees"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(6 * n + 2));
}

BENCHMARK(BM_Analyze)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pascalr
