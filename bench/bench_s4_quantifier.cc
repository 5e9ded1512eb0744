// Experiment E4.6/E4.7: strategy 4 — quantifier evaluation in
// the collection phase. The claims (paper §4.4):
//  - moving the quantifier into the matrix replaces the combination-phase
//    blow-up (build n-tuples, then divide/project them away) by one value
//    list plus per-element probes;
//  - for < / <= only a max (SOME) or min (ALL) need be stored; for = with
//    ALL or <> with SOME at most one value suffices.
//
// Expected shape: O4 eliminates division entirely (division_rows = 0) and
// wins by a growing factor as the quantified relation grows; summary value
// lists store O(1) values where the full list stores O(n).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "refstruct/value_list.h"

namespace pascalr {
namespace {

using bench_util::ExportStats;
using bench_util::MakeScaledDb;
using bench_util::MustRun;

void RunExample21(benchmark::State& state, OptLevel level) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, Example21QuerySource(), level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
  state.counters["eliminated"] =
      static_cast<double>(last.planned.plan.eliminated_vars.size());
}

void BM_S4_DivisionBased(benchmark::State& state) {
  RunExample21(state, OptLevel::kRangeExt);
}
void BM_S4_CollectionPhaseQuantifiers(benchmark::State& state) {
  RunExample21(state, OptLevel::kQuantPush);
}

BENCHMARK(BM_S4_DivisionBased)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S4_CollectionPhaseQuantifiers)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(2000)  // O4 keeps scaling where division-based plans cannot
    ->Unit(benchmark::kMillisecond);

// The ordering special case: SOME with '<' needs only the maximum.
const char* kOrderingQuery =
    "[<e.ename> OF EACH e IN employees: SOME p IN papers "
    "((e.enr < p.penr))]";

void BM_S4_OrderingProbe(benchmark::State& state) {
  auto db = MakeScaledDb(static_cast<size_t>(state.range(0)));
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, kOrderingQuery, OptLevel::kQuantPush);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
  // The value list must be a summary: at most 1 stored value.
  double stored = 0;
  for (const ValueList& vl : last.collection.value_lists) {
    stored += static_cast<double>(vl.stored_values());
  }
  state.counters["stored_values"] = stored;
}

BENCHMARK(BM_S4_OrderingProbe)
    ->Arg(500)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// Micro-benchmark of the value-list modes themselves: building and probing
// a list of n values.
void BM_S4_ValueListMode(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto mode = static_cast<ValueList::Mode>(state.range(1));
  for (auto _ : state) {
    ValueList vl(mode);
    for (size_t i = 0; i < n; ++i) {
      vl.Add(Value::MakeInt(static_cast<int64_t>(i % 97)));
    }
    bool acc = false;
    for (size_t i = 0; i < 100; ++i) {
      CompareOp op =
          mode == ValueList::Mode::kMaxOnly ? CompareOp::kLt : CompareOp::kEq;
      Result<bool> r = mode == ValueList::Mode::kMaxOnly
                           ? vl.SatisfiesSome(op, Value::MakeInt(50))
                           : vl.SatisfiesSome(CompareOp::kEq,
                                              Value::MakeInt(50));
      if (r.ok()) acc ^= *r;
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(vl.stored_values());
  }
  state.counters["mode"] = static_cast<double>(state.range(1));
}

BENCHMARK(BM_S4_ValueListMode)
    ->Args({10000, static_cast<int>(ValueList::Mode::kFull)})
    ->Args({10000, static_cast<int>(ValueList::Mode::kMaxOnly)})
    ->Args({100000, static_cast<int>(ValueList::Mode::kFull)})
    ->Args({100000, static_cast<int>(ValueList::Mode::kMaxOnly)});

}  // namespace
}  // namespace pascalr
