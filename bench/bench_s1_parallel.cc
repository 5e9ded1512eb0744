// Experiment E4.1/E4.3: strategy 1 — parallel evaluation of
// subexpressions. The claim (paper §4.1): grouping all join terms over a
// relation into one scan reads each database relation at most once, where
// the naive plan reads it once per term.
//
// Expected shape: O1's relations_read is exactly 4 (the number of
// relations) at every scale; O0's is larger and term-count-dependent.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

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
}

void BM_S1_NaiveScans(benchmark::State& state) {
  RunExample21(state, OptLevel::kNaive);
}

void BM_S1_OneScanPerRelation(benchmark::State& state) {
  RunExample21(state, OptLevel::kParallel);
}

// The naive level's combination phase materialises full n-tuple products;
// keep its scales small. O1 shares that combination strategy, so the same
// scales are used for a like-for-like collection-phase comparison.
BENCHMARK(BM_S1_NaiveScans)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S1_OneScanPerRelation)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

// Collection-phase-only comparison at larger scales: a query with no
// universal quantifier and a selective matrix keeps combination small, so
// the scan-count difference dominates.
void RunScanHeavy(benchmark::State& state, OptLevel level) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  // Four terms over employees + two over timetable: the naive plan scans
  // employees four times and timetable three times.
  const std::string query =
      "[<e.ename> OF EACH e IN employees: "
      "(e.estatus = professor) AND (e.enr >= 1) AND (e.ename <> 'E0') AND "
      "SOME t IN timetable ((t.tenr = e.enr) AND (t.ttime >= 9000000))]";
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, query, level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
}

void BM_S1_ScanHeavy_Naive(benchmark::State& state) {
  RunScanHeavy(state, OptLevel::kNaive);
}
void BM_S1_ScanHeavy_Parallel(benchmark::State& state) {
  RunScanHeavy(state, OptLevel::kParallel);
}

BENCHMARK(BM_S1_ScanHeavy_Naive)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S1_ScanHeavy_Parallel)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pascalr
