// Experiment E4.4/E4.5: strategy 3 — extended range
// expressions. The claims (paper §4.3):
//  - the cardinality of range relations has a very strong impact: moving
//    monadic terms into the range shrinks every downstream structure;
//  - the largest profit arises for a *universally quantified* variable:
//    one conjunction less to evaluate and a much smaller division.
//
// Expected shape: O3 beats O2 increasingly as the range restrictions get
// more selective (smaller professor / 1977 / sophomore fractions), and
// the division input shrinks by roughly the 1977-fraction.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace pascalr {
namespace {

using bench_util::ExportStats;
using bench_util::MustRun;

std::unique_ptr<Database> DbWithFractions(size_t n, double selective) {
  auto db = std::make_unique<Database>();
  if (!CreateUniversitySchema(db.get()).ok()) std::abort();
  UniversityScale scale;
  scale.employees = n;
  scale.papers = 2 * n;
  scale.courses = n / 2 + 1;
  scale.timetable = 3 * n;
  scale.professor_fraction = selective;
  scale.papers_1977_fraction = selective;
  scale.sophomore_fraction = selective;
  if (!PopulateSynthetic(db.get(), scale).ok()) std::abort();
  return db;
}

void RunAtSelectivity(benchmark::State& state, OptLevel level) {
  size_t n = static_cast<size_t>(state.range(0));
  double selective = static_cast<double>(state.range(1)) / 100.0;
  auto db = DbWithFractions(n, selective);
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, Example21QuerySource(), level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
  state.counters["selectivity_pct"] = static_cast<double>(state.range(1));
  state.counters["conjunctions"] =
      static_cast<double>(last.planned.plan.sf.matrix.disjuncts.size());
}

void BM_S3_UnextendedRanges(benchmark::State& state) {
  RunAtSelectivity(state, OptLevel::kOneStep);
}
void BM_S3_ExtendedRanges(benchmark::State& state) {
  RunAtSelectivity(state, OptLevel::kRangeExt);
}

// Example 2.1 contains a universal quantifier, so the combination phase
// still divides at both levels; scales stay moderate.
BENCHMARK(BM_S3_UnextendedRanges)
    ->Args({12, 20})
    ->Args({12, 40})
    ->Args({12, 80})
    ->Args({24, 40})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S3_ExtendedRanges)
    ->Args({12, 20})
    ->Args({12, 40})
    ->Args({12, 80})
    ->Args({24, 40})
    ->Args({48, 40})
    ->Unit(benchmark::kMillisecond);

// Strategy 2 vs strategy 3 on Example 4.4's sub-expression: the paper
// notes both achieve the same reduction there; the difference appears in
// whole-query handling (above), not in this isolated conjunction.
const char* kExample44 =
    "[<c.ctitle> OF EACH c IN courses: (c.clevel <= sophomore) AND "
    "SOME t IN timetable ((c.cnr = t.tcnr))]";

void BM_S3_Example44_Strategy2(benchmark::State& state) {
  auto db = bench_util::MakeScaledDb(static_cast<size_t>(state.range(0)));
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, kExample44, OptLevel::kOneStep);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
}

void BM_S3_Example44_Strategy3(benchmark::State& state) {
  auto db = bench_util::MakeScaledDb(static_cast<size_t>(state.range(0)));
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, kExample44, OptLevel::kRangeExt);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
}

BENCHMARK(BM_S3_Example44_Strategy2)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S3_Example44_Strategy3)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pascalr
