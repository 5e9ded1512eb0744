// Experiment E4.2: strategy 2 — one-step evaluation of nested
// subexpressions. The claim (paper §4.2): monadic terms gate indirect-join
// emission during the scan, so intermediate reference structures shrink
// with the monadic selectivity; single lists need not be materialised.
//
// Expected shape: O2's ij_refs ≈ selectivity × O1's ij_refs; the win grows
// as the monadic predicate gets more selective.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace pascalr {
namespace {

using bench_util::ExportStats;
using bench_util::MustRun;

std::unique_ptr<Database> DbWithProfessorFraction(size_t n, double fraction) {
  auto db = std::make_unique<Database>();
  if (!CreateUniversitySchema(db.get()).ok()) std::abort();
  UniversityScale scale;
  scale.employees = n;
  scale.papers = 2 * n;
  scale.courses = n / 2 + 1;
  scale.timetable = 3 * n;
  scale.professor_fraction = fraction;
  if (!PopulateSynthetic(db.get(), scale).ok()) std::abort();
  return db;
}

// Monadic term over e gates the dyadic probe into timetable.
const char* kGatedQuery =
    "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND "
    "SOME t IN timetable ((t.tenr = e.enr))]";

void RunGated(benchmark::State& state, OptLevel level) {
  size_t n = static_cast<size_t>(state.range(0));
  double fraction = static_cast<double>(state.range(1)) / 100.0;
  auto db = DbWithProfessorFraction(n, fraction);
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, kGatedQuery, level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
  state.counters["professor_pct"] = static_cast<double>(state.range(1));
}

void BM_S2_SeparateLists(benchmark::State& state) {
  RunGated(state, OptLevel::kParallel);
}
void BM_S2_OneStepGating(benchmark::State& state) {
  RunGated(state, OptLevel::kOneStep);
}

BENCHMARK(BM_S2_SeparateLists)
    ->Args({500, 5})
    ->Args({500, 30})
    ->Args({500, 90})
    ->Args({2000, 30})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S2_OneStepGating)
    ->Args({500, 5})
    ->Args({500, 30})
    ->Args({500, 90})
    ->Args({2000, 30})
    ->Unit(benchmark::kMillisecond);

// Mutual restriction: two dyadic terms over e; each probe only emits when
// the other side also matches (semi-join reduction).
const char* kMutualQuery =
    "[<e.ename> OF EACH e IN employees: "
    "SOME t IN timetable ((t.tenr = e.enr)) AND "
    "SOME p IN papers ((p.penr = e.enr) AND (p.pyear = 1977))]";

void RunMutual(benchmark::State& state, OptLevel level) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = bench_util::MakeScaledDb(n);
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, kMutualQuery, level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
}

void BM_S2_NoMutualRestriction(benchmark::State& state) {
  RunMutual(state, OptLevel::kParallel);
}
void BM_S2_MutualRestriction(benchmark::State& state) {
  RunMutual(state, OptLevel::kOneStep);
}

BENCHMARK(BM_S2_NoMutualRestriction)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_S2_MutualRestriction)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pascalr
