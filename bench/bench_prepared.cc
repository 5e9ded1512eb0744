// Prepared queries: cold Query() (parse + bind + plan search + execute,
// every call) vs. prepared re-execution (patch the cached plan's
// parameter slots and run). The difference is the per-execution planning
// overhead the Prepare/Execute split exists to amortise — the acceptance
// bar is >=10x less of it per execution on the cached path.
//
// Expected shape:
//  - BM_ColdQuery carries the full kAuto plan search per iteration
//    (`plan_searches_per_iter` ≈ 1, `parses_per_iter` ≈ 1);
//  - BM_PreparedReexecute pays it once, outside the loop
//    (both counters 0 per iteration, `cache_hit` = 1);
//  - BM_PreparedCursorFirstTuple additionally skips construction work for
//    tuples nobody fetches.
//
// The work counters of BM_ColdQuery and BM_PreparedReexecute come from
// one untimed statement after the timed loop, with the fixed literal
// `top = n / 2`: a timed iteration's literal depends on how many
// iterations ran, so its counters would too.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "base/counters.h"
#include "bench/bench_util.h"

namespace pascalr {
namespace {

using bench_util::ExportStats;
using bench_util::MakeScaledDb;

// The parameterized workload: a join whose restriction changes per
// iteration, the host-program loop of the paper's §2.
std::string ParamQuerySource() {
  return "[<e.ename> OF EACH e IN employees:"
         " (e.enr <= $top) AND SOME t IN timetable (e.enr = t.tenr)]";
}

std::string LiteralQuerySource(int64_t top) {
  return "[<e.ename> OF EACH e IN employees:"
         " (e.enr <= " +
         std::to_string(top) +
         ") AND SOME t IN timetable (e.enr = t.tenr)]";
}

void BM_ColdQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  if (!db->AnalyzeAll().ok()) std::abort();
  Session session(db.get());
  session.options().level = OptLevel::kAuto;
  CompileCounters before = GlobalCompileCounters();
  int64_t top = 0;
  for (auto _ : state) {
    top = 1 + (top + 7) % static_cast<int64_t>(n);
    auto run = session.Query(LiteralQuerySource(top));
    if (!run.ok()) std::abort();
    benchmark::DoNotOptimize(run->tuples);
  }
  const CompileCounters& now = GlobalCompileCounters();
  double iters = static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["parses_per_iter"] =
      static_cast<double>(now.parses - before.parses) / iters;
  state.counters["plan_searches_per_iter"] =
      static_cast<double>(now.plan_searches - before.plan_searches) / iters;
  auto fixed = session.Query(LiteralQuerySource(static_cast<int64_t>(n / 2)));
  if (!fixed.ok()) std::abort();
  ExportStats(state, fixed->stats, fixed->tuples.size());
}

void BM_PreparedReexecute(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  if (!db->AnalyzeAll().ok()) std::abort();
  Session session(db.get());
  session.options().level = OptLevel::kAuto;
  auto prepared = session.Prepare(ParamQuerySource());
  if (!prepared.ok()) std::abort();
  // Pay for planning once, before the measured loop.
  if (!prepared->Execute({{"top", Value::MakeInt(1)}}).ok()) std::abort();

  CompileCounters before = GlobalCompileCounters();
  int64_t top = 0;
  bool all_hits = true;
  for (auto _ : state) {
    top = 1 + (top + 7) % static_cast<int64_t>(n);
    auto exec = prepared->Execute({{"top", Value::MakeInt(top)}});
    if (!exec.ok()) std::abort();
    all_hits = all_hits && exec->plan_cache_hit;
    benchmark::DoNotOptimize(exec->tuples);
  }
  const CompileCounters& now = GlobalCompileCounters();
  double iters = static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["parses_per_iter"] =
      static_cast<double>(now.parses - before.parses) / iters;
  state.counters["plan_searches_per_iter"] =
      static_cast<double>(now.plan_searches - before.plan_searches) / iters;
  state.counters["cache_hit"] = all_hits ? 1.0 : 0.0;
  auto fixed = prepared->Execute(
      {{"top", Value::MakeInt(static_cast<int64_t>(n / 2))}});
  if (!fixed.ok()) std::abort();
  ExportStats(state, fixed->stats, fixed->tuples.size());
}

void BM_PreparedCursorFirstTuple(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  if (!db->AnalyzeAll().ok()) std::abort();
  Session session(db.get());
  session.options().level = OptLevel::kAuto;
  auto prepared = session.Prepare(ParamQuerySource());
  if (!prepared.ok()) std::abort();
  if (!prepared->Execute({{"top", Value::MakeInt(1)}}).ok()) std::abort();

  int64_t top = 0;
  uint64_t fetched = 0;
  for (auto _ : state) {
    top = 1 + (top + 7) % static_cast<int64_t>(n);
    auto cursor = prepared->OpenCursor({{"top", Value::MakeInt(top)}});
    if (!cursor.ok()) std::abort();
    Tuple t;
    auto more = cursor->Next(&t);
    if (!more.ok()) std::abort();
    if (*more) ++fetched;
    cursor->Close();
    benchmark::DoNotOptimize(t);
  }
  state.counters["fetched"] = static_cast<double>(fetched);
}

BENCHMARK(BM_ColdQuery)->Arg(16)->Arg(200)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PreparedReexecute)
    ->Arg(16)
    ->Arg(200)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PreparedCursorFirstTuple)
    ->Arg(200)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pascalr
