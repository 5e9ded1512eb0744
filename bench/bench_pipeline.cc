// Experiment Q (DESIGN.md): the headline series — the full Example 2.1
// query at every optimization level O0..O4 over growing scale factors —
// plus the streamed-vs-materialized combination comparison
// (RunCombination): total drain time, time-to-first-tuple, and
// peak_intermediate_rows for the join-iterator pipeline (src/pipeline/)
// against the materializing combination path over the same plan.
//
// Expected shape (paper §4, overall claim): the naive combination phase
// grows with the *product* of the range cardinalities while O1..O4 stay
// near-linear; each added strategy reduces total work, with the largest
// single step from O3/O4's treatment of the universal quantifier. For
// RunCombination: the pipelined first tuple arrives in near-constant time
// past the collection phase, and the pipelined peak stays flat while the
// materialized peak grows with the joined result.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "exec/collection.h"
#include "exec/cursor.h"
#include "obs/stmt_stats.h"
#include "pipeline/chunk.h"
#include "pipeline/compile.h"
#include "pipeline/iterators.h"
#include "tests/materialized_reference.h"

namespace pascalr {
namespace {

using bench_util::ExportLatencyPercentiles;
using bench_util::ExportStats;
using bench_util::MakeScaledDb;
using bench_util::MustRun;

void RunPipeline(benchmark::State& state) {
  OptLevel level = static_cast<OptLevel>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  auto db = MakeScaledDb(n);
  QueryRun last;
  for (auto _ : state) {
    last = MustRun(*db, Example21QuerySource(), level);
    benchmark::DoNotOptimize(last.tuples);
  }
  ExportStats(state, last.stats, last.tuples.size());
  state.SetLabel(std::string(OptLevelToString(level)));
}

BENCHMARK(RunPipeline)
    // O0: the full n-tuple products cap the feasible scale.
    ->Args({0, 8})
    ->Args({0, 16})
    ->Args({0, 24})
    ->Args({1, 8})
    ->Args({1, 16})
    ->Args({1, 24})
    ->Args({2, 8})
    ->Args({2, 16})
    ->Args({2, 24})
    ->Args({2, 32})
    ->Args({3, 8})
    ->Args({3, 16})
    ->Args({3, 24})
    ->Args({3, 48})
    ->Args({3, 64})
    ->Args({4, 8})
    ->Args({4, 16})
    ->Args({4, 24})
    ->Args({4, 48})
    ->Args({4, 96})
    ->Args({4, 1000})
    ->Args({4, 4000})
    ->Unit(benchmark::kMillisecond);

// Streamed vs materialized combination over one compiled plan: the
// two-free-variable join (Example 2.1's shape without the quantifier
// tail), whose result grows with the matching (e, c) pairs.
//   mode 0: the paper's materialized reference (collection,
//           ExecuteCombination, construction), full result
//   mode 1: pipelined Cursor, full drain
//   mode 2: pipelined Cursor, first tuple only (time-to-first-tuple)
void RunCombination(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int mode = static_cast<int>(state.range(1));
  auto db = MakeScaledDb(n);
  const std::string query =
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]";
  Parser parser(query);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  if (!planned.ok()) std::abort();
  auto plan = std::make_shared<const QueryPlan>(std::move(planned->plan));

  ExecStats last;
  size_t results = 0;
  for (auto _ : state) {
    if (mode == 0) {
      Result<testing_util::MaterializedRun> run =
          testing_util::RunMaterialized(*plan, *db);
      if (!run.ok()) std::abort();
      results = run->tuples.size();
      last = run->stats;
      benchmark::DoNotOptimize(results);
      continue;
    }
    Result<Cursor> cursor = Cursor::Open(plan, *db, nullptr);
    if (!cursor.ok()) std::abort();
    Tuple t;
    results = 0;
    while (true) {
      Result<bool> more = cursor->Next(&t);
      if (!more.ok()) std::abort();
      if (!*more) break;
      ++results;
      if (mode == 2) break;  // time-to-first-tuple
    }
    last = cursor->stats();
    cursor->Close();
    benchmark::DoNotOptimize(results);
  }
  ExportStats(state, last, results);
  state.SetLabel(mode == 0   ? "materialized"
                 : mode == 1 ? "pipelined"
                             : "pipelined-first-tuple");
}

BENCHMARK(RunCombination)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Unit(benchmark::kMicrosecond);

// Collection plus drain over one compiled pipelined plan, full drain vs
// time-to-first-tuple, on a >=3-input conjunction (sl(c) x ij(c,t) x
// ij(e,t) at O2). The cursor builds every structure at Open, so the
// first-tuple run pays the whole collection phase and `structure_elements`
// is the same in both modes.
//   mode 0: full drain
//   mode 2: first tuple only
void RunCollection(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int mode = static_cast<int>(state.range(1));
  auto db = MakeScaledDb(n);
  const std::string query =
      "[<e.ename> OF EACH e IN employees:"
      " SOME c IN courses SOME t IN timetable"
      " ((c.clevel <= sophomore) AND (c.cnr = t.tcnr) AND"
      "  (e.enr = t.tenr))]";
  Parser parser(query);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  if (!planned.ok()) std::abort();
  auto plan = std::make_shared<const QueryPlan>(std::move(planned->plan));

  ExecStats last;
  size_t results = 0;
  for (auto _ : state) {
    Result<Cursor> cursor = Cursor::Open(plan, *db, nullptr);
    if (!cursor.ok()) std::abort();
    Tuple t;
    results = 0;
    while (true) {
      Result<bool> more = cursor->Next(&t);
      if (!more.ok()) std::abort();
      if (!*more) break;
      ++results;
      if (mode == 2) break;  // time-to-first-tuple
    }
    last = cursor->stats();
    cursor->Close();
    benchmark::DoNotOptimize(results);
  }
  ExportStats(state, last, results);
  state.SetLabel(mode == 2 ? "first-tuple" : "drain");
}

BENCHMARK(RunCollection)
    ->Args({16, 0})
    ->Args({16, 2})
    ->Args({64, 0})
    ->Args({64, 2})
    ->Args({256, 0})
    ->Args({256, 2})
    ->Unit(benchmark::kMicrosecond);

// Vectorized drain sweep: the compiled pipeline root drained directly —
// no per-tuple construction, so the timing isolates exactly what
// batching changes (virtual dispatch + per-row bookkeeping per pull).
// The collection phase is hoisted out of the timing loop: every mode
// drains the same prebuilt structures. Batch k pulls k-row chunks;
// batch 1 is the row-at-a-time point.
// Expected shape: throughput climbs steeply from batch 1 to ~64 and
// flattens by 1024 (the default) — the ISSUE's >=2x single-thread win.
void RunBatchSweep(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t batch = static_cast<size_t>(state.range(1));
  auto db = MakeScaledDb(n);
  const std::string query =
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]";
  Parser parser(query);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.batch_size = batch;
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  if (!planned.ok()) std::abort();
  const QueryPlan plan = std::move(planned->plan);

  ExecStats coll_stats;
  CollectionBuilders builders(plan, *db, &coll_stats);
  if (!builders.EnsureAll().ok()) std::abort();

  ExecStats last;
  size_t results = 0;
  for (auto _ : state) {
    ExecStats stats;
    PeakTracker tracker(&stats);
    Result<CompiledPipeline> compiled =
        CompilePipeline(plan, &builders, &stats, &tracker);
    if (!compiled.ok()) std::abort();
    results = 0;
    Chunk chunk;
    chunk.capacity = batch;
    while (true) {
      Result<bool> more = compiled->root->NextBatch(&chunk);
      if (!more.ok()) std::abort();
      if (!*more) break;
      results += chunk.rows;
    }
    last = stats;
    benchmark::DoNotOptimize(results);
  }
  ExportStats(state, last, results);
  state.SetLabel("batch=" + std::to_string(batch));
}

BENCHMARK(RunBatchSweep)
    ->Args({256, 1})
    ->Args({256, 64})
    ->Args({256, 256})
    ->Args({256, 1024})
    ->Args({256, 4096})
    ->Args({1000, 1024})
    ->Unit(benchmark::kMicrosecond);

// The vectorized-kernel win in isolation: the same operator drained in
// 1-row chunks (one virtual NextBatch per row) against 1024-row chunks,
// paired inside one benchmark so the ratio is taken under identical
// conditions. The full-query sweep above dilutes
// the win with per-row sink work (dedup hashing, construction) that
// batching cannot amortize; this is the number the chunk layer itself
// is responsible for. batch_speedup_rate = one_row_ns / batch_ns.
void RunOperatorBatchWin(benchmark::State& state) {
  const bool filter_kind = state.range(0) != 0;
  const size_t rows = static_cast<size_t>(state.range(1));
  RefRelation scan_rel = RefRelation::SingleList("a");
  RefRelation stream = RefRelation::IndirectJoin("a", "b");
  RefRelation member = RefRelation::IndirectJoin("a", "b");
  if (filter_kind) {
    for (uint32_t i = 0; i < rows; ++i) {
      stream.Add({Ref{1, i, 1}, Ref{2, i, 1}});
      if (i % 2 == 0) member.Add({Ref{1, i, 1}, Ref{2, i, 1}});
    }
  } else {
    for (uint32_t i = 0; i < rows; ++i) scan_rel.Add({Ref{1, i, 1}});
  }
  ExecStats stats;
  auto make = [&]() -> RefIteratorPtr {
    if (filter_kind) {
      return std::make_unique<FilterIter>(std::make_unique<ScanIter>(&stream),
                                          &member, std::vector<int>{0, 1},
                                          &stats);
    }
    return std::make_unique<ScanIter>(&scan_rel);
  };
  auto drain = [&](bool batched) -> uint64_t {
    RefIteratorPtr it = make();
    const auto t0 = std::chrono::steady_clock::now();
    size_t drained = 0;
    Chunk chunk;
    while (true) {
      chunk.capacity = batched ? Chunk::kDefaultRows : 1;
      Result<bool> more = it->NextBatch(&chunk);
      if (!more.ok()) std::abort();
      if (!*more) break;
      drained += chunk.rows;
    }
    benchmark::DoNotOptimize(drained);
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  uint64_t ns_row = 0;
  uint64_t ns_batch = 0;
  bool row_first = true;
  for (auto _ : state) {
    if (row_first) {
      ns_row += drain(false);
      ns_batch += drain(true);
    } else {
      ns_batch += drain(true);
      ns_row += drain(false);
    }
    row_first = !row_first;
  }
  state.counters["batch_speedup_rate"] =
      ns_batch == 0 ? 0.0
                    : static_cast<double>(ns_row) /
                          static_cast<double>(ns_batch);
  state.SetLabel(filter_kind ? "membership filter, 1-row vs 1024-row chunks"
                             : "single-list scan, 1-row vs 1024-row chunks");
}

BENCHMARK(RunOperatorBatchWin)
    ->Args({0, 200000})
    ->Args({1, 50000})
    ->Unit(benchmark::kMicrosecond);

// Cursor companion of RunBatchSweep: the same plan drained the way a
// client drains it — Cursor::Open (collection phase), Next to the end
// (combination + construction), Close — so the timing includes
// collection and construction, and batches_emitted and the collection
// counters are recorded (the root-only drain above leaves them at 0).
// Batch 1 drains 1-row chunks.
void RunBatchSweepCursor(benchmark::State& state) {
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  options.batch_size = static_cast<size_t>(state.range(1));
  auto db = MakeScaledDb(static_cast<size_t>(state.range(0)));
  Parser parser(
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]");
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  if (!planned.ok()) std::abort();
  auto plan = std::make_shared<const QueryPlan>(std::move(planned->plan));

  ExecStats last;
  size_t results = 0;
  for (auto _ : state) {
    Result<Cursor> cursor = Cursor::Open(plan, *db, nullptr);
    if (!cursor.ok()) std::abort();
    Tuple t;
    results = 0;
    while (true) {
      Result<bool> more = cursor->Next(&t);
      if (!more.ok()) std::abort();
      if (!*more) break;
      ++results;
    }
    last = cursor->stats();
    cursor->Close();
    benchmark::DoNotOptimize(results);
  }
  ExportStats(state, last, results);
  state.SetLabel("cursor, batch=" + std::to_string(options.batch_size));
}

BENCHMARK(RunBatchSweepCursor)
    ->Args({256, 1})
    ->Args({256, 64})
    ->Args({256, 1024})
    ->Args({1000, 1})
    ->Args({1000, 1024})
    ->Unit(benchmark::kMicrosecond);

// Tail-latency exhibit: per-iteration drain latency of the streamed
// combination recorded into the obs/ latency histogram, exported as
// p50/p95/p99/max into BENCH_*.json. Mean-only timing hides the replans
// and cold builds; the percentiles record them.
void RunDrainLatency(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  const std::string query =
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]";
  Parser parser(query);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  if (!planned.ok()) std::abort();
  auto plan = std::make_shared<const QueryPlan>(std::move(planned->plan));

  LatencyHistogram latency;
  ExecStats last;
  size_t results = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<Cursor> cursor = Cursor::Open(plan, *db, nullptr);
    if (!cursor.ok()) std::abort();
    Tuple t;
    results = 0;
    while (true) {
      Result<bool> more = cursor->Next(&t);
      if (!more.ok()) std::abort();
      if (!*more) break;
      ++results;
    }
    last = cursor->stats();
    cursor->Close();
    latency.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    benchmark::DoNotOptimize(results);
  }
  ExportStats(state, last, results);
  ExportLatencyPercentiles(state, latency, "latency_us");
  state.SetLabel("pipelined-drain");
}

BENCHMARK(RunDrainLatency)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// Overhead gate for the always-on statement statistics (PR invariant:
// collection stays off the hot row path — ONE fold per statement, at
// drain end). Pairs of drains run back to back, one bare and one
// followed by the StmtStatsStore fold every statement pays, with the
// order alternating to cancel cache-warmth drift; the exported
// fold_overhead_pct is the relative cost of the folded half and CI
// fails the smoke run when it exceeds 5%.
void RunStmtStatsFoldOverhead(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto db = MakeScaledDb(n);
  const std::string query =
      "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses:"
      " SOME t IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]";
  Parser parser(query);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(db.get());
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  PlannerOptions options;
  options.level = OptLevel::kOneStep;
  Result<PlannedQuery> planned =
      PlanQuery(*db, std::move(bound).value(), options);
  if (!planned.ok()) std::abort();
  auto plan = std::make_shared<const QueryPlan>(std::move(planned->plan));

  StmtStatsStore store;
  auto drain = [&](bool fold) -> uint64_t {
    const auto t0 = std::chrono::steady_clock::now();
    Result<Cursor> cursor = Cursor::Open(plan, *db, nullptr);
    if (!cursor.ok()) std::abort();
    Tuple t;
    uint64_t rows = 0;
    while (true) {
      Result<bool> more = cursor->Next(&t);
      if (!more.ok()) std::abort();
      if (!*more) break;
      ++rows;
    }
    const ExecStats stats = cursor->stats();
    cursor->Close();
    if (fold) {
      StmtObservation obs;
      obs.latency_us = 1;
      obs.rows = rows;
      obs.stats = &stats;
      store.Fold(query, obs);
    }
    benchmark::DoNotOptimize(rows);
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  uint64_t ns_bare = 0;
  uint64_t ns_folded = 0;
  bool bare_first = true;
  for (auto _ : state) {
    if (bare_first) {
      ns_bare += drain(false);
      ns_folded += drain(true);
    } else {
      ns_folded += drain(true);
      ns_bare += drain(false);
    }
    bare_first = !bare_first;
  }
  const double overhead_pct =
      ns_bare == 0 ? 0.0
                   : (static_cast<double>(ns_folded) -
                      static_cast<double>(ns_bare)) *
                         100.0 / static_cast<double>(ns_bare);
  state.counters["fold_overhead_pct"] = overhead_pct;
  state.SetLabel("one fold per drained statement");
}

BENCHMARK(RunStmtStatsFoldOverhead)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pascalr
