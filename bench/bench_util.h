// Shared benchmark helpers: scaled university databases, query running
// with counter extraction, and machine-readable BENCH_*.json emission so
// the perf trajectory of the repo is recorded run over run.

#ifndef PASCALR_BENCH_BENCH_UTIL_H_
#define PASCALR_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "pascalr/pascalr.h"

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

namespace pascalr {
namespace bench_util {

/// A university database scaled by `n` employees (papers 2n, courses n/2,
/// timetable 3n — the proportions of the paper's running example).
inline std::unique_ptr<Database> MakeScaledDb(size_t n, uint64_t seed = 42) {
  auto db = std::make_unique<Database>();
  Status st = CreateUniversitySchema(db.get());
  if (!st.ok()) std::abort();
  UniversityScale scale;
  scale.employees = n;
  scale.papers = 2 * n;
  scale.courses = n / 2 + 1;
  scale.timetable = 3 * n;
  scale.seed = seed;
  st = PopulateSynthetic(db.get(), scale);
  if (!st.ok()) std::abort();
  return db;
}

/// Binds and runs `query` under explicit planner options, aborting on
/// error (benchmarks assume correct plumbing; correctness is the test
/// suite's job).
inline QueryRun MustRunOptions(const Database& db, const std::string& query,
                               const PlannerOptions& options) {
  Parser parser(query);
  Result<SelectionExpr> sel = parser.ParseSelectionOnly();
  if (!sel.ok()) std::abort();
  Binder binder(&db);
  Result<BoundQuery> bound = binder.Bind(std::move(sel).value());
  if (!bound.ok()) std::abort();
  Result<QueryRun> run = RunQuery(db, std::move(bound).value(), options);
  if (!run.ok()) std::abort();
  return std::move(run).value();
}

/// Binds and runs `query` at `level`.
inline QueryRun MustRun(const Database& db, const std::string& query,
                        OptLevel level) {
  PlannerOptions options;
  options.level = level;
  return MustRunOptions(db, query, options);
}

/// Publishes the paper-relevant counters on a benchmark state; the
/// counters land in the BENCH_*.json exhibit via the JSON file reporter
/// the shared main() below configures.
inline void ExportStats(benchmark::State& state, const ExecStats& stats,
                        size_t result_size) {
  state.counters["relations_read"] =
      static_cast<double>(stats.relations_read);
  state.counters["elements_scanned"] =
      static_cast<double>(stats.elements_scanned);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["sl_refs"] = static_cast<double>(stats.single_list_refs);
  state.counters["ij_refs"] = static_cast<double>(stats.indirect_join_refs);
  state.counters["combination_rows"] =
      static_cast<double>(stats.combination_rows);
  state.counters["division_rows"] =
      static_cast<double>(stats.division_input_rows);
  state.counters["quant_probes"] =
      static_cast<double>(stats.quantifier_probes);
  state.counters["comparisons"] = static_cast<double>(stats.comparisons);
  state.counters["dereferences"] = static_cast<double>(stats.dereferences);
  state.counters["replans"] = static_cast<double>(stats.replans);
  state.counters["perm_index_hits"] =
      static_cast<double>(stats.permanent_index_hits);
  state.counters["peak_rows"] =
      static_cast<double>(stats.peak_intermediate_rows);
  state.counters["structure_elements"] =
      static_cast<double>(stats.structure_elements_built);
  state.counters["batches_emitted"] =
      static_cast<double>(stats.batches_emitted);
  state.counters["morsels_dispatched"] =
      static_cast<double>(stats.morsels_dispatched);
  state.counters["total_work"] = static_cast<double>(stats.TotalWork());
  state.counters["result"] = static_cast<double>(result_size);
}

/// Publishes a latency histogram's percentile summary on a benchmark
/// state under `prefix` (e.g. "latency_us"); the percentiles land in the
/// BENCH_*.json exhibit next to the work counters, giving the perf
/// trajectory tail latencies rather than only means.
inline void ExportLatencyPercentiles(benchmark::State& state,
                                     const LatencyHistogram& histogram,
                                     const std::string& prefix) {
  if (histogram.count() == 0) return;
  state.counters[prefix + "_p50"] =
      static_cast<double>(histogram.Percentile(0.50));
  state.counters[prefix + "_p95"] =
      static_cast<double>(histogram.Percentile(0.95));
  state.counters[prefix + "_p99"] =
      static_cast<double>(histogram.Percentile(0.99));
  state.counters[prefix + "_max"] = static_cast<double>(histogram.max());
  state.counters[prefix + "_mean"] = static_cast<double>(histogram.Mean());
}

}  // namespace bench_util
}  // namespace pascalr

/// Shared benchmark main: like BENCHMARK_MAIN(), but defaults the file
/// reporter to machine-readable JSON at
/// $PASCALR_BENCH_JSON_DIR/BENCH_<binary>.json (cwd when unset) so every
/// bench run leaves a record the perf trajectory can be read from.
/// Explicit --benchmark_out= flags still win. Each bench target is one
/// translation unit including this header, so defining main here is safe
/// (CMake links the plain benchmark library, not benchmark_main).
int main(int argc, char** argv) {
  std::string binary = "bench";
#if defined(__GLIBC__)
  binary = program_invocation_short_name;
#endif
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::vector<std::string> extra;
  if (!has_out) {
    std::string dir;
    if (const char* env = std::getenv("PASCALR_BENCH_JSON_DIR")) {
      dir = std::string(env) + "/";
    }
    extra.push_back("--benchmark_out=" + dir + "BENCH_" + binary + ".json");
    extra.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args(argv, argv + argc);
  for (std::string& flag : extra) args.push_back(flag.data());
  int args_count = static_cast<int>(args.size());
  ::benchmark::Initialize(&args_count, args.data());
  if (::benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

#endif  // PASCALR_BENCH_BENCH_UTIL_H_
