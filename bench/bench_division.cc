// Experiment D: relational division — the combination-phase operator
// behind universal quantification (§3.3) — swept over table size and
// divisor size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"  // shared main(): BENCH_*.json reporter

#include "refstruct/division.h"
#include "refstruct/ref_relation.h"

namespace pascalr {
namespace {

/// Builds a (group, member) table where every group contains `hit_rate` of
/// the divisor plus noise, and group 0 contains the full divisor.
RefRelation MakeTable(size_t groups, size_t divisor_size, double hit_rate) {
  RefRelation table({"g", "v"});
  for (uint32_t g = 0; g < groups; ++g) {
    size_t members =
        g == 0 ? divisor_size
               : static_cast<size_t>(static_cast<double>(divisor_size) * hit_rate);
    for (uint32_t m = 0; m < members; ++m) {
      table.Add({Ref{1, g, 1}, Ref{2, m, 1}});
    }
  }
  return table;
}

std::vector<Ref> MakeDivisor(size_t n) {
  std::vector<Ref> out;
  out.reserve(n);
  for (uint32_t m = 0; m < n; ++m) out.push_back(Ref{2, m, 1});
  return out;
}

void BM_DivisionHash(benchmark::State& state) {
  size_t groups = static_cast<size_t>(state.range(0));
  size_t divisor_size = static_cast<size_t>(state.range(1));
  RefRelation table = MakeTable(groups, divisor_size, 0.5);
  std::vector<Ref> divisor = MakeDivisor(divisor_size);
  for (auto _ : state) {
    ExecStats stats;
    auto result = Divide(table, "v", divisor, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["table_rows"] = static_cast<double>(table.size());
}

BENCHMARK(BM_DivisionHash)
    ->Args({16, 64})
    ->Args({64, 64})
    ->Args({256, 64})
    ->Args({64, 256})
    ->Args({64, 1024});

}  // namespace
}  // namespace pascalr
