// Index micro-benchmarks: the build-once sorted index vs the hash index,
// build and probe, including the ordered range probes only the sorted
// index answers without a full scan. Builds include the Seal step, as the
// collection phase pays it at the end of each pass.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"  // shared main(): BENCH_*.json reporter

#include <random>

#include "index/hash_index.h"
#include "index/sorted_index.h"

namespace pascalr {
namespace {

Ref R(uint32_t slot) { return Ref{1, slot, 1}; }

/// `n` random ints in [0, distinct), fed in ascending ref order as every
/// scan does.
std::vector<int64_t> RandomValues(size_t n, size_t distinct) {
  std::mt19937 rng(7);
  std::vector<int64_t> values(n);
  for (auto& v : values) v = static_cast<int64_t>(rng() % distinct);
  return values;
}

template <typename IndexT>
void Fill(IndexT* idx, const std::vector<int64_t>& values) {
  for (uint32_t i = 0; i < values.size(); ++i) {
    idx->Add(Value::MakeInt(values[i]), R(i));
  }
  idx->Seal();
}

template <typename IndexT>
void BuildIndex(benchmark::State& state, size_t distinct) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> values = RandomValues(n, distinct);
  for (auto _ : state) {
    IndexT idx;
    Fill(&idx, values);
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// Mostly distinct values: a key or near-key component.
void BM_SortedBuild(benchmark::State& state) {
  BuildIndex<SortedIndex>(state, static_cast<size_t>(state.range(0)) * 2);
}
void BM_HashBuild(benchmark::State& state) {
  BuildIndex<HashIndex>(state, static_cast<size_t>(state.range(0)) * 2);
}
BENCHMARK(BM_SortedBuild)->Arg(64)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_HashBuild)->Arg(64)->Arg(1000)->Arg(10000)->Arg(100000);

// 20 distinct values: a low-cardinality component (a year, an enum).
void BM_SortedBuildLowDistinct(benchmark::State& state) {
  BuildIndex<SortedIndex>(state, 20);
}
void BM_HashBuildLowDistinct(benchmark::State& state) {
  BuildIndex<HashIndex>(state, 20);
}
BENCHMARK(BM_SortedBuildLowDistinct)->Arg(1000)->Arg(4000);
BENCHMARK(BM_HashBuildLowDistinct)->Arg(1000)->Arg(4000);

template <typename IndexT>
void EqProbe(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  IndexT idx;
  Fill(&idx, RandomValues(n, n * 2));
  int64_t probe = 0;
  for (auto _ : state) {
    size_t hits = 0;
    idx.Probe(CompareOp::kEq, Value::MakeInt(probe++ % (static_cast<int64_t>(n) * 2)),
              [&](const Ref&) {
                ++hits;
                return true;
              });
    benchmark::DoNotOptimize(hits);
  }
}

void BM_SortedEqProbe(benchmark::State& state) { EqProbe<SortedIndex>(state); }
void BM_HashEqProbe(benchmark::State& state) { EqProbe<HashIndex>(state); }
BENCHMARK(BM_SortedEqProbe)->Arg(64)->Arg(10000)->Arg(100000);
BENCHMARK(BM_HashEqProbe)->Arg(64)->Arg(10000)->Arg(100000);

// Range probes: the sorted index visits only the qualifying run; the hash
// index must scan every entry.
template <typename IndexT>
void RangeProbe(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(i);
  IndexT idx;
  Fill(&idx, values);
  for (auto _ : state) {
    size_t hits = 0;
    // v < n/100: a 1% range.
    idx.Probe(CompareOp::kLt, Value::MakeInt(static_cast<int64_t>(n / 100)),
              [&](const Ref&) {
                ++hits;
                return true;
              });
    benchmark::DoNotOptimize(hits);
  }
}

void BM_SortedRangeProbe(benchmark::State& state) {
  RangeProbe<SortedIndex>(state);
}
void BM_HashRangeProbe(benchmark::State& state) {
  RangeProbe<HashIndex>(state);
}
BENCHMARK(BM_SortedRangeProbe)->Arg(10000)->Arg(100000);
BENCHMARK(BM_HashRangeProbe)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace pascalr
