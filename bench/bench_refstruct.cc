// Reference-relation micro-benchmarks: building a structure the way the
// collection phase does (Append) against the deduplicating Add, and the
// combination-phase operators of §3.3 (natural join, product extension,
// union, projection).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"  // shared main(): BENCH_*.json reporter

#include <string>
#include <vector>

#include "refstruct/ops.h"

namespace pascalr {
namespace {

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

// Builds a structure of `rows` distinct rows of `arity` refs by Append
// (collection: rows new by construction, no hashing) or by Add (dedup:
// one hash and table insert per row). With `contains`, every row is then
// probed once, as the pipeline's membership filter does; an appended
// structure hashes its rows into the index on that first probe.
void BM_StructureBuild(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t arity = static_cast<size_t>(state.range(1));
  const bool append = state.range(2) != 0;
  const bool contains = state.range(3) != 0;
  std::vector<std::string> columns;
  for (size_t c = 0; c < arity; ++c) columns.push_back("v" + std::to_string(c));
  // Row i: (@1[i]) or (@1[i], @2[i % 64]), the shapes of a single list
  // and an indirect join.
  std::vector<Ref> refs;
  for (uint32_t i = 0; i < rows; ++i) {
    refs.push_back(R(1, i));
    if (arity == 2) refs.push_back(R(2, i % 64));
  }
  for (auto _ : state) {
    RefRelation rel(columns);
    for (size_t i = 0; i < rows; ++i) {
      const RowView row(refs.data() + i * arity, arity);
      if (append) {
        rel.Append(row);
      } else {
        rel.Add(row);
      }
    }
    if (contains) {
      size_t hits = 0;
      for (size_t i = 0; i < rows; ++i) {
        hits += rel.Contains(RowView(refs.data() + i * arity, arity)) ? 1 : 0;
      }
      benchmark::DoNotOptimize(hits);
    }
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_StructureBuild)
    ->ArgsProduct({{1000, 10000}, {1, 2}, {1, 0}, {0, 1}})
    ->ArgNames({"rows", "arity", "append", "contains"});

void BM_NaturalJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  RefRelation left({"x", "y"});
  RefRelation right({"y", "z"});
  for (uint32_t i = 0; i < rows; ++i) {
    left.Add({R(1, i % 64), R(2, i)});
    right.Add({R(2, i), R(3, i % 32)});
  }
  for (auto _ : state) {
    ExecStats stats;
    RefRelation joined = NaturalJoin(left, right, &stats);
    benchmark::DoNotOptimize(joined.size());
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_NaturalJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CartesianExtension(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t range = static_cast<size_t>(state.range(1));
  RefRelation base({"x"});
  for (uint32_t i = 0; i < rows; ++i) base.Add({R(1, i)});
  std::vector<Ref> refs;
  for (uint32_t i = 0; i < range; ++i) refs.push_back(R(2, i));
  for (auto _ : state) {
    ExecStats stats;
    RefRelation extended = ProductWithRefs(base, "y", refs, &stats);
    benchmark::DoNotOptimize(extended.size());
  }
}
BENCHMARK(BM_CartesianExtension)->Args({100, 100})->Args({100, 1000})->Args({1000, 100});

void BM_UnionRows(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  RefRelation a({"x", "y"});
  RefRelation b({"x", "y"});
  for (uint32_t i = 0; i < rows; ++i) {
    a.Add({R(1, i), R(2, i)});
    b.Add({R(1, i + static_cast<uint32_t>(rows) / 2), R(2, i)});  // 50% overlap
  }
  for (auto _ : state) {
    ExecStats stats;
    auto u = UnionRows(a, b, &stats);
    benchmark::DoNotOptimize(u->size());
  }
}
BENCHMARK(BM_UnionRows)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Project(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  RefRelation a({"x", "y", "z"});
  for (uint32_t i = 0; i < rows; ++i) {
    a.Add({R(1, i % 64), R(2, i), R(3, i % 16)});
  }
  for (auto _ : state) {
    ExecStats stats;
    auto p = Project(a, {"x", "z"}, &stats);
    benchmark::DoNotOptimize(p->size());
  }
}
BENCHMARK(BM_Project)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace pascalr
