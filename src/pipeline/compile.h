// Compiles a QueryPlan's combination phase into a Volcano-style iterator
// tree over the collection phase's reference structures (the pipelined
// combination subsystem). The compiled pipeline delivers the
// free-variable n-tuples of §3.3 one chunk per NextBatch — the same row
// *set* the materializing ExecuteCombination produces, without
// materialising join intermediates.
//
// Per conjunction: the runtime join order (greedy smallest-first on the
// actual structure sizes, exec/combination.h) becomes a left-deep chain of
// ProbeJoinIters; purely existential variables run as semi-joins
// (EXISTS-style first-match probes) or skip their Cartesian extension
// entirely; remaining prefix variables are extended from the materialised
// ranges. The disjunct streams concatenate, then either feed the blocking
// quantifier tail (plans with a surviving ALL — division is inherently
// blocking) or a streaming dedup sink.
//
// The compiler runs over a finished collection: the cursor ran
// CollectionBuilders::EnsureAll() before compiling, so the greedy order
// ranks on the structures' actual sizes and every operator reads
// structures and ranges in place.

#ifndef PASCALR_PIPELINE_COMPILE_H_
#define PASCALR_PIPELINE_COMPILE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "exec/collection.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "pipeline/iterators.h"
#include "pipeline/shape.h"

namespace pascalr {

class PipelineProfile;  // obs/profile.h

struct CompiledPipeline {
  RefIteratorPtr root;
  /// Output column layout (the free variables, prefix order).
  std::vector<std::string> columns;

  bool ok() const { return root != nullptr; }
};

/// Builds the iterator tree for `plan` over the finished collection in
/// `builders` (EnsureAll must have succeeded; the builders handle rather
/// than its result is the parameter because bench_e2e/replay.cc passes
/// one). `stats` receives the per-operator work counters as rows are
/// pulled; blocking buffers register with `tracker`. Both must outlive
/// the pipeline, as must `plan` and `builders` (the iterators probe the
/// structures in place).
///
/// `profile` (optional, EXPLAIN ANALYZE) registers one OpNode per emitted
/// operator and wraps each in a counting/timing ProfiledIter; it must
/// outlive the pipeline. When null — the default for every normal query —
/// no wrapper is inserted anywhere, so the compiled tree is bit-identical
/// to the unprofiled build and execution carries zero instrumentation
/// overhead.
Result<CompiledPipeline> CompilePipeline(const QueryPlan& plan,
                                         CollectionBuilders* builders,
                                         ExecStats* stats,
                                         PeakTracker* tracker,
                                         PipelineProfile* profile = nullptr);

}  // namespace pascalr

#endif  // PASCALR_PIPELINE_COMPILE_H_
