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
// The compiler consumes CollectionBuilders, not a finished collection.
// Under CollectionPolicy::kEager the cursor ran EnsureAll() before
// compiling, structures are real, and the greedy order ranks on their
// actual sizes. Under kLazy nothing is built yet: leaves lower to
// demand-driven scans (streamed off the base relation when the structure
// supports per-element evaluation), probe sides populate per join key or
// at first use, ranges materialise behind Extend/guard/tail iterators —
// and the inputs join in declaration order, since ranking on actual sizes
// would force the very builds laziness defers.

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

/// How the lazy lowering populates one conjunction-input structure.
enum class LazyLeafMode : uint8_t {
  kStreamed,  ///< scanned straight off the base relation, never built
  kKeyed,     ///< populated per requested join key on probe
  kDeferred,  ///< materialised in full at first use
};

/// The population mode the lazy lowering will use for each leaf of
/// conjunction `conj` (indexed like plan.conj_inputs[conj]). Shares
/// CompileConjunction's lowering walk — same join order, same join-key
/// computation, same semi-join column dropping — so EXPLAIN and the
/// cost model describe the modes the executor actually runs. `shape`
/// is the caller's AnalyzePipelineShape(plan) (callers always have one
/// in hand; recomputing it per conjunction is the expensive part). Only
/// meaningful for plans with CollectionPolicy::kLazy.
std::vector<LazyLeafMode> LazyConjunctionLeafModes(const QueryPlan& plan,
                                                   size_t conj,
                                                   const PipelineShape& shape);

/// Builds the iterator tree for `plan` over the collection builders.
/// `stats` receives the per-operator work counters as rows are pulled;
/// blocking buffers register with `tracker`. Both must outlive the
/// pipeline, as must `plan` and `builders` (the iterators populate and
/// probe the structures in place).
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
