// Per-operator pipeline profiling: the run-time half of EXPLAIN ANALYZE.
//
// When profiling is requested, the pipeline compiler registers one OpNode
// per operator it emits (mirroring the EXPLAIN iterator tree, estimated
// cardinality attached) and wraps the operator in a ProfiledIter that
// counts opens, batch pulls, rows out, and cumulative inclusive time. When
// profiling is off the wrappers are simply never inserted — the iterator
// tree is bit-identical to the unprofiled build, so the off path carries
// literally zero instructions of overhead (asserted by the observability
// tests via counter identity).
//
// Timing is inclusive per wrapper (a pull on a join times the child pulls
// it performs); Render() subtracts children's inclusive time to report
// self-time, and prints the estimated-vs-actual q-error
// max(est/actual, actual/est) per operator — the misestimation signal
// the planner gauntlet consumes.

#ifndef PASCALR_OBS_PROFILE_H_
#define PASCALR_OBS_PROFILE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "pipeline/iterators.h"

namespace pascalr {

struct OpProfile {
  uint64_t open_calls = 0;  ///< first-pull preparations observed
  uint64_t next_calls = 0;  ///< Cursor::Next calls (construct node only)
  uint64_t batch_calls = 0; ///< NextBatch pulls (operator nodes)
  uint64_t rows_out = 0;    ///< rows produced
  uint64_t time_ns = 0;     ///< inclusive (children included)
};

/// One operator of the profiled tree. `est_rows` < 0 means the planner
/// attached no estimate for this operator (leaves without cost-model
/// cardinalities, glue operators like Concat).
struct OpNode {
  std::string label;
  double est_rows = -1.0;
  std::vector<int> children;
  OpProfile prof;
};

/// The profile for one compiled pipeline: an operator tree populated by
/// the compiler, counters populated by the ProfiledIter wrappers as the
/// query drains. Node ids are stable across the pipeline's lifetime.
class PipelineProfile {
 public:
  /// Registers an operator; children must already be registered.
  int Add(std::string label, double est_rows, std::vector<int> children);
  /// Marks `id` as the tree root (the last compiled sink).
  void SetRoot(int id) { root_ = id; }

  int root() const { return root_; }
  size_t size() const { return nodes_.size(); }
  const OpNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  OpProfile* prof(int id) { return &nodes_[static_cast<size_t>(id)].prof; }

  /// The EXPLAIN ANALYZE operator table: indented tree with actual rows,
  /// row pulls (construct node) or batch pulls (operators), self-time,
  /// and est-vs-actual q-error per operator.
  std::string Render() const;

 private:
  void RenderNode(int id, int depth, std::string* out) const;
  uint64_t ChildTimeNs(int id) const;

  /// Deque, not vector: Add must never move existing nodes — live
  /// ProfiledIter wrappers hold pointers into their OpProfile slots.
  std::deque<OpNode> nodes_;
  int root_ = -1;
};

/// Estimated-vs-actual q-error: max(est/actual, actual/est), clamped to
/// >= 1; by convention 0-vs-0 is a perfect 1. Exposed for tests.
double QError(double est, uint64_t actual);

/// Worst per-operator q-error of a profiled run — the scalar the
/// statement-statistics store harvests per EXPLAIN ANALYZE. Operators
/// without an estimate (est_rows < 0) are skipped; 0 when no operator
/// carries one.
double MaxQError(const PipelineProfile& profile);

/// Transparent counting/timing decorator. RefIterator has no separate
/// open: the wrapped operator's first NextBatch doubles as it, so
/// open_calls counts first-pull preparations.
class ProfiledIter : public RefIterator {
 public:
  ProfiledIter(RefIteratorPtr inner, OpProfile* prof)
      : inner_(std::move(inner)), prof_(prof) {}
  /// Forwards to the inner operator's NextBatch, so a profiled run takes
  /// exactly the execution path an unprofiled one does. Times the whole
  /// batch pull once (inclusive); Render's child-time subtraction then
  /// attributes self-time per batch, never double-counting the child
  /// pulls performed inside it.
  Result<bool> NextBatch(Chunk* out) override;

 private:
  RefIteratorPtr inner_;
  OpProfile* prof_;
  bool opened_ = false;
};

}  // namespace pascalr

#endif  // PASCALR_OBS_PROFILE_H_
