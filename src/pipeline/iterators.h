// Volcano-style pull iterators over reference structures — the streamed
// combination phase (paper §3.3 step 2, in the pipelined model surveyed
// by arXiv:0903.4305, vectorized). Every operator has one pull,
// NextBatch, which produces one column-major Chunk of up to
// `capacity` rows (see chunk.h); the cursor drives the whole tree, so
// an early Close skips all unperformed join work. Row access happens
// only at the cursor boundary. `SET BATCH 1;` runs the same operators
// over 1-row chunks.
//
// The operators run over the finished structures of the collection
// phase, which Cursor::Open completes before compiling the pipeline.
//
// Operator inventory:
//   ScanIter        structure scan (a collection-phase RefRelation)
//   ProbeJoinIter   hash/nested-loop join: streams the left child, probes
//                   an index over the right side, a structure read in
//                   place (zero-copy). A semi-join flag stops at the
//                   first match and drops the right side's
//                   purely-existential columns.
//   ExtendIter      Cartesian extension with a variable's materialised
//                   range (§3.3's n-tuple invariant)
//   FilterIter      residual predicate over the stream (reference-level
//                   column comparisons, or membership in a structure
//                   every column of which the stream already binds).
//                   compile.cc emits the membership form for covered
//                   join inputs — a structure that contributes no
//                   new column is a predicate that outlived its
//                   collection gate, not a join. The selection-vector
//                   reference example.
//   ProjectIter     column drop/reorder; with dedup on, the sink that
//                   suppresses duplicates (seen rows are peak-counted)
//   ConcatIter      union of the disjunct streams (children share one
//                   column layout, so union is concatenation)
//   QuantifierTailIter  blocking tail for universal quantification:
//                   buffers the stream (dedup via set semantics), runs
//                   division / projection right-to-left, streams out
//   UnitIter / EmptyIter  the arity-0 TRUE row / the empty stream
//
// Memory discipline: streaming operators hold one chunk plus index maps
// of row *indices* over already-materialised structures; only blocking
// buffers (dedup sinks, division input) register rows with
// the PeakTracker. That is what keeps the pipelined
// ExecStats::peak_intermediate_rows at or below the materializing path's.
//
// Rows of a structure are read in place as RowViews (a pointer into the
// RefRelation's flat, arity-strided ref array plus the arity): scans
// gather them straight into chunk columns, joins walk the RowIdTable's
// row-id chains. Buffers of rows the pipeline produces itself (the
// blocking inputs) are flat too; no operator allocates per row.

#ifndef PASCALR_PIPELINE_ITERATORS_H_
#define PASCALR_PIPELINE_ITERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "exec/collection.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "pipeline/chunk.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

class RefIterator {
 public:
  virtual ~RefIterator() = default;
  /// Produces up to `out->capacity` rows into `*out` (overwritten
  /// completely; arity = the operator's column layout). Returns false
  /// only on exhaustion with zero rows; a short chunk does not signal
  /// exhaustion.
  virtual Result<bool> NextBatch(Chunk* out) = 0;
};

using RefIteratorPtr = std::unique_ptr<RefIterator>;

class EmptyIter : public RefIterator {
 public:
  Result<bool> NextBatch(Chunk* out) override {
    out->Reset(out->arity());
    return false;
  }
};

/// The arity-0 relation containing the empty row: TRUE (a conjunction
/// with no combination inputs).
class UnitIter : public RefIterator {
 public:
  Result<bool> NextBatch(Chunk* out) override;

 private:
  bool done_ = false;
};

class ScanIter : public RefIterator {
 public:
  explicit ScanIter(const RefRelation* rel) : rel_(rel) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  const RefRelation* rel_;
  size_t pos_ = 0;
};

/// Streaming join. Probes a RowIdTable (join-key hash -> right row ids,
/// in row order) over the right side, built at the first pull. With an
/// empty key the join
/// degenerates to the nested-loop Cartesian step. Output layout: left
/// columns, then the right side's extra columns (none under semi).
class ProbeJoinIter : public RefIterator {
 public:
  /// The index stores row indices into the right structure — no row
  /// copies, nothing peak-counted.
  ProbeJoinIter(RefIteratorPtr left, const RefRelation* right,
                std::vector<int> left_key, std::vector<int> right_key,
                std::vector<int> right_extras, bool semi, ExecStats* stats);

  Result<bool> NextBatch(Chunk* out) override;

 private:
  void Prepare();
  /// Appends left row `l` of `left_chunk_` (plus `right_row`'s extras
  /// unless semi) to `out`.
  void Emit(size_t l, RowView right_row, Chunk* out);

  RefIteratorPtr left_;
  const RefRelation* right_;
  std::vector<int> left_key_;
  std::vector<int> right_key_;
  std::vector<int> right_extras_;
  bool semi_;
  ExecStats* stats_;

  bool prepared_ = false;
  /// Join-key hash -> right row ids, in scan order.
  RowIdTable table_;
  /// Left row `left_pos_` is mid-emission (its chain outlived a chunk).
  bool have_left_ = false;
  uint32_t match_row_ = RowIdTable::kNone;  ///< next row of the hash chain
  size_t match_pos_ = 0;  ///< next right row of the Cartesian step
  Chunk left_chunk_;      ///< current left batch
  size_t left_pos_ = 0;   ///< next unconsumed row of left_chunk_
};

/// Cartesian extension with a materialised range: each child row is
/// emitted once per ref (the product step of §3.3's n-tuple invariant).
class ExtendIter : public RefIterator {
 public:
  ExtendIter(RefIteratorPtr child, const std::vector<Ref>* refs,
             ExecStats* stats)
      : child_(std::move(child)), refs_(refs), stats_(stats) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  RefIteratorPtr child_;
  const std::vector<Ref>* refs_;
  ExecStats* stats_;
  size_t pos_ = 0;        ///< next ref for the row being extended
  Chunk child_chunk_;     ///< current child batch
  size_t child_pos_ = 0;  ///< row of child_chunk_ being extended
};

/// Residual predicate over the stream, in one of two forms:
///
///   pair mode        keeps rows whose columns at `left_pos` /
///                    `right_pos` compare equal (resp. unequal)
///   membership mode  keeps rows whose columns at `key_pos` form a row
///                    of `*member_of` — a join structure ALL of whose
///                    columns the stream already binds is exactly a
///                    residual predicate that outlived its collection
///                    gate, and compile.cc lowers such covered leaves
///                    here instead of to a degenerate probe-join
///
/// NextBatch is the pipeline's selection-vector reference example:
/// evaluate the predicate over the child chunk into a SelectionVector,
/// then gather the survivors column-by-column. Each evaluation counts one
/// ExecStats::comparisons.
class FilterIter : public RefIterator {
 public:
  FilterIter(RefIteratorPtr child, int left_pos, int right_pos, bool equal,
             ExecStats* stats)
      : child_(std::move(child)),
        left_pos_(left_pos),
        right_pos_(right_pos),
        equal_(equal),
        stats_(stats) {}
  /// Membership mode: `key_pos[i]` is the stream column matched against
  /// `member_of`'s column i (the full structure row, by construction of
  /// the covered-leaf lowering).
  FilterIter(RefIteratorPtr child, const RefRelation* member_of,
             std::vector<int> key_pos, ExecStats* stats)
      : child_(std::move(child)),
        member_of_(member_of),
        key_pos_(std::move(key_pos)),
        stats_(stats) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  RefIteratorPtr child_;
  int left_pos_ = -1;
  int right_pos_ = -1;
  bool equal_ = true;
  const RefRelation* member_of_ = nullptr;
  std::vector<int> key_pos_;
  ExecStats* stats_;
  RefRow key_;                   ///< scratch for membership probes
  std::vector<uint64_t> hashes_; ///< scratch for bulk key hashing
  Chunk child_chunk_;
  SelectionVector sel_;
};

/// Column drop/reorder (`positions[i]` = child column of output column
/// i). With `dedup`, suppresses rows already emitted — the pipeline's
/// sink operator; the seen-set rows are registered with `tracker`.
class ProjectIter : public RefIterator {
 public:
  ProjectIter(RefIteratorPtr child, std::vector<int> positions,
              std::vector<std::string> columns, bool dedup, ExecStats* stats,
              PeakTracker* tracker);
  /// Non-dedup: one child chunk in, its columns gathered, one chunk out.
  /// Dedup (the sink): accumulates child chunks until the output chunk
  /// is full, so chunk boundaries at the cursor — and the
  /// batches_emitted counter — depend only on the result cardinality and
  /// batch size, not on upstream (e.g. post-filter) chunking.
  Result<bool> NextBatch(Chunk* out) override;

 private:
  RefIteratorPtr child_;
  std::vector<int> positions_;
  bool dedup_;
  RefRelation seen_;
  ExecStats* stats_;
  PeakTracker* tracker_;
  Chunk child_chunk_;
  size_t child_pos_ = 0;  ///< dedup path: next unconsumed child row
  bool child_done_ = false;
  RefRow scratch_;
};

/// Union of the disjunct streams: children are drained in order. All
/// children share one column layout by construction, so no realignment
/// (and no work counted) — duplicates fall to the sink above.
class ConcatIter : public RefIterator {
 public:
  explicit ConcatIter(std::vector<RefIteratorPtr> children)
      : children_(std::move(children)) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  std::vector<RefIteratorPtr> children_;
  size_t current_ = 0;
};

/// Blocking tail for plans with a surviving universal quantifier: drains
/// the child stream into a set-semantics buffer (the division input the
/// materializing path would have built — identical by construction), then
/// evaluates the tail quantifiers right-to-left (projection for SOME,
/// relational division for ALL), projects onto the free variables, and
/// streams the result. Buffered rows are registered with the tracker.
/// Divisor ranges come from the finished collection.
class QuantifierTailIter : public RefIterator {
 public:
  QuantifierTailIter(RefIteratorPtr child,
                     std::vector<QuantifiedVar> tail,
                     std::vector<std::string> columns,
                     std::vector<std::string> free_names,
                     const CollectionResult* collection,
                     DivisionAlgorithm division, ExecStats* stats,
                     PeakTracker* tracker);
  /// Streams the buffered result in chunks. The blocking tail itself —
  /// division, projections — runs over the buffered relation at the
  /// first pull.
  Result<bool> NextBatch(Chunk* out) override;

 private:
  Status Materialize();

  RefIteratorPtr child_;
  std::vector<QuantifiedVar> tail_;
  std::vector<std::string> columns_;
  std::vector<std::string> free_names_;
  const CollectionResult* collection_;
  DivisionAlgorithm division_;
  ExecStats* stats_;
  PeakTracker* tracker_;

  bool materialized_ = false;
  RefRelation result_;
  size_t pos_ = 0;
};

}  // namespace pascalr

#endif  // PASCALR_PIPELINE_ITERATORS_H_
