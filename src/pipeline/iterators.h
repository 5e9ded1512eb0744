// Volcano-style pull iterators over reference structures — the streamed
// combination phase (paper §3.3 step 2, in the pipelined model surveyed
// by arXiv:0903.4305, vectorized). Every operator has one pull,
// NextBatch, which produces one column-major Chunk of up to
// `capacity` rows (see chunk.h); the cursor drives the whole tree, so
// an early Close skips all unperformed join work. Row access happens
// only at the cursor boundary. `SET BATCH 1;` runs the same operators
// over 1-row chunks.
//
// Under the demand-driven collection policy (CollectionPolicy::kLazy) the
// leaves additionally pull the *collection* phase on demand: scans and
// probe builds receive a CollectionBuilders handle instead of a finished
// structure and populate it behind NextBatch — fully at first use, per
// join key, or streaming the base relation without materialising at
// all. An early Close then also skips collection work, not just join
// work.
//
// Operator inventory:
//   ScanIter        structure scan (a collection-phase RefRelation; with
//                   a builders handle, EnsureStructure at the first pull)
//   BaseScanIter    demand-driven single-producer scan: streams the base
//                   relation element-at-a-time through the structure's
//                   producers (gates, restriction, index probes) without
//                   ever materialising the structure — collection mode (c)
//   ProbeJoinIter   hash/nested-loop join: streams the left child, probes
//                   an index over the right side; the right side is a
//                   structure (zero-copy), a builders handle (lazy:
//                   keyed-partial per-join-key population when the
//                   structure supports it, full build at first probe
//                   otherwise). A semi-join flag stops at the first
//                   match and drops the right side's purely-existential
//                   columns.
//   ExtendIter      Cartesian extension with a variable's materialised
//                   range (§3.3's n-tuple invariant); with a builders
//                   handle the range materialises at the first pull
//   RangeGuardIter  annihilates the stream when an (absent, purely
//                   existential) variable's range is empty — the lazy
//                   form of the compile-time empty-range check
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
// streamed element's rows, the blocking inputs) are flat too; no
// operator allocates per row.

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
  /// Demand-driven: EnsureStructure(structure_id) at the first pull,
  /// then scan the materialised rows.
  ScanIter(CollectionBuilders* builders, size_t structure_id)
      : builders_(builders), structure_id_(structure_id) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  Status Ensure();

  const RefRelation* rel_ = nullptr;
  CollectionBuilders* builders_ = nullptr;
  size_t structure_id_ = 0;
  size_t pos_ = 0;
};

/// Collection mode (c): streams the structure's base relation element at
/// a time through its producers — the structure itself never exists.
/// Requires CollectionBuilders::KeyedColumn(structure_id) >= 0 (single
/// scanned variable). Emits the same row set a materialised scan would,
/// in the same (slot) order. A pull evaluates elements only until the
/// chunk is full; the rest of the last element's rows carry over.
class BaseScanIter : public RefIterator {
 public:
  BaseScanIter(CollectionBuilders* builders, size_t structure_id)
      : builders_(builders), structure_id_(structure_id) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  CollectionBuilders* builders_;
  size_t structure_id_;
  bool prepared_ = false;
  std::vector<Ref> refs_;     ///< live base-relation refs, slot order
  size_t ref_pos_ = 0;
  size_t arity_ = 0;          ///< the structure's arity
  std::vector<Ref> pending_;  ///< rows of the current element, flat
  size_t pending_pos_ = 0;    ///< first ref of the next pending row
};

/// Streaming join. Probes a RowIdTable (join-key hash -> right row ids,
/// in row order) over the right side, built lazily at the first pull. With an empty key the join
/// degenerates to the nested-loop Cartesian step. Output layout: left
/// columns, then the right side's extra columns (none under semi).
class ProbeJoinIter : public RefIterator {
 public:
  /// Right side is an existing structure: the index stores row indices
  /// into it — no row copies, nothing peak-counted.
  ProbeJoinIter(RefIteratorPtr left, const RefRelation* right,
                std::vector<int> left_key, std::vector<int> right_key,
                std::vector<int> right_extras, bool semi, ExecStats* stats);

  /// Right side is an unbuilt structure (lazy collection). The lowering
  /// (PlanConjunctionLowering) already decided whether keyed-partial
  /// population applies: `keyed_probe_pos` >= 0 names the left column
  /// whose ref keys each per-join-key demand, -1 forces a full
  /// on-demand build at the first probe.
  ProbeJoinIter(RefIteratorPtr left, CollectionBuilders* builders,
                size_t right_structure, std::vector<int> left_key,
                std::vector<int> right_key, std::vector<int> right_extras,
                bool semi, ExecStats* stats, int keyed_probe_pos);

  Result<bool> NextBatch(Chunk* out) override;

 private:
  Status Prepare();
  /// Appends left row `l` of `left_chunk_` (plus `right_row`'s extras
  /// unless semi) to `out`.
  void Emit(size_t l, RowView right_row, Chunk* out);

  RefIteratorPtr left_;
  const RefRelation* right_ = nullptr;
  CollectionBuilders* builders_ = nullptr;  ///< lazy right side
  size_t right_structure_ = 0;
  std::vector<int> left_key_;
  std::vector<int> right_key_;
  std::vector<int> right_extras_;
  bool semi_;
  ExecStats* stats_;

  bool prepared_ = false;
  bool keyed_mode_ = false;  ///< per-join-key population of the right side
  int key_probe_pos_ = -1;   ///< left column probed in keyed mode (-1: off)
  /// Join-key hash -> right row ids, in scan order.
  RowIdTable table_;
  /// Left row `left_pos_` is mid-emission (its chain outlived a chunk).
  bool have_left_ = false;
  uint32_t match_row_ = RowIdTable::kNone;  ///< next row of the hash chain
  RowSpan keyed_rows_;    ///< keyed-partial rows of the current key
  size_t match_pos_ = 0;  ///< position in keyed rows or right rows (cross)
  Chunk left_chunk_;      ///< current left batch
  size_t left_pos_ = 0;   ///< next unconsumed row of left_chunk_
};

/// Cartesian extension with a materialised range: each child row is
/// emitted once per ref (the product step of §3.3's n-tuple invariant).
/// With a builders handle, the range materialises at the first pull.
class ExtendIter : public RefIterator {
 public:
  ExtendIter(RefIteratorPtr child, const std::vector<Ref>* refs,
             ExecStats* stats)
      : child_(std::move(child)), refs_(refs), stats_(stats) {}
  ExtendIter(RefIteratorPtr child, CollectionBuilders* builders,
             std::string var, ExecStats* stats)
      : child_(std::move(child)),
        builders_(builders),
        var_(std::move(var)),
        stats_(stats) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  Status EnsureRefs();

  RefIteratorPtr child_;
  const std::vector<Ref>* refs_ = nullptr;
  CollectionBuilders* builders_ = nullptr;
  std::string var_;
  ExecStats* stats_;
  size_t pos_ = 0;        ///< next ref for the row being extended
  Chunk child_chunk_;     ///< current child batch
  size_t child_pos_ = 0;  ///< row of child_chunk_ being extended
};

/// Annihilates the stream when `var`'s range is empty, passing rows
/// through unchanged otherwise. The demand-driven form of the semantics a
/// purely existential variable absent from every structure imposes: a
/// non-empty range is the whole existence proof, an empty one zeroes the
/// conjunct (exactly like the materializing path's product with an empty
/// range). The range materialises at the first pull; once the guard
/// passes, the child's chunks are forwarded unchanged.
class RangeGuardIter : public RefIterator {
 public:
  RangeGuardIter(RefIteratorPtr child, CollectionBuilders* builders,
                 std::string var)
      : child_(std::move(child)), builders_(builders), var_(std::move(var)) {}
  Result<bool> NextBatch(Chunk* out) override;

 private:
  Status Check();

  RefIteratorPtr child_;
  CollectionBuilders* builders_;
  std::string var_;
  bool checked_ = false;
  bool empty_ = false;
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
/// Divisor ranges come from the builders, materialised on demand (a
/// no-op under the eager policy).
class QuantifierTailIter : public RefIterator {
 public:
  QuantifierTailIter(RefIteratorPtr child,
                     std::vector<QuantifiedVar> tail,
                     std::vector<std::string> columns,
                     std::vector<std::string> free_names,
                     CollectionBuilders* builders,
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
  CollectionBuilders* builders_;
  DivisionAlgorithm division_;
  ExecStats* stats_;
  PeakTracker* tracker_;

  bool materialized_ = false;
  RefRelation result_;
  size_t pos_ = 0;
};

}  // namespace pascalr

#endif  // PASCALR_PIPELINE_ITERATORS_H_
