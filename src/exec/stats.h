// ExecStats: work counters for query evaluation. The paper's strategies
// are justified by the work they avoid (relation reads, intermediate
// structure sizes, combination blow-up); these counters make that visible
// deterministically, independent of wall-clock noise.

#ifndef PASCALR_EXEC_STATS_H_
#define PASCALR_EXEC_STATS_H_

#include <cstdint>
#include <string>

namespace pascalr {

struct ExecStats {
  uint64_t relations_read = 0;     ///< number of relation scans started
  uint64_t elements_scanned = 0;   ///< elements visited by collection scans
  uint64_t index_probes = 0;       ///< probes into transient/permanent indexes
  uint64_t single_list_refs = 0;   ///< refs materialised into single lists
  uint64_t indirect_join_refs = 0; ///< refs materialised into indirect joins
  uint64_t combination_rows = 0;   ///< rows materialised in the combination phase
  uint64_t division_input_rows = 0;///< rows fed into relational division
  uint64_t quantifier_probes = 0;  ///< strategy-4 value-list probes
  uint64_t comparisons = 0;        ///< join-term comparisons evaluated
  uint64_t dereferences = 0;       ///< construction-phase dereferences
  uint64_t replans = 0;            ///< runtime adaptations (empty ranges)
  uint64_t permanent_index_hits = 0;  ///< transient index builds skipped
  /// Elements materialised into collection structures: structure rows,
  /// index entries, and value-list additions. Structure rows are already
  /// priced in single_list_refs / indirect_join_refs, so this stays out
  /// of TotalWork().
  uint64_t structure_elements_built = 0;
  /// Chunks the cursor drain pulled from the pipeline sink — one per
  /// sink row at `SET BATCH 1;`, 0 under ExecuteCombination. The
  /// sink accumulates full chunks, so for a full drain this is
  /// ceil(sink rows / batch size): deterministic for a given plan and
  /// batch size. An event count, not work: stays out of TotalWork() —
  /// every row a batch carries is already priced by the row counters
  /// above.
  uint64_t batches_emitted = 0;
  /// Always 0: the executor is serial and nothing dispatches morsels any
  /// more. Kept only because the end-to-end benchmark reads it and the
  /// sys$statements column of the same name mirrors it; both are due to
  /// go in the next change to the benchmark. Stays out of TotalWork().
  uint64_t morsels_dispatched = 0;
  /// High-water mark of combination-phase rows held live at once:
  /// blocking buffers (division input, dedup sinks) on the pipeline,
  /// every intermediate join/union/projection relation under
  /// ExecuteCombination. Collection structures are excluded — both share
  /// them. A memory measure, not work: stays out of
  /// TotalWork() and accumulates by maximum, not sum.
  uint64_t peak_intermediate_rows = 0;

  /// The one place that knows which fields accumulate by sum and which by
  /// maximum (peak_intermediate_rows is a high-water mark, not a flow).
  /// Every accumulation of one ExecStats into another must go through
  /// here — hand-summing fields is exactly the misuse that silently turns
  /// a peak into a total.
  void Merge(const ExecStats& o);

  ExecStats& operator+=(const ExecStats& o) {
    Merge(o);
    return *this;
  }

  /// Aggregate "work" measure used by bench shape checks and the cost
  /// model: everything the evaluator touched. Defined as the sum of
  ///   elements_scanned      (collection-phase relation reads)
  /// + index_probes          (transient/permanent index lookups)
  /// + single_list_refs      (refs materialised into single lists)
  /// + indirect_join_refs    (refs materialised into indirect joins)
  /// + combination_rows      (rows built while joining/unioning/projecting)
  /// + division_input_rows   (rows fed into relational division)
  /// + quantifier_probes     (strategy-4 value-list probes)
  /// + comparisons           (join-term comparisons evaluated)
  /// + dereferences          (construction-phase dereferences)
  /// so collection-phase materialisation is visible alongside scan and
  /// combination work. relations_read, replans and permanent_index_hits
  /// are event counts, and structure_elements_built re-counts work
  /// already priced; both stay out of the sum.
  uint64_t TotalWork() const {
    return elements_scanned + index_probes + single_list_refs +
           indirect_join_refs + combination_rows + division_input_rows +
           quantifier_probes + comparisons + dereferences;
  }

  std::string ToString() const;
};

/// Live-row accounting behind ExecStats::peak_intermediate_rows: every
/// combination-phase materialisation Adds its rows while alive and Subs
/// them when freed; the stats field records the high-water mark. Both
/// combination paths (exec/combination.cc and src/pipeline/) drive one of
/// these, so their peaks are directly comparable.
class PeakTracker {
 public:
  explicit PeakTracker(ExecStats* stats) : stats_(stats) {}

  void Add(uint64_t rows) {
    live_ += rows;
    if (stats_ != nullptr && live_ > stats_->peak_intermediate_rows) {
      stats_->peak_intermediate_rows = live_;
    }
  }

  void Sub(uint64_t rows) { live_ -= rows < live_ ? rows : live_; }

  uint64_t live() const { return live_; }

 private:
  ExecStats* stats_;
  uint64_t live_ = 0;
};

}  // namespace pascalr

#endif  // PASCALR_EXEC_STATS_H_
