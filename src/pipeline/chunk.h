// Chunk: a column-major batch of reference rows — the unit of the
// pipeline's one operator contract. Every operator fills one of these
// per RefIterator::NextBatch call, turning restrictions, gates,
// semi-join marks, and projections into tight loops over Ref arrays:
// one virtual dispatch and zero per-row heap allocations per ~1024 rows
// instead of per row.
//
// Layout: `cols[c][r]` is row r's binding for column c. Selective
// operators (FilterIter) evaluate their predicate into a
// SelectionVector of qualifying row indices first, then gather the
// survivors column-by-column — the classic selection-vector shape.
//
// Capacity discipline: the puller sets `capacity` before each pull
// (the plan's batch size, propagated root-to-leaf; blocking buffers
// drain their input at kDefaultRows); a filler may stop
// early — a short (even length-1) chunk does NOT signal exhaustion,
// only a false return from NextBatch does. Fillers overwrite the chunk
// completely; no state survives in it between pulls.

#ifndef PASCALR_PIPELINE_CHUNK_H_
#define PASCALR_PIPELINE_CHUNK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "refstruct/ref_relation.h"

namespace pascalr {

/// Indices of qualifying rows within a chunk, in row order.
using SelectionVector = std::vector<uint32_t>;

struct Chunk {
  /// Default batch size (`SET BATCH <n>;` overrides per session): large
  /// enough to amortise virtual dispatch, small enough to stay
  /// cache-resident for typical arities.
  static constexpr size_t kDefaultRows = 1024;

  std::vector<std::vector<Ref>> cols;
  size_t rows = 0;
  size_t capacity = kDefaultRows;

  size_t arity() const { return cols.size(); }
  bool full() const { return rows >= capacity; }

  /// Drops all rows and fixes the column count (reserving `capacity`
  /// per column so the fill loops never reallocate).
  void Reset(size_t arity) {
    cols.resize(arity);
    for (std::vector<Ref>& c : cols) {
      c.clear();
      c.reserve(capacity);
    }
    rows = 0;
  }

  /// Copies row r into `*out` (sized to the chunk's arity).
  void RowAt(size_t r, RefRow* out) const {
    out->resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) (*out)[c] = cols[c][r];
  }
};

}  // namespace pascalr

#endif  // PASCALR_PIPELINE_CHUNK_H_
