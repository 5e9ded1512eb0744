// ProjectedRowSet: the cursor's value-level duplicate elimination (paper
// §3.3 step 3, "drop duplicate values").
//
// A set of fixed-arity value rows. The distinct rows live back to back in
// one flat arena of Values (row r at [r * arity, (r + 1) * arity)), and a
// RowIdTable keyed by the fold of the row's Value hashes indexes them.
// Candidates arrive as `const Value*`s into the dereferenced tuples, so a
// duplicate is rejected without copying anything; only a new row is copied,
// once, into the arena. The arena owns its copies, so the set never reads a
// relation again after the insert that admitted a row.

#ifndef PASCALR_EXEC_PROJECTED_ROW_SET_H_
#define PASCALR_EXEC_PROJECTED_ROW_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "refstruct/row_id_table.h"
#include "value/value.h"

namespace pascalr {

class ProjectedRowSet {
 public:
  explicit ProjectedRowSet(size_t arity = 0) : arity_(arity) {}

  /// Distinct rows inserted so far.
  size_t size() const { return table_.size(); }

  /// Sizes the index for a chunk of `rows` candidate rows
  /// (RowIdTable::ReserveChunk).
  void ReserveChunk(size_t rows) { table_.ReserveChunk(rows); }

  /// Inserts the row whose i-th value is *row[i] (i < arity) unless an
  /// equal row is present; returns true if it was new. `row` is read, not
  /// kept, and must not point into this set.
  bool Insert(const Value* const* row) {
    return InsertPrehashed(Hash(row, arity_), row);
  }
  /// Insert with a caller-computed hash: equal rows must carry equal
  /// hashes. Rows that share a hash but differ are all kept.
  bool InsertPrehashed(uint64_t hash, const Value* const* row);

  /// Distinct row r's values (arity of them), in insertion order.
  const Value* row(size_t r) const { return arena_.data() + r * arity_; }

 private:
  /// The fold of the row's Value hashes.
  static uint64_t Hash(const Value* const* row, size_t arity);

  size_t arity_;
  std::vector<Value> arena_;  ///< distinct rows, back to back
  RowIdTable table_;          ///< row hash -> row ids
};

}  // namespace pascalr

#endif  // PASCALR_EXEC_PROJECTED_ROW_SET_H_
