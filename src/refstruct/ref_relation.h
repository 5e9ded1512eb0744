// RefRelation: a relation whose components are references (paper §3.2).
// Column names are query variable names; a row binds each variable to one
// element of its range relation.
//
//   SINGLE LIST    = RefRelation with one column   (monadic join term)
//   INDIRECT JOIN  = RefRelation with two columns  (dyadic join term)
//
// RefRelations have set semantics: duplicate rows collapse.
//
// Layout: all rows live in one contiguous, arity-strided Ref array — row
// r is the `arity` refs starting at r * arity, in insertion order — and a
// RowIdTable of row ids keyed by the stored row hash indexes them. Rows
// come in two ways:
//
//   - Add deduplicates: it hashes the row, looks it up and appends it only
//     if it is new (the combination operators, ProjectIter, division).
//   - Append takes a row the caller knows to be new and only copies its
//     refs: no hash, no table insert. Collection emits only such rows
//     (exec/collection.h says why), so building a structure never hashes.
//
// The table therefore covers rows [0, n) for some n <= size(): Append
// leaves it behind, and the first Contains, ContainsPrehashed or Add
// after Appends hashes the missing rows in, once. Those are const reads
// that write the table, so a RefRelation must not be read from two
// threads at once: a collection's structures belong to one cursor, and
// only that cursor's pipeline (the membership FilterIter) probes them.
//
// Appending or adding a row allocates only when the arrays grow. Rows are
// read as RowViews: a pointer into the array plus the arity, valid until
// the next Add, Append or Clear.

#ifndef PASCALR_REFSTRUCT_REF_RELATION_H_
#define PASCALR_REFSTRUCT_REF_RELATION_H_

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/status.h"
#include "refstruct/row_id_table.h"
#include "storage/ref.h"

// Bounds checks on the strided layout follow the standard library's: on
// under -D_GLIBCXX_ASSERTIONS (the sanitizer CI job) and in debug builds.
#if defined(_GLIBCXX_ASSERTIONS)
#define PASCALR_ROW_BOUNDS(cond) PASCALR_CHECK(cond)
#else
#define PASCALR_ROW_BOUNDS(cond) PASCALR_DCHECK(cond)
#endif

namespace pascalr {

/// An owned row: scratch rows at the chunk boundary (Chunk::RowAt), keys.
using RefRow = std::vector<Ref>;

/// A read-only row: `size()` refs stored contiguously elsewhere (a
/// RefRelation, a RowSpan, an owned RefRow). Cheap to copy; never owns.
class RowView {
 public:
  RowView() = default;
  RowView(const Ref* data, size_t size) : data_(data), size_(size) {}
  /// Implicit, so an owned row passes wherever a view is taken; the row
  /// must outlive the view.
  RowView(const RefRow& row) : data_(row.data()), size_(row.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Ref* begin() const { return data_; }
  const Ref* end() const { return data_ + size_; }
  const Ref& operator[](size_t i) const {
    PASCALR_ROW_BOUNDS(i < size_) << "column " << i << " of " << size_;
    return data_[i];
  }

  RefRow ToRow() const { return RefRow(begin(), end()); }

  friend bool operator==(RowView a, RowView b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(RowView a, RowView b) { return !(a == b); }

 private:
  const Ref* data_ = nullptr;
  size_t size_ = 0;
};

/// `size()` rows of one arity stored back to back: row r is the `arity`
/// refs at data + r * arity. Iterates as RowViews.
class RowSpan {
 public:
  /// Holds the span's fields, not the span, so it outlives a temporary
  /// RowSpan (`rel.rows().begin()`).
  class Iterator {
   public:
    Iterator(const Ref* data, size_t arity, size_t r)
        : data_(data), arity_(arity), r_(r) {}
    RowView operator*() const { return RowView(data_ + r_ * arity_, arity_); }
    Iterator& operator++() {
      ++r_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return r_ == o.r_; }
    bool operator!=(const Iterator& o) const { return r_ != o.r_; }

   private:
    const Ref* data_;
    size_t arity_;
    size_t r_;
  };

  RowSpan() = default;
  RowSpan(const Ref* data, size_t rows, size_t arity)
      : data_(data), rows_(rows), arity_(arity) {}

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t arity() const { return arity_; }
  RowView operator[](size_t r) const {
    PASCALR_ROW_BOUNDS(r < rows_) << "row " << r << " of " << rows_;
    return RowView(data_ + r * arity_, arity_);
  }
  Iterator begin() const { return Iterator(data_, arity_, 0); }
  Iterator end() const { return Iterator(data_, arity_, rows_); }

 private:
  const Ref* data_ = nullptr;
  size_t rows_ = 0;
  size_t arity_ = 0;
};

class RefRelation {
 public:
  RefRelation() = default;
  explicit RefRelation(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}
  RefRelation(const RefRelation&) = default;
  RefRelation& operator=(const RefRelation&) = default;
  /// A moved-from relation is empty, as its moved-from arrays are.
  RefRelation(RefRelation&& o) noexcept
      : columns_(std::move(o.columns_)),
        refs_(std::move(o.refs_)),
        rows_(std::exchange(o.rows_, 0)),
        table_(std::move(o.table_)),
        row_copies_(std::move(o.row_copies_)) {}
  RefRelation& operator=(RefRelation&& o) noexcept {
    columns_ = std::move(o.columns_);
    refs_ = std::move(o.refs_);
    rows_ = std::exchange(o.rows_, 0);
    table_ = std::move(o.table_);
    row_copies_ = std::move(o.row_copies_);
    return *this;
  }

  /// Convenience constructors mirroring the paper's vocabulary.
  static RefRelation SingleList(std::string var) {
    return RefRelation({std::move(var)});
  }
  static RefRelation IndirectJoin(std::string var_a, std::string var_b) {
    return RefRelation({std::move(var_a), std::move(var_b)});
  }

  size_t arity() const { return columns_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  /// Position of the column bound to `var`, or -1.
  int ColumnIndex(const std::string& var) const;

  size_t size() const { return rows_; }
  bool empty() const { return size() == 0; }
  /// Row r as a view into the flat array.
  RowView operator[](size_t r) const { return rows()[r]; }
  /// Every row, in insertion order.
  RowSpan rows() const { return RowSpan(refs_.data(), size(), arity()); }

  /// Row r as an owned copy, for callers that need a `const RefRow&`.
  /// The copies are made on first use and stay valid until the next Add,
  /// Append or Clear; not for concurrent callers. The engine reads views;
  /// this stays only because bench_e2e/replay.cc binds it.
  const RefRow& row(size_t r) const;

  /// Sizes the dedup index for a chunk of `rows` candidate rows
  /// (RowIdTable::ReserveChunk).
  void ReserveChunk(size_t rows) { table_.ReserveChunk(rows); }

  /// Inserts a row (arity must match); duplicate rows are ignored.
  /// Returns true if the row was new.
  bool Add(RowView row);
  bool Add(std::initializer_list<Ref> refs) {
    return Add(RowView(refs.begin(), refs.size()));
  }

  /// Appends a row the caller guarantees is not in the relation yet
  /// (arity must match): copies its refs, nothing else. Where
  /// PASCALR_ROW_BOUNDS checks (debug builds, -D_GLIBCXX_ASSERTIONS) a
  /// row already present is a fatal error.
  void Append(RowView row);
  void Append(std::initializer_list<Ref> refs) {
    Append(RowView(refs.begin(), refs.size()));
  }

  bool Contains(RowView row) const {
    return ContainsPrehashed(HashRow(row), row);
  }
  bool Contains(std::initializer_list<Ref> refs) const {
    return Contains(RowView(refs.begin(), refs.size()));
  }

  /// Seed of the row hash, public so vectorized probers (the pipeline's
  /// membership filter) can bulk-compute compatible hashes column-wise.
  static constexpr uint64_t kRowHashSeed = 0x9ae16a3b2f90404fULL;

  /// Contains with a caller-computed hash: `hash` must be the fold of
  /// kRowHashSeed with each ref's Hash() in column order (what HashRow
  /// computes). Skips re-hashing on the per-row probe path. Like Contains
  /// and Add, first indexes the rows appended since the last of them.
  bool ContainsPrehashed(uint64_t hash, RowView row) const;

  void Clear();

  /// Total refs stored (rows * arity) — the "size of intermediate
  /// structures" measure the paper's strategies minimise.
  size_t RefCount() const { return refs_.size(); }

  std::string DebugString(size_t max_rows = 8) const;

 private:
  static uint64_t HashRow(RowView row);
  /// Brings table_ up to size(): inserts the rows Append left unindexed.
  void IndexAppended() const;
  bool RowEquals(uint32_t r, RowView row) const {
    return std::equal(row.begin(), row.end(), refs_.data() + r * arity());
  }

  std::vector<std::string> columns_;
  std::vector<Ref> refs_;  ///< row r at [r * arity, (r + 1) * arity)
  size_t rows_ = 0;        ///< rows stored (refs_ alone loses arity 0)
  /// Row hash -> row ids over rows [0, table_.size()); trails rows_ by
  /// the rows appended since the last Contains or Add.
  mutable RowIdTable table_;
  mutable std::vector<RefRow> row_copies_;  ///< row()'s owned copies
};

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_REF_RELATION_H_
