// ValueList: the collection-phase quantifier structure of paper §4.4.
//
// When strategy 4 evaluates `Q vn IN rel (... vm.c op vn.c ...)` during the
// scan of vm's relation, it first materialises the *value list* of vn's
// joined component — or, per the paper's special cases, only a summary:
//
//   op in {<, <=}   SOME -> only the maximum matters;  ALL -> the minimum
//   op in {>, >=}   SOME -> only the minimum matters;  ALL -> the maximum
//   op = with ALL, op <> with SOME -> at most one distinct value matters
//   op = with SOME, op <> with ALL -> the full (hashed) value set
//
// Probes are phrased from the scanning side: x is vm's component value,
// and the question is "does x op w hold for SOME / ALL w in the list?".
//
// The full set is a RowIdTable with one row per distinct value, keyed by
// HashKey (index/index.h): for an int, enum or bool component the key is
// the value's code, so a membership test is one Find; for strings it is
// Value::Hash() and strings_ keeps each row's value for the collision
// check. Nothing iterates the set.

#ifndef PASCALR_REFSTRUCT_VALUE_LIST_H_
#define PASCALR_REFSTRUCT_VALUE_LIST_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "calculus/ast.h"
#include "index/index.h"
#include "refstruct/row_id_table.h"
#include "value/value.h"

namespace pascalr {

class ValueList {
 public:
  enum class Mode : uint8_t {
    kFull,      ///< hash set + min/max
    kMinOnly,   ///< O(1): minimum and count
    kMaxOnly,   ///< O(1): maximum and count
    kAtMostOne, ///< O(1): first distinct value + "saw a second" flag
  };

  explicit ValueList(Mode mode = Mode::kFull) : mode_(mode) {}

  /// The cheapest mode that can answer `x op w` probes under quantifier
  /// `q` (kSome or kAll).
  static Mode ModeFor(CompareOp op, Quantifier q);

  void Add(const Value& v);

  bool empty() const { return count_ == 0; }
  /// Number of Add() calls (not distinct values).
  size_t count() const { return count_; }
  /// Values actually retained — the storage the paper's special cases
  /// save; kFull returns the distinct count, summaries return <= 2.
  size_t stored_values() const;

  Mode mode() const { return mode_; }

  /// Does `x op w` hold for some w in the list? (false when empty).
  Result<bool> SatisfiesSome(CompareOp op, const Value& x) const;
  /// Does `x op w` hold for all w in the list? (true when empty).
  Result<bool> SatisfiesAll(CompareOp op, const Value& x) const;

  std::string DebugString() const;

 private:
  Status NeedFull(CompareOp op) const;
  /// kFull: whether `x` is in the set.
  bool Contains(const Value& x) const;

  Mode mode_;
  size_t count_ = 0;
  bool has_any_ = false;
  Value min_, max_;
  bool many_distinct_ = false;  ///< kAtMostOne: saw >= 2 distinct values
  Value the_one_;               ///< kAtMostOne: the single distinct value
  RowIdTable distinct_;         ///< kFull: one row per distinct value
  std::vector<Value> strings_;  ///< kFull over strings: row r's value
};

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_VALUE_LIST_H_
