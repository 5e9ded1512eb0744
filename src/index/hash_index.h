// HashIndex: the equality-optimised ComponentIndex, built once and then
// probed (paper §3.2's ind_t_cnr; a permanent index when the catalog
// keeps one).
//
// Layout: the entries live in two flat arrays, values_ and refs_, entry e
// being (values_[e], refs_[e]) in insertion order, and a RowIdTable keyed
// by Value::Hash() chains the entries of each hash — the layout of
// RefRelation and ProjectedRowSet. Adding an entry costs one hash, one
// table insert and two appends; no per-value node or vector.
//
// Visit order:
//   - `=` walks one hash chain and visits the refs whose value equals the
//     probe, in insertion order (for a scan-built index, ascending ref);
//   - every other operator scans all entries in insertion order and
//     tests each value. The planner builds a SortedIndex for ordering
//     terms; a hash index answers `<>` and whatever a permanent hash
//     index is asked.
//
// Duplicates: within one build (the Adds between two Seals) refs arrive
// in ascending order, as every relation scan feeds them, so a repeated
// (value, ref) pair can only repeat its chain's last entry and Add
// compares with that entry alone. An Add after a Seal searches the whole
// chain: under strategy 0 two terms with the same build side share one
// index and build it twice, and the second build repeats every pair.

#ifndef PASCALR_INDEX_HASH_INDEX_H_
#define PASCALR_INDEX_HASH_INDEX_H_

#include <vector>

#include "index/index.h"
#include "refstruct/row_id_table.h"

namespace pascalr {

class HashIndex : public ComponentIndex {
 public:
  HashIndex() = default;
  explicit HashIndex(std::string name) : name_(std::move(name)) {}

  /// Appends (v, ref) unless the pair is already stored. Within a build,
  /// `ref` must not be less than the previous Add's ref.
  void Add(const Value& v, const Ref& ref) override;
  /// Ends a build: later Adds may repeat any stored pair.
  void Seal() override { sealed_entries_ = refs_.size(); }
  size_t size() const override { return refs_.size(); }

  void Probe(CompareOp op, const Value& probe,
             const std::function<bool(const Ref&)>& visit) const override;

  /// Equality walks one hash chain up to the first equal value; other
  /// operators take the generic visitor path.
  bool ProbeAny(CompareOp op, const Value& probe) const override;

  std::string name() const override { return name_; }

 private:
  bool EntryIs(uint32_t e, const Value& v, const Ref& ref) const {
    return refs_[e] == ref && values_[e] == v;
  }

  std::string name_ = "hash";
  std::vector<Value> values_;  ///< entry e's value
  std::vector<Ref> refs_;      ///< entry e's ref
  RowIdTable table_;           ///< Value::Hash() -> entry ids
  size_t sealed_entries_ = 0;  ///< entries stored by the last Seal
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_HASH_INDEX_H_
