// HashIndex: the equality-optimised ComponentIndex, built once and then
// probed (paper §3.2's ind_t_cnr; a permanent index when the catalog
// keeps one).
//
// Key rule: an entry's key is HashKey(value) (index/index.h) — the
// value's int64 code for an int, enum or bool component, Value::Hash()
// for a string. A coded index keeps no values: one key is one value, so
// a hash chain holds exactly the entries of one value and `=` needs no
// Compare. A string index also keeps each entry's value, and `=` compares
// it to tell colliding strings apart.
//
// Layout: the entries live in flat arrays, keys_ and refs_ (plus values_
// for strings), entry e being (keys_[e], refs_[e]) in insertion order,
// and a RowIdTable over the keys chains the entries of each key — the
// layout of RefRelation and ProjectedRowSet.
//
// Build at Seal: Add only appends. Seal sizes the table once for every
// entry added since the last Seal (RowIdTable::Reserve), then links them
// in order, dropping repeated (value, ref) pairs and compacting the
// arrays in place. A probe of entries added after the last Seal fails a
// CHECK; a sealed index is read-only.
//
// Visit order:
//   - `=` walks one chain and visits the refs whose value equals the
//     probe, in insertion order (for a scan-built index, ascending ref);
//   - every other operator scans all entries in insertion order and
//     tests each one: codes compare as int64s (code order is Compare
//     order), strings with Value::Satisfies. The planner builds a
//     SortedIndex for ordering terms; a hash index answers `<>` and
//     whatever a permanent hash index is asked.
//
// Duplicates: within the first build refs arrive in ascending order, as
// every relation scan feeds them, so a repeated (value, ref) pair can only
// repeat its chain's last entry and Seal compares with that entry alone.
// A build after a Seal searches the whole chain: under strategy 0 two
// terms with the same build side share one index and build it twice, and
// the second build repeats every pair.

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

  /// Appends (v, ref); the next Seal drops it if the pair is stored.
  /// Within the first build, `ref` must not be less than the previous
  /// Add's ref.
  void Add(const Value& v, const Ref& ref) override;
  /// Links the entries added since the last Seal into the table, sized
  /// once for all of them. Later Adds may repeat any stored pair.
  void Seal() override;
  size_t size() const override { return table_.size(); }

  void Probe(CompareOp op, const Value& probe,
             const std::function<bool(const Ref&)>& visit) const override;

  /// Equality is one table lookup for a coded index, a walk of one chain
  /// for a string index; other operators take the generic visitor path.
  bool ProbeAny(CompareOp op, const Value& probe) const override;

  std::string name() const override { return name_; }

 private:
  /// The key of `probe`, after checking that every entry is sealed.
  uint64_t ProbeKey(const Value& probe) const;

  std::string name_ = "hash";
  bool strings_ = false;        ///< entries are strings: values_ is kept
  std::vector<uint64_t> keys_;  ///< entry e's HashKey
  std::vector<Ref> refs_;       ///< entry e's ref
  std::vector<Value> values_;   ///< entry e's value, for strings only
  RowIdTable table_;            ///< key -> sealed entry ids
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_HASH_INDEX_H_
