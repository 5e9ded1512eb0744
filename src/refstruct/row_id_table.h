// RowIdTable: the open-addressing hash table behind every flat reference
// structure — the set-semantics dedup of RefRelation, the entry chains of
// HashIndex and the build side of the hash joins (pipeline ProbeJoinIter,
// refstruct NaturalJoin).
//
// The table stores row *ids*, never rows: the i-th insert is row i, an
// index into the caller's own (flat) row storage. Each slot holds one
// distinct hash, stored, with the first and last row carrying it; rows
// sharing a hash are linked behind the first in insertion order, so every
// row's hash is stored once, in its chain's slot. So
//
//   - a join walks exactly the rows carrying the probe hash, in row order
//     (the caller still verifies the key against 64-bit collisions);
//   - dedup compares a new row only against rows with its hash;
//   - many rows on one join key lengthen a chain, not a probe run, so
//     probes for other keys stay short.
//
// Linear probing at a load factor of at most 1/2 over the distinct
// hashes; a probe step reads one 16-byte slot, and growth moves slots
// without touching the chains. Inserting a row costs one link append and
// one slot write — no per-row heap allocation.

#ifndef PASCALR_REFSTRUCT_ROW_ID_TABLE_H_
#define PASCALR_REFSTRUCT_ROW_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pascalr {

class RowIdTable {
 public:
  /// "No row": an empty slot, the end of a chain, a failed Find.
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Rows inserted so far (the next insert is row size()).
  size_t size() const { return next_.size(); }

  /// Sizes the table for `rows` further rows without regrowth.
  void Reserve(size_t rows);
  /// Reserve for a chunk of `rows` candidates of a deduplicated stream:
  /// all of them while the table is empty, later at most as many as it
  /// already holds, so a stream that has proven mostly duplicates is not
  /// sized for a whole chunk of new rows (Insert still grows on demand).
  void ReserveChunk(size_t rows) {
    Reserve(size() == 0 || rows < size() ? rows : size());
  }

  /// The first row whose stored hash is `h`, or kNone. Next() walks the
  /// others with the same hash, in insertion order.
  uint32_t Find(uint64_t h) const {
    return slots_.empty() ? kNone : slots_[Probe(h)].head;
  }
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Appends row size() with hash `h` (a multimap insert: join builds).
  void Insert(uint64_t h) {
    if (slots_.empty()) Rehash(kMinSlots);
    Link(Probe(h), h);
  }

  /// Appends row size() with hash `h` unless `same(row)` holds for a row
  /// already carrying `h` (a set insert: dedup). Returns true if appended.
  template <typename Same>
  bool InsertUnique(uint64_t h, Same&& same) {
    if (slots_.empty()) Rehash(kMinSlots);
    const size_t s = Probe(h);
    for (uint32_t r = slots_[s].head; r != kNone; r = next_[r]) {
      if (same(r)) return false;
    }
    Link(s, h);
    return true;
  }

  /// InsertUnique for a stream in which a duplicate can only repeat the
  /// latest row carrying its hash: compares `same` with that row alone.
  template <typename Same>
  bool InsertUnlessLast(uint64_t h, Same&& same) {
    if (slots_.empty()) Rehash(kMinSlots);
    const size_t s = Probe(h);
    if (slots_[s].head != kNone && same(slots_[s].tail)) return false;
    Link(s, h);
    return true;
  }

  /// Drops every row; keeps the allocated capacity for reuse.
  void Clear();

 private:
  static constexpr size_t kMinSlots = 16;

  /// One distinct hash and its chain; head == kNone marks an empty slot.
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  /// The slot holding `h`'s chain, or the empty slot where it would go.
  size_t Probe(uint64_t h) const {
    // Fibonacci hashing: the top bits of h * 2^64/phi, so the weak low
    // bits of combined Ref hashes still spread over the slots.
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[s].head != kNone && slots_[s].hash != h) s = (s + 1) & mask;
    return s;
  }
  void Link(size_t slot, uint64_t h);
  /// Moves every chain into `slots` (a power of two) slots.
  void Rehash(size_t slots);

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;  ///< by row: next row with its hash
  size_t distinct_ = 0;         ///< occupied slots
  int shift_ = 64;              ///< 64 - log2(slots_.size())
};

}  // namespace pascalr

#endif  // PASCALR_REFSTRUCT_ROW_ID_TABLE_H_
