#include "refstruct/row_id_table.h"

#include <algorithm>

#include "base/logging.h"

namespace pascalr {

void RowIdTable::Reserve(size_t rows) {
  // Geometric, not exact: callers reserve once per chunk, and an exact
  // reserve would reallocate and copy every row id each time.
  const size_t needed = next_.size() + rows;
  if (needed > next_.capacity()) {
    next_.reserve(std::max(needed, 2 * next_.capacity()));
  }
  // Every new row may bring a new hash; keep the load at most 1/2.
  size_t slots = std::max(kMinSlots, slots_.size());
  while (slots < 2 * (distinct_ + rows)) slots *= 2;
  if (slots > slots_.size()) Rehash(slots);
}

void RowIdTable::Link(size_t slot, uint64_t h) {
  PASCALR_DCHECK(next_.size() < kNone) << "row ids are 32-bit";
  const uint32_t row = static_cast<uint32_t>(next_.size());
  next_.push_back(kNone);
  Slot& s = slots_[slot];
  if (s.head != kNone) {
    next_[s.tail] = row;
    s.tail = row;
    return;
  }
  s = Slot{h, row, row};
  if (++distinct_ * 2 > slots_.size()) Rehash(slots_.size() * 2);
}

void RowIdTable::Rehash(size_t slots) {
  std::vector<Slot> old(slots);
  old.swap(slots_);
  shift_ = 64;
  for (size_t n = slots; n > 1; n /= 2) --shift_;
  for (const Slot& s : old) {
    if (s.head != kNone) slots_[Probe(s.hash)] = s;
  }
}

void RowIdTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot());
  next_.clear();
  distinct_ = 0;
}

}  // namespace pascalr
