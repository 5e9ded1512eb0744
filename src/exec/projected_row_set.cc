#include "exec/projected_row_set.h"

#include "base/str_util.h"

namespace pascalr {

uint64_t ProjectedRowSet::Hash(const Value* const* row, size_t arity) {
  uint64_t h = 0;
  for (size_t i = 0; i < arity; ++i) h = HashCombine(h, row[i]->Hash());
  return h;
}

bool ProjectedRowSet::InsertPrehashed(uint64_t hash, const Value* const* row) {
  const bool added = table_.InsertUnique(hash, [&](uint32_t r) {
    const Value* kept = this->row(r);
    for (size_t i = 0; i < arity_; ++i) {
      if (kept[i] != *row[i]) return false;
    }
    return true;
  });
  if (added) {
    for (size_t i = 0; i < arity_; ++i) arena_.push_back(*row[i]);
  }
  return added;
}

}  // namespace pascalr
