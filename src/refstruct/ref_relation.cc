#include "refstruct/ref_relation.h"

#include "base/str_util.h"

namespace pascalr {

int RefRelation::ColumnIndex(const std::string& var) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

uint64_t RefRelation::HashRow(RowView row) {
  uint64_t h = kRowHashSeed;
  for (const Ref& r : row) h = HashCombine(h, r.Hash());
  return h;
}

const RefRow& RefRelation::row(size_t r) const {
  for (size_t i = row_copies_.size(); i < size(); ++i) {
    row_copies_.push_back((*this)[i].ToRow());
  }
  return row_copies_[r];
}

bool RefRelation::Add(RowView row) {
  PASCALR_DCHECK(row.size() == columns_.size());
  const bool added = table_.InsertUnique(
      HashRow(row), [&](uint32_t r) { return RowEquals(r, row); });
  if (added) refs_.insert(refs_.end(), row.begin(), row.end());
  return added;
}

bool RefRelation::ContainsPrehashed(uint64_t hash, RowView row) const {
  for (uint32_t r = table_.Find(hash); r != RowIdTable::kNone;
       r = table_.Next(r)) {
    if (RowEquals(r, row)) return true;
  }
  return false;
}

void RefRelation::Clear() {
  refs_.clear();
  table_.Clear();
  row_copies_.clear();
}

std::string RefRelation::DebugString(size_t max_rows) const {
  std::string out = "(" + Join(columns_, ",") + ") {";
  for (size_t i = 0; i < size() && i < max_rows; ++i) {
    if (i > 0) out += ", ";
    std::vector<std::string> parts;
    for (const Ref& r : (*this)[i]) parts.push_back(r.ToString());
    out += "<" + Join(parts, ",") + ">";
  }
  if (size() > max_rows) out += ", ...";
  out += StrFormat("} %zu rows", size());
  return out;
}

}  // namespace pascalr
