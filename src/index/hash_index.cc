#include "index/hash_index.h"

#include "base/logging.h"

namespace pascalr {

void HashIndex::Add(const Value& v, const Ref& ref) {
  PASCALR_DCHECK(table_.size() != 0 || refs_.empty() || !(ref < refs_.back()))
      << "index " << name_ << ": " << ref.ToString() << " added after "
      << refs_.back().ToString();
  uint64_t key;
  const bool coded = HashKey(v, &key);
  PASCALR_DCHECK(refs_.empty() || coded != strings_)
      << "index " << name_ << ": values of different kinds";
  strings_ = !coded;
  keys_.push_back(key);
  refs_.push_back(ref);
  if (strings_) values_.push_back(v);
}

void HashIndex::Seal() {
  const bool first_build = table_.size() == 0;
  size_t kept = table_.size();
  table_.Reserve(keys_.size() - kept);
  // Entry i links as row `kept` (the table numbers rows in insert order)
  // and moves there; a repeated pair is dropped. Rows below `kept` are
  // final, so `same` only reads entries already in place.
  for (size_t i = kept; i < keys_.size(); ++i) {
    auto same = [&](uint32_t e) {
      return refs_[e] == refs_[i] && (!strings_ || values_[e] == values_[i]);
    };
    const bool added = first_build ? table_.InsertUnlessLast(keys_[i], same)
                                   : table_.InsertUnique(keys_[i], same);
    if (!added) continue;
    if (kept != i) {
      keys_[kept] = keys_[i];
      refs_[kept] = refs_[i];
      if (strings_) values_[kept] = std::move(values_[i]);
    }
    ++kept;
  }
  keys_.resize(kept);
  refs_.resize(kept);
  if (strings_) values_.resize(kept);
}

uint64_t HashIndex::ProbeKey(const Value& probe) const {
  PASCALR_CHECK(keys_.size() == table_.size())
      << "probe of unsealed index " << name_;
  uint64_t key;
  [[maybe_unused]] const bool coded = HashKey(probe, &key);
  PASCALR_DCHECK(refs_.empty() || coded != strings_)
      << "index " << name_ << ": probe of a different kind";
  return key;
}

void HashIndex::Probe(CompareOp op, const Value& probe,
                      const std::function<bool(const Ref&)>& visit) const {
  const uint64_t key = ProbeKey(probe);
  if (op == CompareOp::kEq) {
    for (uint32_t e = table_.Find(key); e != RowIdTable::kNone;
         e = table_.Next(e)) {
      if ((!strings_ || values_[e] == probe) && !visit(refs_[e])) return;
    }
    return;
  }
  if (strings_) {
    for (size_t e = 0; e < refs_.size(); ++e) {
      if (values_[e].Satisfies(op, probe) && !visit(refs_[e])) return;
    }
    return;
  }
  const int64_t x = static_cast<int64_t>(key);
  for (size_t e = 0; e < refs_.size(); ++e) {
    const int64_t v = static_cast<int64_t>(keys_[e]);
    if (OrderSatisfies(op, (v > x) - (v < x)) && !visit(refs_[e])) return;
  }
}

bool HashIndex::ProbeAny(CompareOp op, const Value& probe) const {
  if (op != CompareOp::kEq) return ComponentIndex::ProbeAny(op, probe);
  const uint64_t key = ProbeKey(probe);
  uint32_t e = table_.Find(key);
  if (!strings_) return e != RowIdTable::kNone;
  for (; e != RowIdTable::kNone; e = table_.Next(e)) {
    if (values_[e] == probe) return true;
  }
  return false;
}

}  // namespace pascalr
