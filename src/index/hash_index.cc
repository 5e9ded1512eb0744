#include "index/hash_index.h"

#include "base/logging.h"

namespace pascalr {

void HashIndex::Add(const Value& v, const Ref& ref) {
  const uint64_t h = v.Hash();
  auto same = [&](uint32_t e) { return EntryIs(e, v, ref); };
  bool added;
  if (sealed_entries_ == 0) {
    PASCALR_DCHECK(refs_.empty() || !(ref < refs_.back()))
        << "index " << name_ << ": " << ref.ToString() << " added after "
        << refs_.back().ToString();
    added = table_.InsertUnlessLast(h, same);
  } else {
    added = table_.InsertUnique(h, same);
  }
  if (!added) return;
  values_.push_back(v);
  refs_.push_back(ref);
}

void HashIndex::Probe(CompareOp op, const Value& probe,
                      const std::function<bool(const Ref&)>& visit) const {
  if (op == CompareOp::kEq) {
    for (uint32_t e = table_.Find(probe.Hash()); e != RowIdTable::kNone;
         e = table_.Next(e)) {
      if (values_[e] == probe && !visit(refs_[e])) return;
    }
    return;
  }
  for (size_t e = 0; e < refs_.size(); ++e) {
    if (values_[e].Satisfies(op, probe) && !visit(refs_[e])) return;
  }
}

bool HashIndex::ProbeAny(CompareOp op, const Value& probe) const {
  if (op != CompareOp::kEq) return ComponentIndex::ProbeAny(op, probe);
  for (uint32_t e = table_.Find(probe.Hash()); e != RowIdTable::kNone;
       e = table_.Next(e)) {
    if (values_[e] == probe) return true;
  }
  return false;
}

}  // namespace pascalr
