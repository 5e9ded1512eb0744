#include "index/hash_index.h"

#include <algorithm>

namespace pascalr {

void HashIndex::Add(const Value& v, const Ref& ref) {
  std::vector<Ref>& refs = map_[v];
  if (std::find(refs.begin(), refs.end(), ref) != refs.end()) return;
  refs.push_back(ref);
  ++entry_count_;
}

void HashIndex::Probe(CompareOp op, const Value& probe,
                      const std::function<bool(const Ref&)>& visit) const {
  if (op == CompareOp::kEq) {
    auto it = map_.find(probe);
    if (it == map_.end()) return;
    for (const Ref& r : it->second) {
      if (!visit(r)) return;
    }
    return;
  }
  // Fallback scan for ordering operators and <>.
  for (const auto& [value, refs] : map_) {
    if (!value.Satisfies(op, probe)) continue;
    for (const Ref& r : refs) {
      if (!visit(r)) return;
    }
  }
}

bool HashIndex::ProbeAny(CompareOp op, const Value& probe) const {
  if (op == CompareOp::kEq) return map_.find(probe) != map_.end();
  return ComponentIndex::ProbeAny(op, probe);
}

}  // namespace pascalr
