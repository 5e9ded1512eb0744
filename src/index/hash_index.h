// HashIndex: equality-optimised ComponentIndex. Non-equality probes fall
// back to a full entry scan (correct, linear); the planner builds a
// SortedIndex when a term uses an ordering operator, but a permanent hash
// index can still serve one.

#ifndef PASCALR_INDEX_HASH_INDEX_H_
#define PASCALR_INDEX_HASH_INDEX_H_

#include <unordered_map>
#include <vector>

#include "index/index.h"

namespace pascalr {

class HashIndex : public ComponentIndex {
 public:
  HashIndex() = default;
  explicit HashIndex(std::string name) : name_(std::move(name)) {}

  void Add(const Value& v, const Ref& ref) override;
  size_t size() const override { return entry_count_; }

  void Probe(CompareOp op, const Value& probe,
             const std::function<bool(const Ref&)>& visit) const override;

  /// Equality is one map lookup (value entries are never empty); other
  /// operators take the generic visitor path.
  bool ProbeAny(CompareOp op, const Value& probe) const override;

  std::string name() const override { return name_; }

 private:
  std::string name_ = "hash";
  std::unordered_map<Value, std::vector<Ref>, ValueHash> map_;
  size_t entry_count_ = 0;
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_HASH_INDEX_H_
