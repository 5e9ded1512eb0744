#include "index/sorted_index.h"

#include <algorithm>

#include "base/logging.h"

namespace pascalr {

namespace {

template <typename It>
bool VisitRun(It first, It last,
              const std::function<bool(const Ref&)>& visit) {
  for (; first != last; ++first) {
    if (!visit(first->ref)) return false;
  }
  return true;
}

}  // namespace

void SortedIndex::Add(const Value& v, const Ref& ref) {
  entries_.push_back(Entry{v, ref});
  sealed_ = false;
}

void SortedIndex::Seal() {
  if (sealed_) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              int c = a.value.Compare(b.value);
              return c != 0 ? c < 0 : a.ref < b.ref;
            });
  entries_.erase(std::unique(entries_.begin(), entries_.end(),
                             [](const Entry& a, const Entry& b) {
                               return a.ref == b.ref && a.value == b.value;
                             }),
                 entries_.end());
  sealed_ = true;
}

void SortedIndex::Probe(CompareOp op, const Value& probe,
                        const std::function<bool(const Ref&)>& visit) const {
  PASCALR_CHECK(sealed_) << "probe of unsealed index " << name_;
  const auto first = entries_.begin();
  const auto last = entries_.end();
  const auto lo = std::lower_bound(
      first, last, probe,
      [](const Entry& e, const Value& x) { return e.value < x; });
  if (op == CompareOp::kEq) {
    // A forward walk over the equal values; no second search.
    for (auto it = lo; it != last && it->value == probe; ++it) {
      if (!visit(it->ref)) return;
    }
    return;
  }
  const auto hi = std::upper_bound(
      lo, last, probe,
      [](const Value& x, const Entry& e) { return x < e.value; });
  switch (op) {
    case CompareOp::kLt:
      VisitRun(first, lo, visit);
      return;
    case CompareOp::kLe:
      VisitRun(first, hi, visit);
      return;
    case CompareOp::kGt:
      VisitRun(hi, last, visit);
      return;
    case CompareOp::kGe:
      VisitRun(lo, last, visit);
      return;
    case CompareOp::kNe:
      if (VisitRun(first, lo, visit)) VisitRun(hi, last, visit);
      return;
    case CompareOp::kEq:
      return;
  }
}

}  // namespace pascalr
