// SortedIndex: the ordered ComponentIndex, built once and then probed.
//
// Paper §3.2 builds a component index (ind_t_cnr, Example 3.1's enrindex)
// in one step of the collection phase and afterwards only probes it; the
// engine does the same. Transient indexes are filled by one collection
// pass, permanent ones are rebuilt from scratch when stale. So the index
// is one flat run of (value, ref) entries: Add appends, Seal sorts the run
// by (value, ref) and drops duplicate pairs, and every probe is answered
// from at most two binary searches over the sealed run.
//
// Visit order is ascending value, then ascending ref within a value.
// Every build feeds refs in ascending slot order (Relation::Scan walks
// slots upward), and Ref's order is (relation, slot), so within a value
// this is also the order the refs were added in.
//
// Add after Seal is allowed and unseals the run: under strategy 0 two
// terms with the same build side share one index and build it twice, so
// the same pairs arrive again and the next Seal collapses them.

#ifndef PASCALR_INDEX_SORTED_INDEX_H_
#define PASCALR_INDEX_SORTED_INDEX_H_

#include <vector>

#include "index/index.h"

namespace pascalr {

class SortedIndex : public ComponentIndex {
 public:
  explicit SortedIndex(std::string name = "sorted")
      : name_(std::move(name)) {}

  /// Appends (v, ref); the index must be sealed again before a probe.
  void Add(const Value& v, const Ref& ref) override;
  /// Sorts the run by (value, ref) and drops duplicate pairs.
  void Seal() override;
  /// Distinct (value, ref) pairs once sealed.
  size_t size() const override { return entries_.size(); }

  /// Binary-searches lo, the first entry with value >= probe; `=` walks
  /// forward from lo over the equal values. The other operators also find
  /// hi, the first entry with value > probe, and visit [0, lo) for `<`,
  /// [0, hi) for `<=`, [hi, n) for `>`, [lo, n) for `>=`, and [0, lo)
  /// then [hi, n) for `<>`.
  void Probe(CompareOp op, const Value& probe,
             const std::function<bool(const Ref&)>& visit) const override;

  std::string name() const override { return name_; }

 private:
  struct Entry {
    Value value;
    Ref ref;
  };

  std::string name_;
  std::vector<Entry> entries_;
  bool sealed_ = false;
};

}  // namespace pascalr

#endif  // PASCALR_INDEX_SORTED_INDEX_H_
