// Dense variable ids for one standard form: id i is the i-th variable of
// StandardForm::vars in name order.
//
// Name order is the invariant that keeps the cost model's estimates
// bit-identical to a walk keyed by variable name: iterating columns by id
// visits them in the order a std::map<std::string, ...> did, so every
// floating-point sum and product over variables runs in the same
// sequence. There is no cap on the number of variables; per-variable sets
// are id vectors or std::vector<bool> masks sized by size().

#ifndef PASCALR_NORMALIZE_VAR_IDS_H_
#define PASCALR_NORMALIZE_VAR_IDS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/logging.h"

namespace pascalr {

using VarId = uint32_t;
constexpr VarId kNoVar = std::numeric_limits<VarId>::max();

class VarIds {
 public:
  VarIds() = default;
  /// `vars` is a map keyed by variable name (StandardForm::vars).
  template <typename NameMap>
  explicit VarIds(const NameMap& vars) {
    names_.reserve(vars.size());
    for (const auto& entry : vars) names_.push_back(entry.first);
  }

  /// Ids for `names` (any order, duplicates allowed).
  static VarIds FromNames(std::vector<std::string> names) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    VarIds ids;
    ids.names_ = std::move(names);
    return ids;
  }

  size_t size() const { return names_.size(); }
  const std::string& Name(VarId id) const { return names_[id]; }

  /// The id of `name`, which must be one of the variables.
  VarId Of(const std::string& name) const {
    auto it = std::lower_bound(names_.begin(), names_.end(), name);
    PASCALR_CHECK(it != names_.end() && *it == name);
    return static_cast<VarId>(it - names_.begin());
  }

 private:
  std::vector<std::string> names_;
};

}  // namespace pascalr

#endif  // PASCALR_NORMALIZE_VAR_IDS_H_
