#include "refstruct/division.h"

#include <unordered_map>
#include <unordered_set>

#include "base/str_util.h"
#include "refstruct/ops.h"

namespace pascalr {

namespace {

struct GroupKeyHash {
  uint64_t operator()(const RefRow& row) const {
    uint64_t h = 0x84222325ULL;
    for (const Ref& r : row) h = HashCombine(h, r.Hash());
    return h;
  }
};

/// The output columns: every column of `table` but the divided one.
std::vector<std::string> KeptColumns(const RefRelation& table, int var_pos) {
  std::vector<std::string> keep;
  for (size_t i = 0; i < table.columns().size(); ++i) {
    if (static_cast<int>(i) != var_pos) keep.push_back(table.columns()[i]);
  }
  return keep;
}

/// Writes `row` minus its `var_pos` column into `*out` (a reused scratch).
void ProjectAway(RowView row, int var_pos, RefRow* out) {
  out->clear();
  for (size_t i = 0; i < row.size(); ++i) {
    if (static_cast<int>(i) != var_pos) out->push_back(row[i]);
  }
}

/// Vacuous truth (an empty divisor): every projected row qualifies.
RefRelation ProjectAll(const RefRelation& table, int var_pos) {
  RefRelation out(KeptColumns(table, var_pos));
  RefRow projected;
  for (const RowView row : table.rows()) {
    ProjectAway(row, var_pos, &projected);
    out.Add(projected);
  }
  return out;
}

}  // namespace

Result<RefRelation> Divide(const RefRelation& table, const std::string& var,
                           const std::vector<Ref>& divisor, ExecStats* stats) {
  int var_pos = table.ColumnIndex(var);
  if (var_pos < 0) {
    return Status::InvalidArgument("division variable '" + var +
                                   "' is not a column of the table");
  }
  std::unordered_set<Ref, RefHash> divisor_set(divisor.begin(), divisor.end());
  if (divisor_set.empty()) return ProjectAll(table, var_pos);
  RefRelation out(KeptColumns(table, var_pos));

  // Group rows by the remaining columns and count each group's divisor
  // matches. `table` is a set, so a (group, divisor ref) pair occurs at
  // most once and a group qualifies when its count reaches |divisor|. The
  // key is assembled in a scratch row and copied only when it opens a new
  // group.
  std::unordered_map<RefRow, size_t, GroupKeyHash> groups;
  RefRow key;
  for (const RowView row : table.rows()) {
    if (stats != nullptr) ++stats->division_input_rows;
    const Ref& v = row[static_cast<size_t>(var_pos)];
    if (divisor_set.find(v) == divisor_set.end()) continue;
    ProjectAway(row, var_pos, &key);
    ++groups[key];
  }
  for (const auto& [group, matched] : groups) {
    if (matched == divisor_set.size()) {
      if (out.Add(group) && stats != nullptr) ++stats->combination_rows;
    }
  }
  return out;
}

}  // namespace pascalr
