#include "refstruct/division.h"

#include <algorithm>
#include <numeric>
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

Result<RefRelation> DivideHash(const RefRelation& table, int var_pos,
                               const std::vector<Ref>& divisor,
                               ExecStats* stats) {
  std::unordered_set<Ref, RefHash> divisor_set(divisor.begin(), divisor.end());
  if (divisor_set.empty()) return ProjectAll(table, var_pos);
  RefRelation out(KeptColumns(table, var_pos));

  // Group rows by the remaining columns; a group qualifies when it has
  // matched |divisor| distinct divisor refs. The key is assembled in a
  // scratch row and copied only when it opens a new group.
  std::unordered_map<RefRow, std::unordered_set<Ref, RefHash>, GroupKeyHash>
      groups;
  RefRow key;
  for (const RowView row : table.rows()) {
    if (stats != nullptr) ++stats->division_input_rows;
    const Ref& v = row[static_cast<size_t>(var_pos)];
    if (divisor_set.find(v) == divisor_set.end()) continue;
    ProjectAway(row, var_pos, &key);
    groups.try_emplace(key).first->second.insert(v);
  }
  for (auto& [group, matched] : groups) {
    if (matched.size() == divisor_set.size()) {
      if (out.Add(group) && stats != nullptr) ++stats->combination_rows;
    }
  }
  return out;
}

Result<RefRelation> DivideSort(const RefRelation& table, int var_pos,
                               const std::vector<Ref>& divisor,
                               ExecStats* stats) {
  std::vector<Ref> sorted_divisor = divisor;
  std::sort(sorted_divisor.begin(), sorted_divisor.end());
  sorted_divisor.erase(
      std::unique(sorted_divisor.begin(), sorted_divisor.end()),
      sorted_divisor.end());
  if (sorted_divisor.empty()) return ProjectAll(table, var_pos);
  RefRelation out(KeptColumns(table, var_pos));

  // Sort row ids by (remaining columns, var column) — the rows stay in
  // place — and verify each group by merging against the sorted divisor.
  const size_t var = static_cast<size_t>(var_pos);
  std::vector<uint32_t> order(table.size());
  std::iota(order.begin(), order.end(), 0u);
  auto cmp = [&table, var](uint32_t x, uint32_t y) {
    const RowView a = table[x];
    const RowView b = table[y];
    for (size_t i = 0; i < a.size(); ++i) {
      if (i == var) continue;
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return a[var] < b[var];
  };
  std::sort(order.begin(), order.end(), cmp);

  auto same_group = [var](RowView a, RowView b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (i == var) continue;
      if (a[i] != b[i]) return false;
    }
    return true;
  };

  RefRow projected;
  size_t i = 0;
  while (i < order.size()) {
    const RowView first = table[order[i]];
    size_t j = i;
    size_t matched = 0;
    size_t d = 0;
    while (j < order.size() && same_group(first, table[order[j]])) {
      if (stats != nullptr) ++stats->division_input_rows;
      const Ref& v = table[order[j]][var];
      while (d < sorted_divisor.size() && sorted_divisor[d] < v) ++d;
      if (d < sorted_divisor.size() && sorted_divisor[d] == v) {
        ++matched;
        ++d;
      }
      ++j;
    }
    if (matched == sorted_divisor.size()) {
      ProjectAway(first, var_pos, &projected);
      if (out.Add(projected) && stats != nullptr) ++stats->combination_rows;
    }
    i = j;
  }
  return out;
}

}  // namespace

Result<RefRelation> Divide(const RefRelation& table, const std::string& var,
                           const std::vector<Ref>& divisor, ExecStats* stats,
                           DivisionAlgorithm algorithm) {
  int var_pos = table.ColumnIndex(var);
  if (var_pos < 0) {
    return Status::InvalidArgument("division variable '" + var +
                                   "' is not a column of the table");
  }
  switch (algorithm) {
    case DivisionAlgorithm::kHash:
      return DivideHash(table, var_pos, divisor, stats);
    case DivisionAlgorithm::kSort:
      return DivideSort(table, var_pos, divisor, stats);
  }
  return Status::Internal("unknown division algorithm");
}

}  // namespace pascalr
