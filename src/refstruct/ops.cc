#include "refstruct/ops.h"

#include "base/logging.h"
#include "base/str_util.h"

namespace pascalr {

namespace {

uint64_t HashKey(RowView row, const std::vector<int>& positions) {
  uint64_t h = 0x100001b3ULL;
  for (int p : positions) h = HashCombine(h, row[static_cast<size_t>(p)].Hash());
  return h;
}

bool KeyEquals(RowView a, const std::vector<int>& pa, RowView b,
               const std::vector<int>& pb) {
  for (size_t i = 0; i < pa.size(); ++i) {
    if (a[static_cast<size_t>(pa[i])] != b[static_cast<size_t>(pb[i])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

RefRelation NaturalJoin(const RefRelation& a, const RefRelation& b,
                        ExecStats* stats) {
  // Shared columns and the positions of b's non-shared columns.
  std::vector<int> a_shared, b_shared;
  std::vector<int> b_extra;
  for (size_t i = 0; i < b.columns().size(); ++i) {
    int pos = a.ColumnIndex(b.columns()[i]);
    if (pos >= 0) {
      a_shared.push_back(pos);
      b_shared.push_back(static_cast<int>(i));
    } else {
      b_extra.push_back(static_cast<int>(i));
    }
  }

  std::vector<std::string> out_columns = a.columns();
  for (int i : b_extra) out_columns.push_back(b.columns()[static_cast<size_t>(i)]);
  RefRelation out(std::move(out_columns));

  // Build on the smaller side. For symmetry of output column order we
  // always emit a-row followed by b-extras; only the probe direction flips.
  const bool build_a = a.size() <= b.size();
  const RefRelation& build = build_a ? a : b;
  const RefRelation& probe = build_a ? b : a;
  const std::vector<int>& build_key = build_a ? a_shared : b_shared;
  const std::vector<int>& probe_key = build_a ? b_shared : a_shared;

  RowIdTable table;
  table.Reserve(build.size());
  for (const RowView row : build.rows()) table.Insert(HashKey(row, build_key));
  RefRow row;  // the output row under assembly
  for (const RowView pr : probe.rows()) {
    for (uint32_t i = table.Find(HashKey(pr, probe_key));
         i != RowIdTable::kNone; i = table.Next(i)) {
      const RowView br = build[i];
      if (!KeyEquals(br, build_key, pr, probe_key)) continue;
      const RowView a_row = build_a ? br : pr;
      const RowView b_row = build_a ? pr : br;
      row.assign(a_row.begin(), a_row.end());
      for (int e : b_extra) row.push_back(b_row[static_cast<size_t>(e)]);
      if (out.Add(row) && stats != nullptr) ++stats->combination_rows;
    }
  }
  return out;
}

RefRelation ProductWithRefs(const RefRelation& a, const std::string& var,
                            const std::vector<Ref>& refs, ExecStats* stats) {
  PASCALR_DCHECK(a.ColumnIndex(var) < 0) << "variable already bound";
  std::vector<std::string> out_columns = a.columns();
  out_columns.push_back(var);
  RefRelation out(std::move(out_columns));
  RefRow row;
  for (const RowView base : a.rows()) {
    row.assign(base.begin(), base.end());
    row.push_back(Ref());
    for (const Ref& r : refs) {
      row.back() = r;
      if (out.Add(row) && stats != nullptr) ++stats->combination_rows;
    }
  }
  return out;
}

Result<RefRelation> UnionRows(const RefRelation& a, const RefRelation& b,
                              ExecStats* stats) {
  if (a.arity() != b.arity()) {
    return Status::InvalidArgument(
        StrFormat("union of ref relations with arity %zu and %zu", a.arity(),
                  b.arity()));
  }
  std::vector<int> realign;  // out column i comes from b column realign[i]
  for (const std::string& col : a.columns()) {
    int pos = b.ColumnIndex(col);
    if (pos < 0) {
      return Status::InvalidArgument("union operand lacks column '" + col +
                                     "'");
    }
    realign.push_back(pos);
  }
  RefRelation out(a.columns());
  for (const RowView row : a.rows()) {
    if (out.Add(row) && stats != nullptr) ++stats->combination_rows;
  }
  RefRow aligned;
  for (const RowView row : b.rows()) {
    aligned.clear();
    for (int p : realign) aligned.push_back(row[static_cast<size_t>(p)]);
    if (out.Add(aligned) && stats != nullptr) ++stats->combination_rows;
  }
  return out;
}

Result<RefRelation> Project(const RefRelation& a,
                            const std::vector<std::string>& keep,
                            ExecStats* stats) {
  std::vector<int> positions;
  for (const std::string& col : keep) {
    int pos = a.ColumnIndex(col);
    if (pos < 0) {
      return Status::InvalidArgument("projection on unknown column '" + col +
                                     "'");
    }
    positions.push_back(pos);
  }
  RefRelation out(keep);
  RefRow projected;
  for (const RowView row : a.rows()) {
    projected.clear();
    for (int p : positions) projected.push_back(row[static_cast<size_t>(p)]);
    if (out.Add(projected) && stats != nullptr) ++stats->combination_rows;
  }
  return out;
}

}  // namespace pascalr
