#include "refstruct/value_list.h"

#include "base/str_util.h"

namespace pascalr {

ValueList::Mode ValueList::ModeFor(CompareOp op, Quantifier q) {
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return q == Quantifier::kAll ? Mode::kMinOnly : Mode::kMaxOnly;
    case CompareOp::kGt:
    case CompareOp::kGe:
      return q == Quantifier::kAll ? Mode::kMaxOnly : Mode::kMinOnly;
    case CompareOp::kEq:
      return q == Quantifier::kAll ? Mode::kAtMostOne : Mode::kFull;
    case CompareOp::kNe:
      return q == Quantifier::kAll ? Mode::kFull : Mode::kAtMostOne;
  }
  return Mode::kFull;
}

void ValueList::Add(const Value& v) {
  ++count_;
  if (!has_any_) {
    has_any_ = true;
    min_ = v;
    max_ = v;
    the_one_ = v;
  } else {
    if (v < min_) min_ = v;
    if (max_ < v) max_ = v;
    if (!many_distinct_ && v != the_one_) many_distinct_ = true;
  }
  if (mode_ != Mode::kFull) return;
  uint64_t key;
  const bool coded = HashKey(v, &key);
  const bool added = distinct_.InsertUnique(
      key, [&](uint32_t r) { return coded || strings_[r] == v; });
  if (added && !coded) strings_.push_back(v);
}

bool ValueList::Contains(const Value& x) const {
  uint64_t key;
  const bool coded = HashKey(x, &key);
  uint32_t r = distinct_.Find(key);
  if (coded) return r != RowIdTable::kNone;
  for (; r != RowIdTable::kNone; r = distinct_.Next(r)) {
    if (strings_[r] == x) return true;
  }
  return false;
}

size_t ValueList::stored_values() const {
  if (!has_any_) return 0;
  switch (mode_) {
    case Mode::kFull:
      return distinct_.size();
    case Mode::kMinOnly:
    case Mode::kMaxOnly:
      return 1;
    case Mode::kAtMostOne:
      return many_distinct_ ? 2 : 1;  // value + overflow marker
  }
  return 0;
}

Status ValueList::NeedFull(CompareOp op) const {
  if (mode_ == Mode::kFull) return Status::OK();
  return Status::Internal(
      StrFormat("value list in summary mode cannot answer '%s' probe",
                std::string(CompareOpToString(op)).c_str()));
}

Result<bool> ValueList::SatisfiesSome(CompareOp op, const Value& x) const {
  if (!has_any_) return false;  // SOME over the empty list
  switch (op) {
    case CompareOp::kEq:
      // exists w: x = w  <=>  x in list
      PASCALR_RETURN_IF_ERROR(NeedFull(op));
      return Contains(x);
    case CompareOp::kNe:
      // exists w: x <> w  <=>  >=2 distinct values, or the single one != x
      if (mode_ != Mode::kAtMostOne && mode_ != Mode::kFull) {
        return NeedFull(op);
      }
      if (mode_ == Mode::kFull) {
        return distinct_.size() >= 2 || !Contains(x);
      }
      return many_distinct_ || the_one_ != x;
    case CompareOp::kLt:
      // exists w: x < w  <=>  x < max
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return x < max_;
    case CompareOp::kLe:
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return x.Compare(max_) <= 0;
    case CompareOp::kGt:
      // exists w: x > w  <=>  x > min
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return min_ < x;
    case CompareOp::kGe:
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return x.Compare(min_) >= 0;
  }
  return Status::Internal("unknown comparison operator");
}

Result<bool> ValueList::SatisfiesAll(CompareOp op, const Value& x) const {
  if (!has_any_) return true;  // ALL over the empty list (vacuous)
  switch (op) {
    case CompareOp::kEq:
      // all w: x = w  <=>  exactly one distinct value and it is x
      if (mode_ != Mode::kAtMostOne && mode_ != Mode::kFull) {
        return NeedFull(op);
      }
      if (mode_ == Mode::kFull) {
        return distinct_.size() == 1 && Contains(x);
      }
      return !many_distinct_ && the_one_ == x;
    case CompareOp::kNe:
      // all w: x <> w  <=>  x not in list
      PASCALR_RETURN_IF_ERROR(NeedFull(op));
      return !Contains(x);
    case CompareOp::kLt:
      // all w: x < w  <=>  x < min
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return x < min_;
    case CompareOp::kLe:
      if (mode_ == Mode::kMaxOnly) return NeedFull(op);
      return x.Compare(min_) <= 0;
    case CompareOp::kGt:
      // all w: x > w  <=>  x > max
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return max_ < x;
    case CompareOp::kGe:
      if (mode_ == Mode::kMinOnly) return NeedFull(op);
      return x.Compare(max_) >= 0;
  }
  return Status::Internal("unknown comparison operator");
}

std::string ValueList::DebugString() const {
  const char* mode_name = "";
  switch (mode_) {
    case Mode::kFull: mode_name = "full"; break;
    case Mode::kMinOnly: mode_name = "min"; break;
    case Mode::kMaxOnly: mode_name = "max"; break;
    case Mode::kAtMostOne: mode_name = "one"; break;
  }
  return StrFormat("value_list(mode=%s, added=%zu, stored=%zu)", mode_name,
                   count_, stored_values());
}

}  // namespace pascalr
