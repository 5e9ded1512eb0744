#include "value/value.h"

#include "base/logging.h"

namespace pascalr {

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  PASCALR_DCHECK(rep_.index() == other.rep_.index())
      << "comparing values of different kinds";
  if (is_int()) {
    int64_t a = AsInt(), b = other.AsInt();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string()) {
    return AsString().compare(other.AsString());
  }
  if (is_bool()) {
    int a = AsBool() ? 1 : 0, b = other.AsBool() ? 1 : 0;
    return a - b;
  }
  int32_t a = AsEnumOrdinal(), b = other.AsEnumOrdinal();
  return a < b ? -1 : (a > b ? 1 : 0);
}

bool OrderSatisfies(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

bool Value::Satisfies(CompareOp op, const Value& other) const {
  return OrderSatisfies(op, Compare(other));
}

uint64_t Value::Hash() const {
  uint64_t tag = static_cast<uint64_t>(rep_.index());
  if (is_string()) {
    const std::string& s = AsString();
    return HashCombine(tag, Fnv1a64(s.data(), s.size()));
  }
  uint64_t raw = 0;
  if (is_int()) {
    raw = static_cast<uint64_t>(AsInt());
  } else if (is_bool()) {
    raw = AsBool() ? 1 : 0;
  } else {
    raw = static_cast<uint64_t>(static_cast<uint32_t>(AsEnumOrdinal()));
  }
  return HashCombine(tag, Fnv1a64(&raw, sizeof(raw)));
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  if (is_string()) return "'" + AsString() + "'";
  if (is_bool()) return AsBool() ? "true" : "false";
  return "#" + std::to_string(AsEnumOrdinal());
}

std::string Value::ToStringTyped(const Type& type) const {
  if (is_enum() && type.kind() == TypeKind::kEnum && type.enum_info()) {
    int32_t ord = AsEnumOrdinal();
    const auto& labels = type.enum_info()->labels;
    if (ord >= 0 && static_cast<size_t>(ord) < labels.size()) {
      return labels[static_cast<size_t>(ord)];
    }
  }
  return ToString();
}

}  // namespace pascalr
