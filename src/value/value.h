// Dynamic component values. A Value is untyped storage (int64 / string /
// bool / enum-ordinal); the Schema supplies the Type when validation or
// printing needs it. Comparison order matches PASCAL semantics: integer
// order, lexicographic string order, declaration order for enums.

#ifndef PASCALR_VALUE_VALUE_H_
#define PASCALR_VALUE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "base/status.h"
#include "base/str_util.h"
#include "value/type.h"

namespace pascalr {

/// Comparison operators of the calculus (paper §2: =, <>, <, <=, >, >=).
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// The operator with operand sides swapped: a op b  <=>  b Mirror(op) a.
CompareOp MirrorOp(CompareOp op);
/// The complement: NOT (a op b)  <=>  a Negate(op) b.
CompareOp NegateOp(CompareOp op);
/// "=", "<>", "<", "<=", ">", ">=".
std::string_view CompareOpToString(CompareOp op);
/// Whether a three-way comparison result `c` (<0, 0, >0) satisfies `op`:
/// `a op b` holds iff OrderSatisfies(op, a.Compare(b)).
bool OrderSatisfies(CompareOp op, int c);

class Value {
 public:
  Value() : rep_(int64_t{0}) {}

  static Value MakeInt(int64_t v) { return Value(v); }
  static Value MakeString(std::string v) { return Value(std::move(v)); }
  static Value MakeBool(bool v) { return Value(v); }
  /// Enum values store the ordinal; Type/EnumInfo supplies labels.
  static Value MakeEnum(int32_t ordinal) { return Value(EnumRep{ordinal}); }

  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }
  bool is_bool() const { return std::holds_alternative<bool>(rep_); }
  bool is_enum() const { return std::holds_alternative<EnumRep>(rep_); }

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  bool AsBool() const { return std::get<bool>(rep_); }
  int32_t AsEnumOrdinal() const { return std::get<EnumRep>(rep_).ordinal; }

  /// True if both values hold the same representation kind.
  bool SameKind(const Value& other) const {
    return rep_.index() == other.rep_.index();
  }

  /// Three-way comparison; requires both values to hold the same
  /// representation kind (the binder guarantees this for bound queries).
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Applies a comparison operator.
  bool Satisfies(CompareOp op, const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// The value's int64 code: an int as it is, an enum's ordinal, a bool
  /// as 0/1. Within a kind, code order is Compare order, so equal codes
  /// mean equal values. False for a string, which has no code.
  bool Code(int64_t* code) const {
    if (const int64_t* i = std::get_if<int64_t>(&rep_)) {
      *code = *i;
    } else if (const EnumRep* e = std::get_if<EnumRep>(&rep_)) {
      *code = e->ordinal;
    } else if (const bool* b = std::get_if<bool>(&rep_)) {
      *code = *b ? 1 : 0;
    } else {
      return false;
    }
    return true;
  }

  uint64_t Hash() const;

  /// Raw rendering: ints as digits, strings quoted, enums as #ordinal.
  /// Use ToStringTyped for label-aware rendering.
  std::string ToString() const;
  /// Label-aware rendering given the component type.
  std::string ToStringTyped(const Type& type) const;

 private:
  struct EnumRep {
    int32_t ordinal;
    bool operator==(const EnumRep& o) const { return ordinal == o.ordinal; }
  };
  using Rep = std::variant<int64_t, std::string, bool, EnumRep>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

}  // namespace pascalr

#endif  // PASCALR_VALUE_VALUE_H_
