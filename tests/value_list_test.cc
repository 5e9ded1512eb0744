#include "refstruct/value_list.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pascalr {
namespace {

Value V(int64_t x) { return Value::MakeInt(x); }

TEST(ValueListModeTest, ModeForMatchesPaperTable) {
  // Paper §4.4: < / <= keep only the max for SOME, the min for ALL;
  // mirrored for > / >=; = with ALL and <> with SOME keep at most one
  // value; the remaining combinations need the full list.
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kLt, Quantifier::kSome),
            ValueList::Mode::kMaxOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kLe, Quantifier::kSome),
            ValueList::Mode::kMaxOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kLt, Quantifier::kAll),
            ValueList::Mode::kMinOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kGt, Quantifier::kSome),
            ValueList::Mode::kMinOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kGe, Quantifier::kAll),
            ValueList::Mode::kMaxOnly);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kEq, Quantifier::kAll),
            ValueList::Mode::kAtMostOne);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kNe, Quantifier::kSome),
            ValueList::Mode::kAtMostOne);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kEq, Quantifier::kSome),
            ValueList::Mode::kFull);
  EXPECT_EQ(ValueList::ModeFor(CompareOp::kNe, Quantifier::kAll),
            ValueList::Mode::kFull);
}

/// For every op, brute-force SOME/ALL truth over a list of ints.
bool BruteSome(const std::vector<int64_t>& list, CompareOp op, int64_t x) {
  for (int64_t w : list) {
    if (V(x).Satisfies(op, V(w))) return true;
  }
  return false;
}
bool BruteAll(const std::vector<int64_t>& list, CompareOp op, int64_t x) {
  for (int64_t w : list) {
    if (!V(x).Satisfies(op, V(w))) return false;
  }
  return true;
}

class ValueListOpTest : public ::testing::TestWithParam<CompareOp> {};

TEST_P(ValueListOpTest, SomeMatchesBruteForceInSufficientMode) {
  CompareOp op = GetParam();
  const std::vector<int64_t> lists[] = {
      {}, {5}, {1, 9}, {3, 3, 3}, {2, 4, 6, 8}};
  for (const auto& list : lists) {
    ValueList vl(ValueList::ModeFor(op, Quantifier::kSome));
    for (int64_t w : list) vl.Add(V(w));
    for (int64_t x = 0; x <= 10; ++x) {
      Result<bool> got = vl.SatisfiesSome(op, V(x));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, BruteSome(list, op, x))
          << "op=" << CompareOpToString(op) << " x=" << x;
    }
  }
}

TEST_P(ValueListOpTest, AllMatchesBruteForceInSufficientMode) {
  CompareOp op = GetParam();
  const std::vector<int64_t> lists[] = {
      {}, {5}, {1, 9}, {3, 3, 3}, {2, 4, 6, 8}};
  for (const auto& list : lists) {
    ValueList vl(ValueList::ModeFor(op, Quantifier::kAll));
    for (int64_t w : list) vl.Add(V(w));
    for (int64_t x = 0; x <= 10; ++x) {
      Result<bool> got = vl.SatisfiesAll(op, V(x));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, BruteAll(list, op, x))
          << "op=" << CompareOpToString(op) << " x=" << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ValueListOpTest,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe));

TEST(ValueListTest, SummaryModesStoreO1Values) {
  ValueList max_only(ValueList::Mode::kMaxOnly);
  for (int i = 0; i < 100; ++i) max_only.Add(V(i));
  EXPECT_EQ(max_only.stored_values(), 1u);
  EXPECT_EQ(max_only.count(), 100u);

  ValueList at_most_one(ValueList::Mode::kAtMostOne);
  for (int i = 0; i < 100; ++i) at_most_one.Add(V(i % 2));
  EXPECT_EQ(at_most_one.stored_values(), 2u);  // value + overflow marker

  ValueList full(ValueList::Mode::kFull);
  for (int i = 0; i < 100; ++i) full.Add(V(i));
  EXPECT_EQ(full.stored_values(), 100u);
}

TEST(ValueListTest, InsufficientModeIsAnInternalError) {
  ValueList min_only(ValueList::Mode::kMinOnly);
  min_only.Add(V(1));
  // kMinOnly cannot answer "exists w: x < w" (needs the max).
  Result<bool> bad = min_only.SatisfiesSome(CompareOp::kLt, V(0));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
  // kEq with SOME needs the full set.
  Result<bool> eq = min_only.SatisfiesSome(CompareOp::kEq, V(1));
  EXPECT_FALSE(eq.ok());
}

TEST(ValueListTest, EmptyListSemantics) {
  ValueList vl(ValueList::Mode::kFull);
  EXPECT_TRUE(vl.empty());
  // SOME over empty = false, ALL over empty = true for every operator.
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(*vl.SatisfiesSome(op, V(3)));
    EXPECT_TRUE(*vl.SatisfiesAll(op, V(3)));
  }
}

TEST(ValueListTest, AtMostOneSemantics) {
  // = with ALL: true iff exactly one distinct value equal to x.
  ValueList single(ValueList::Mode::kAtMostOne);
  single.Add(V(7));
  single.Add(V(7));
  EXPECT_TRUE(*single.SatisfiesAll(CompareOp::kEq, V(7)));
  EXPECT_FALSE(*single.SatisfiesAll(CompareOp::kEq, V(8)));

  ValueList many(ValueList::Mode::kAtMostOne);
  many.Add(V(7));
  many.Add(V(8));
  // Two distinct values: ALL-equal is false for every x...
  EXPECT_FALSE(*many.SatisfiesAll(CompareOp::kEq, V(7)));
  // ...and SOME-different is true for every x.
  EXPECT_TRUE(*many.SatisfiesSome(CompareOp::kNe, V(7)));
}

TEST(ValueListTest, StringValues) {
  ValueList vl(ValueList::Mode::kFull);
  vl.Add(Value::MakeString("b"));
  vl.Add(Value::MakeString("d"));
  EXPECT_TRUE(*vl.SatisfiesSome(CompareOp::kLt, Value::MakeString("c")));
  EXPECT_FALSE(*vl.SatisfiesAll(CompareOp::kLt, Value::MakeString("c")));
  EXPECT_TRUE(*vl.SatisfiesAll(CompareOp::kLe, Value::MakeString("a")));
}

/// Full-mode lists of every value kind, with duplicates and negative
/// codes: `=` and `<>` under SOME and ALL answer as a brute force over the
/// added values does, and stored_values() is the distinct count.
TEST(ValueListTest, FullModeMatchesBruteForceForEveryKind) {
  auto ints = [](std::vector<int64_t> xs) {
    std::vector<Value> out;
    for (int64_t x : xs) out.push_back(V(x));
    return out;
  };
  auto enums = [](std::vector<int32_t> xs) {
    std::vector<Value> out;
    for (int32_t x : xs) out.push_back(Value::MakeEnum(x));
    return out;
  };
  auto strings = [](std::vector<std::string> xs) {
    std::vector<Value> out;
    for (std::string& x : xs) out.push_back(Value::MakeString(std::move(x)));
    return out;
  };
  const std::vector<std::vector<Value>> lists = {
      ints({-3, 7, -3, 0, INT64_MIN, 7, INT64_MAX, -1}),
      ints({-5, -5, -5}),
      ints({-2}),
      enums({2, 0, 2, 3, 0}),
      enums({1, 1}),
      {Value::MakeBool(true), Value::MakeBool(true)},
      {Value::MakeBool(false), Value::MakeBool(true), Value::MakeBool(false)},
      strings({"b", "", "ab", "b", "ba", ""}),
      strings({"x", "x"}),
  };
  const std::vector<Value> probes = {
      V(-3), V(7), V(0), V(INT64_MIN), V(INT64_MAX), V(-1), V(-5), V(-2),
      V(1), V(-4), Value::MakeEnum(0), Value::MakeEnum(1),
      Value::MakeEnum(2), Value::MakeEnum(3), Value::MakeEnum(4),
      Value::MakeBool(false), Value::MakeBool(true), Value::MakeString(""),
      Value::MakeString("b"), Value::MakeString("ab"),
      Value::MakeString("ba"), Value::MakeString("x"),
      Value::MakeString("c")};
  for (const std::vector<Value>& list : lists) {
    ValueList vl(ValueList::Mode::kFull);
    std::vector<Value> distinct;
    for (const Value& w : list) {
      vl.Add(w);
      bool seen = false;
      for (const Value& d : distinct) seen |= d == w;
      if (!seen) distinct.push_back(w);
    }
    EXPECT_EQ(vl.count(), list.size());
    EXPECT_EQ(vl.stored_values(), distinct.size());
    for (const Value& x : probes) {
      if (!x.SameKind(list.front())) continue;
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
        bool some = false, all = true;
        for (const Value& w : list) {
          some |= x.Satisfies(op, w);
          all &= x.Satisfies(op, w);
        }
        const std::string where = "op=" + std::string(CompareOpToString(op)) +
                                  " x=" + x.ToString() +
                                  " list[0]=" + list.front().ToString();
        EXPECT_EQ(*vl.SatisfiesSome(op, x), some) << where;
        EXPECT_EQ(*vl.SatisfiesAll(op, x), all) << where;
      }
    }
  }
}

TEST(ValueListTest, DebugString) {
  ValueList vl(ValueList::Mode::kMaxOnly);
  vl.Add(V(1));
  std::string s = vl.DebugString();
  EXPECT_NE(s.find("mode=max"), std::string::npos);
  EXPECT_NE(s.find("added=1"), std::string::npos);
}

}  // namespace
}  // namespace pascalr
