#include "index/sorted_index.h"

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace pascalr {
namespace {

Ref R(uint32_t slot) { return Ref{1, slot, 1}; }

using Pair = std::pair<Value, Ref>;

const CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

/// Brute force: the distinct added pairs whose value v satisfies
/// `v op probe`, in the index's visit order (value, then ref).
std::vector<Ref> Expected(std::vector<Pair> pairs, CompareOp op,
                          const Value& probe) {
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<Ref> out;
  for (const auto& [v, ref] : pairs) {
    if (v.Satisfies(op, probe)) out.push_back(ref);
  }
  return out;
}

/// The refs Probe visits, in visit order.
std::vector<Ref> Visited(const SortedIndex& idx, CompareOp op,
                         const Value& probe) {
  std::vector<Ref> out;
  idx.Probe(op, probe, [&](const Ref& r) {
    out.push_back(r);
    return true;
  });
  return out;
}

size_t DistinctPairs(std::vector<Pair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  return static_cast<size_t>(
      std::unique(pairs.begin(), pairs.end()) - pairs.begin());
}

/// Checks every operator at every probe value against the brute force:
/// the visited refs and their order, ProbeAny, and early stop.
void CheckAgainstBruteForce(const SortedIndex& idx,
                            const std::vector<Pair>& pairs,
                            const std::vector<Value>& probes) {
  for (CompareOp op : kAllOps) {
    for (const Value& probe : probes) {
      const std::string where = std::string("op=") +
                                std::string(CompareOpToString(op)) +
                                " probe=" + probe.ToString();
      const std::vector<Ref> want = Expected(pairs, op, probe);
      EXPECT_EQ(Visited(idx, op, probe), want) << where;
      EXPECT_EQ(idx.ProbeAny(op, probe), !want.empty()) << where;
      // Early stop: a visitor returning false after k refs sees exactly
      // the first k of them.
      const size_t k = std::min<size_t>(want.size(), 3);
      if (k == 0) continue;
      std::vector<Ref> first_k;
      idx.Probe(op, probe, [&](const Ref& r) {
        first_k.push_back(r);
        return first_k.size() < k;
      });
      EXPECT_EQ(first_k, std::vector<Ref>(want.begin(), want.begin() + k))
          << where;
    }
  }
}

/// Builds `n` pairs over `distinct` values made by `make`, each ref
/// added twice, refs in ascending slot order as every scan feeds them.
std::vector<Pair> DuplicateHeavyPairs(size_t n, size_t distinct,
                                      Value (*make)(int64_t)) {
  std::mt19937 rng(11);
  std::vector<Pair> pairs;
  for (uint32_t i = 0; i < n; ++i) {
    Value v = make(static_cast<int64_t>(rng() % distinct));
    pairs.emplace_back(v, R(i));
    pairs.emplace_back(v, R(i));
  }
  return pairs;
}

Value IntOf(int64_t i) { return Value::MakeInt(i * 3 - 10); }
Value StringOf(int64_t i) {
  const size_t prefix = static_cast<size_t>((i + 3) % 3);
  return Value::MakeString(std::string(prefix, 'a') + std::to_string(i));
}
Value EnumOf(int64_t i) { return Value::MakeEnum(static_cast<int32_t>(i)); }

struct KindCase {
  const char* name;
  Value (*make)(int64_t);
};

class SortedIndexKindTest : public ::testing::TestWithParam<KindCase> {};

TEST_P(SortedIndexKindTest, ProbesMatchBruteForceForAllOperators) {
  const size_t kDistinct = 7;
  const std::vector<Pair> pairs =
      DuplicateHeavyPairs(200, kDistinct, GetParam().make);
  SortedIndex idx("t");
  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  idx.Seal();
  EXPECT_EQ(idx.size(), DistinctPairs(pairs));
  EXPECT_EQ(idx.size(), 200u);

  // Every stored value, plus values between and beyond them.
  std::vector<Value> probes;
  for (int64_t i = -1; i <= static_cast<int64_t>(kDistinct); ++i) {
    probes.push_back(GetParam().make(i));
  }
  if (GetParam().make == &IntOf) {
    for (int64_t x : {-100, -9, 0, 1, 100}) probes.push_back(Value::MakeInt(x));
  }
  CheckAgainstBruteForce(idx, pairs, probes);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SortedIndexKindTest,
    ::testing::Values(KindCase{"Int", &IntOf}, KindCase{"String", &StringOf},
                      KindCase{"Enum", &EnumOf}),
    [](const ::testing::TestParamInfo<KindCase>& info) {
      return std::string(info.param.name);
    });

TEST(SortedIndexTest, ProbesMatchReferenceOnRandomInts) {
  SortedIndex idx("t");
  std::mt19937 rng(7);
  std::vector<Pair> pairs;
  for (uint32_t i = 0; i < 300; ++i) {
    Value v = Value::MakeInt(static_cast<int64_t>(rng() % 60));
    pairs.emplace_back(v, R(i));
    idx.Add(v, R(i));
  }
  idx.Seal();
  std::vector<Value> probes;
  for (int64_t probe : {-1, 0, 13, 30, 59, 60, 100}) {
    probes.push_back(Value::MakeInt(probe));
  }
  CheckAgainstBruteForce(idx, pairs, probes);
}

TEST(SortedIndexTest, VisitsInValueThenRefOrder) {
  SortedIndex idx("t");
  std::mt19937 rng(99);
  for (uint32_t i = 0; i < 500; ++i) {
    idx.Add(Value::MakeInt(static_cast<int64_t>(rng() % 200)), R(i));
  }
  idx.Seal();
  EXPECT_EQ(idx.size(), 500u);
  // `<>` of a value no entry holds visits every entry: ascending value,
  // and ascending ref within each value.
  std::vector<Ref> all = Visited(idx, CompareOp::kNe, Value::MakeInt(-1));
  std::vector<Ref> concatenated;
  for (int64_t v = 0; v < 200; ++v) {
    std::vector<Ref> eq = Visited(idx, CompareOp::kEq, Value::MakeInt(v));
    EXPECT_TRUE(std::is_sorted(eq.begin(), eq.end())) << "value " << v;
    concatenated.insert(concatenated.end(), eq.begin(), eq.end());
  }
  EXPECT_EQ(all.size(), 500u);
  EXPECT_EQ(all, concatenated);
}

TEST(SortedIndexTest, DuplicatePairsCollapse) {
  SortedIndex idx("t");
  for (uint32_t i = 0; i < 10; ++i) idx.Add(Value::MakeInt(1), R(i));
  for (uint32_t i = 0; i < 10; ++i) idx.Add(Value::MakeInt(1), R(i));
  idx.Add(Value::MakeInt(2), R(3));
  idx.Seal();
  EXPECT_EQ(idx.size(), 11u);
  EXPECT_EQ(Visited(idx, CompareOp::kEq, Value::MakeInt(1)).size(), 10u);
}

TEST(SortedIndexTest, StringValuesOrderLexicographically) {
  SortedIndex idx("t");
  const char* words[] = {"pear", "apple", "fig", "banana", "cherry"};
  for (uint32_t i = 0; i < 5; ++i) idx.Add(Value::MakeString(words[i]), R(i));
  idx.Seal();
  // apple(1), banana(3), cherry(4), fig(2), pear(0).
  EXPECT_EQ(Visited(idx, CompareOp::kNe, Value::MakeString("")),
            (std::vector<Ref>{R(1), R(3), R(4), R(2), R(0)}));
  // v < "cherry" -> apple, banana.
  EXPECT_EQ(Visited(idx, CompareOp::kLt, Value::MakeString("cherry")),
            (std::vector<Ref>{R(1), R(3)}));
}

TEST(SortedIndexTest, EarlyTerminationOnBoundedProbe) {
  SortedIndex idx("t");
  for (uint32_t i = 0; i < 100; ++i) idx.Add(Value::MakeInt(i), R(i));
  idx.Seal();
  int visited = 0;
  idx.Probe(CompareOp::kEq, Value::MakeInt(3), [&](const Ref&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 1);
  // `<>` stops in its lower half without walking the upper one.
  visited = 0;
  idx.Probe(CompareOp::kNe, Value::MakeInt(50), [&](const Ref&) {
    return ++visited < 2;
  });
  EXPECT_EQ(visited, 2);
}

TEST(SortedIndexTest, EmptyIndexAnswersNothing) {
  SortedIndex idx("t");
  idx.Seal();
  EXPECT_EQ(idx.size(), 0u);
  for (CompareOp op : kAllOps) {
    EXPECT_TRUE(Visited(idx, op, Value::MakeInt(0)).empty());
    EXPECT_FALSE(idx.ProbeAny(op, Value::MakeInt(0)));
  }
}

// Strategy 0 gives two terms with the same build side one shared index
// and builds it once per term, probing it in between: add, seal, probe,
// add the same pairs again, seal again. Answers and size() must not move.
TEST(SortedIndexTest, RebuildWithSamePairsAfterSealKeepsAnswers) {
  const std::vector<Pair> pairs = DuplicateHeavyPairs(64, 5, &IntOf);
  std::vector<Value> probes;
  for (int64_t i = -1; i <= 5; ++i) probes.push_back(IntOf(i));

  SortedIndex idx("t");
  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  idx.Seal();
  const size_t size_after_first = idx.size();
  EXPECT_EQ(size_after_first, DistinctPairs(pairs));
  CheckAgainstBruteForce(idx, pairs, probes);

  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  idx.Seal();
  EXPECT_EQ(idx.size(), size_after_first);
  CheckAgainstBruteForce(idx, pairs, probes);
}

TEST(SortedIndexDeathTest, ProbeOfUnsealedIndexFails) {
  SortedIndex idx("t");
  idx.Add(Value::MakeInt(1), R(0));
  EXPECT_DEATH(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(1)), "unsealed");
  idx.Seal();
  idx.Add(Value::MakeInt(2), R(1));
  EXPECT_DEATH(Visited(idx, CompareOp::kLt, Value::MakeInt(3)), "unsealed");
}

}  // namespace
}  // namespace pascalr
