#include "index/hash_index.h"

#include <algorithm>
#include <cstdint>
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

/// The distinct pairs in order of first addition: the hash index's entry
/// order.
std::vector<Pair> FirstOccurrences(const std::vector<Pair>& pairs) {
  std::vector<Pair> out;
  for (const Pair& p : pairs) {
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

/// Brute force: the refs of the distinct added pairs whose value v
/// satisfies `v op probe`, in the index's visit order (insertion order,
/// for every operator).
std::vector<Ref> Expected(const std::vector<Pair>& pairs, CompareOp op,
                          const Value& probe) {
  std::vector<Ref> out;
  for (const auto& [v, ref] : FirstOccurrences(pairs)) {
    if (v.Satisfies(op, probe)) out.push_back(ref);
  }
  return out;
}

/// The refs Probe visits, in visit order.
std::vector<Ref> Visited(const HashIndex& idx, CompareOp op,
                         const Value& probe) {
  std::vector<Ref> out;
  idx.Probe(op, probe, [&](const Ref& r) {
    out.push_back(r);
    return true;
  });
  return out;
}

/// Checks every operator at every probe value against the brute force:
/// the visited refs and their order, ProbeAny, and early stop.
void CheckAgainstBruteForce(const HashIndex& idx,
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

/// `n` pairs over `distinct` values made by `make`, refs in ascending
/// slot order as every scan feeds them; each ref is added twice in a row
/// (a repeated pair can only repeat the previous Add within a build).
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
Value NegativeIntOf(int64_t i) { return Value::MakeInt(-1 - 5 * i); }
/// The int64 extremes and values around zero, in ascending order: stored
/// values are ExtremeIntOf(0..6), the probes -1 and 7 lie beyond them.
Value ExtremeIntOf(int64_t i) {
  static const int64_t kCodes[] = {INT64_MIN,     INT64_MIN + 1, -1000,
                                   -7,            -1,            0,
                                   1,             INT64_MAX - 1, INT64_MAX};
  return Value::MakeInt(kCodes[i + 1]);
}
Value BoolOf(int64_t i) { return Value::MakeBool(i % 2 != 0); }

struct KindCase {
  const char* name;
  Value (*make)(int64_t);
};

class HashIndexKindTest : public ::testing::TestWithParam<KindCase> {};

TEST_P(HashIndexKindTest, ProbesMatchBruteForceForAllOperators) {
  const size_t kDistinct = 7;
  std::vector<Pair> pairs =
      DuplicateHeavyPairs(200, kDistinct, GetParam().make);
  HashIndex idx("t");
  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  idx.Seal();
  EXPECT_EQ(idx.size(), FirstOccurrences(pairs).size());
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

  // A build after the Seal repeats every pair and brings new ones, refs
  // not ascending: the answers are those of the distinct pairs, in order
  // of first addition.
  std::vector<Pair> more;
  for (uint32_t k = 0; k < 20; ++k) {
    more.emplace_back(GetParam().make((k * 5) % kDistinct), R(400 - k));
    more.emplace_back(GetParam().make(k % kDistinct), R(k));
  }
  for (const auto& [v, ref] : more) idx.Add(v, ref);
  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  pairs.insert(pairs.end(), more.begin(), more.end());
  idx.Seal();
  EXPECT_EQ(idx.size(), FirstOccurrences(pairs).size());
  CheckAgainstBruteForce(idx, pairs, probes);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, HashIndexKindTest,
    ::testing::Values(KindCase{"Int", &IntOf}, KindCase{"String", &StringOf},
                      KindCase{"Enum", &EnumOf},
                      KindCase{"NegativeInt", &NegativeIntOf},
                      KindCase{"ExtremeInt", &ExtremeIntOf},
                      KindCase{"Bool", &BoolOf}),
    [](const ::testing::TestParamInfo<KindCase>& info) {
      return std::string(info.param.name);
    });

// Strategy 0 gives two terms with the same build side one shared index
// and builds it once per term, probing it in between: add, seal, probe,
// add the same pairs again, seal again. Answers, their order and size()
// must not move.
TEST(HashIndexTest, RebuildWithSamePairsAfterSealKeepsAnswers) {
  const std::vector<Pair> pairs = DuplicateHeavyPairs(64, 5, &IntOf);
  std::vector<Value> probes;
  for (int64_t i = -1; i <= 5; ++i) probes.push_back(IntOf(i));

  HashIndex idx("t");
  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  idx.Seal();
  const size_t size_after_first = idx.size();
  EXPECT_EQ(size_after_first, 64u);
  CheckAgainstBruteForce(idx, pairs, probes);

  for (const auto& [v, ref] : pairs) idx.Add(v, ref);
  idx.Seal();
  EXPECT_EQ(idx.size(), size_after_first);
  CheckAgainstBruteForce(idx, pairs, probes);

  // A build after a Seal may also bring new pairs, and its refs need not
  // ascend: it searches whole chains.
  idx.Add(IntOf(2), R(500));
  idx.Add(IntOf(0), R(300));
  idx.Add(IntOf(2), R(500));
  idx.Seal();
  std::vector<Pair> more = pairs;
  more.emplace_back(IntOf(2), R(500));
  more.emplace_back(IntOf(0), R(300));
  EXPECT_EQ(idx.size(), FirstOccurrences(more).size());
  CheckAgainstBruteForce(idx, more, probes);
}

TEST(HashIndexTest, EqVisitsInInsertionOrder) {
  HashIndex idx("t");
  std::mt19937 rng(99);
  std::vector<std::vector<Ref>> by_value(50);
  for (uint32_t i = 0; i < 2000; ++i) {
    const int64_t v = static_cast<int64_t>(rng() % 50);
    idx.Add(Value::MakeInt(v), R(i));
    by_value[static_cast<size_t>(v)].push_back(R(i));
  }
  idx.Seal();
  EXPECT_EQ(idx.size(), 2000u);
  for (int64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(Visited(idx, CompareOp::kEq, Value::MakeInt(v)),
              by_value[static_cast<size_t>(v)])
        << "value " << v;
  }
  // Other operators scan the entries in insertion order: `<>` of a value
  // no entry holds visits every ref in the order added.
  std::vector<Ref> all = Visited(idx, CompareOp::kNe, Value::MakeInt(-1));
  ASSERT_EQ(all.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(HashIndexTest, EmptyIndexAnswersNothing) {
  HashIndex idx("t");
  idx.Seal();
  EXPECT_EQ(idx.size(), 0u);
  for (CompareOp op : kAllOps) {
    EXPECT_TRUE(Visited(idx, op, Value::MakeInt(0)).empty());
    EXPECT_FALSE(idx.ProbeAny(op, Value::MakeInt(0)));
  }
}

// Within a build, refs must arrive in ascending order (every scan feeds
// them so); debug builds check it.
#ifndef NDEBUG
TEST(HashIndexDeathTest, DescendingRefWithinABuildFails) {
  HashIndex idx("t");
  idx.Add(Value::MakeInt(1), R(5));
  EXPECT_DEATH(idx.Add(Value::MakeInt(2), R(4)), "added after");
}
#endif

// Add ... Seal ... Probe (index/index.h): entries added after the last
// Seal are not in the table yet, and probing them fails in every build.
TEST(HashIndexDeathTest, ProbeBeforeSealFails) {
  HashIndex idx("t");
  idx.Add(Value::MakeInt(1), R(0));
  EXPECT_DEATH(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(1)),
               "probe of unsealed index t");
  idx.Seal();
  EXPECT_TRUE(idx.ProbeAny(CompareOp::kEq, Value::MakeInt(1)));
  idx.Add(Value::MakeInt(2), R(1));
  EXPECT_DEATH(Visited(idx, CompareOp::kNe, Value::MakeInt(1)),
               "probe of unsealed index t");
}

TEST(HashIndexTest, AddProbeEq) {
  HashIndex idx("test");
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(1));
  idx.Add(Value::MakeInt(7), R(2));
  idx.Seal();
  EXPECT_EQ(idx.size(), 3u);

  std::vector<uint32_t> hits;
  idx.Probe(CompareOp::kEq, Value::MakeInt(5), [&](const Ref& r) {
    hits.push_back(r.slot);
    return true;
  });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1}));
}

TEST(HashIndexTest, DuplicateEntryCollapses) {
  HashIndex idx;
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(0));
  idx.Seal();
  EXPECT_EQ(idx.size(), 1u);
}

TEST(HashIndexTest, OrderingProbesFallBackToScan) {
  HashIndex idx;
  for (int i = 0; i < 10; ++i) {
    idx.Add(Value::MakeInt(i), R(static_cast<uint32_t>(i)));
  }
  idx.Seal();
  // Stored v satisfies `v < 3` -> slots 0,1,2.
  std::vector<uint32_t> hits;
  idx.Probe(CompareOp::kLt, Value::MakeInt(3), [&](const Ref& r) {
    hits.push_back(r.slot);
    return true;
  });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1, 2}));

  hits.clear();
  idx.Probe(CompareOp::kNe, Value::MakeInt(4), [&](const Ref& r) {
    hits.push_back(r.slot);
    return true;
  });
  EXPECT_EQ(hits.size(), 9u);
}

TEST(HashIndexTest, ProbeEarlyStop) {
  HashIndex idx;
  for (int i = 0; i < 10; ++i) idx.Add(Value::MakeInt(1), R(static_cast<uint32_t>(i)));
  idx.Seal();
  int count = 0;
  idx.Probe(CompareOp::kEq, Value::MakeInt(1), [&](const Ref&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3);
}

TEST(HashIndexTest, StringKeys) {
  HashIndex idx;
  idx.Add(Value::MakeString("alpha"), R(0));
  idx.Add(Value::MakeString("beta"), R(1));
  idx.Seal();
  EXPECT_TRUE(idx.ProbeAny(CompareOp::kEq, Value::MakeString("alpha")));
  EXPECT_FALSE(idx.ProbeAny(CompareOp::kEq, Value::MakeString("gamma")));
}

}  // namespace
}  // namespace pascalr
