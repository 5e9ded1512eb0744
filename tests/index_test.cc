#include "index/hash_index.h"

#include <gtest/gtest.h>

namespace pascalr {
namespace {

Ref R(uint32_t slot) { return Ref{1, slot, 1}; }

TEST(HashIndexTest, AddProbeEq) {
  HashIndex idx("test");
  idx.Add(Value::MakeInt(5), R(0));
  idx.Add(Value::MakeInt(5), R(1));
  idx.Add(Value::MakeInt(7), R(2));
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
  EXPECT_EQ(idx.size(), 1u);
}

TEST(HashIndexTest, OrderingProbesFallBackToScan) {
  HashIndex idx;
  for (int i = 0; i < 10; ++i) {
    idx.Add(Value::MakeInt(i), R(static_cast<uint32_t>(i)));
  }
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
  EXPECT_TRUE(idx.ProbeAny(CompareOp::kEq, Value::MakeString("alpha")));
  EXPECT_FALSE(idx.ProbeAny(CompareOp::kEq, Value::MakeString("gamma")));
}

}  // namespace
}  // namespace pascalr
