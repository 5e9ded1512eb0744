#include "refstruct/ref_relation.h"

#include <gtest/gtest.h>

#include "base/str_util.h"

namespace pascalr {
namespace {

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

/// The row hash ContainsPrehashed expects, computed as a caller would.
uint64_t RowHash(RowView row) {
  uint64_t h = RefRelation::kRowHashSeed;
  for (const Ref& r : row) h = HashCombine(h, r.Hash());
  return h;
}

TEST(RefTest, EqualityOrderingHash) {
  Ref a{1, 2, 3}, b{1, 2, 3}, c{1, 3, 3}, d{2, 2, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_LT(a, d);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.ToString(), "@1[2]");
}

TEST(RefRelationTest, FactoriesAndColumns) {
  RefRelation sl = RefRelation::SingleList("e");
  EXPECT_EQ(sl.arity(), 1u);
  EXPECT_EQ(sl.ColumnIndex("e"), 0);
  EXPECT_EQ(sl.ColumnIndex("x"), -1);

  RefRelation ij = RefRelation::IndirectJoin("c", "t");
  EXPECT_EQ(ij.arity(), 2u);
  EXPECT_EQ(ij.columns(), (std::vector<std::string>{"c", "t"}));
}

TEST(RefRelationTest, AddDeduplicates) {
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  EXPECT_TRUE(ij.Add({R(1, 0), R(2, 0)}));
  EXPECT_TRUE(ij.Add({R(1, 0), R(2, 1)}));
  EXPECT_FALSE(ij.Add({R(1, 0), R(2, 0)}));  // duplicate row
  EXPECT_EQ(ij.size(), 2u);
  EXPECT_EQ(ij.RefCount(), 4u);
}

TEST(RefRelationTest, Contains) {
  RefRelation sl = RefRelation::SingleList("e");
  sl.Add({R(1, 5)});
  EXPECT_TRUE(sl.Contains({R(1, 5)}));
  EXPECT_FALSE(sl.Contains({R(1, 6)}));
}

TEST(RefRelationTest, GenerationDistinguishesRows) {
  RefRelation sl = RefRelation::SingleList("e");
  EXPECT_TRUE(sl.Add({Ref{1, 0, 1}}));
  EXPECT_TRUE(sl.Add({Ref{1, 0, 2}}));  // same slot, newer generation
  EXPECT_EQ(sl.size(), 2u);
}

TEST(RefRelationTest, ZeroArityUnitRelation) {
  // The unit relation (one empty row) is the join identity used for
  // conjunctions whose structures were all absorbed.
  RefRelation unit{std::vector<std::string>{}};
  EXPECT_TRUE(unit.Add({}));
  EXPECT_FALSE(unit.Add({}));
  EXPECT_EQ(unit.size(), 1u);
}

TEST(RefRelationTest, ClearResets) {
  RefRelation sl = RefRelation::SingleList("e");
  sl.Add({R(1, 0)});
  sl.Clear();
  EXPECT_TRUE(sl.empty());
  EXPECT_TRUE(sl.Add({R(1, 0)}));  // re-add works after clear
}

TEST(RefRelationTest, ManyRowsWithCollidingHashes) {
  RefRelation sl = RefRelation::SingleList("e");
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(sl.Add({R(1, i)}));
  }
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(sl.Add({R(1, i)}));
  }
  EXPECT_EQ(sl.size(), 1000u);
}

// ------------------------------------------------------------ flat layout

// Row i of the growth tests: a ref triple no other i produces, spread
// over several relations so the hashes differ in every component.
RefRow Triple(uint32_t i) {
  return {R(1 + i % 3, i), R(7, i / 5), Ref{2, i * 7919u % 10007u, 1}};
}

TEST(RefRelationTest, InsertionOrderPreservedAcrossGrowth) {
  // 12k rows force many table growths; the flat array must still hold
  // the rows in exactly the order they were first added.
  RefRelation rel({"a", "b", "c"});
  constexpr uint32_t kRows = 12000;
  for (uint32_t i = 0; i < kRows; ++i) ASSERT_TRUE(rel.Add(Triple(i)));
  ASSERT_EQ(rel.size(), kRows);
  EXPECT_EQ(rel.RefCount(), 3u * kRows);
  uint32_t i = 0;
  for (const RowView row : rel.rows()) {
    ASSERT_EQ(row, RowView(Triple(i))) << "row " << i;
    ++i;
  }
  EXPECT_EQ(i, kRows);
  EXPECT_EQ(rel[4711], RowView(Triple(4711)));
  EXPECT_EQ(rel.row(4711), Triple(4711));
}

TEST(RefRelationTest, DuplicatesRejectedBeforeAndAfterGrowth) {
  RefRelation rel = RefRelation::IndirectJoin("a", "b");
  auto pair = [](uint32_t i) { return RefRow{R(1, i), R(2, i % 17)}; };
  for (uint32_t i = 0; i < 10; ++i) ASSERT_TRUE(rel.Add(pair(i)));
  for (uint32_t i = 0; i < 10; ++i) EXPECT_FALSE(rel.Add(pair(i)));
  EXPECT_EQ(rel.size(), 10u);
  for (uint32_t i = 10; i < 10000; ++i) ASSERT_TRUE(rel.Add(pair(i)));
  for (uint32_t i = 0; i < 10000; i += 7) EXPECT_FALSE(rel.Add(pair(i)));
  EXPECT_EQ(rel.size(), 10000u);
  // A row differing in one column only is new.
  EXPECT_TRUE(rel.Add({R(1, 3), R(2, 4)}));
  EXPECT_EQ(rel.size(), 10001u);
}

TEST(RefRelationTest, ArityZeroOneAndThree) {
  RefRelation unit{std::vector<std::string>{}};
  EXPECT_TRUE(unit.Add({}));
  EXPECT_FALSE(unit.Add(RowView()));
  EXPECT_EQ(unit.RefCount(), 0u);
  size_t unit_rows = 0;
  for (const RowView row : unit.rows()) {
    EXPECT_TRUE(row.empty());
    ++unit_rows;
  }
  EXPECT_EQ(unit_rows, 1u);  // the empty row is one row
  EXPECT_TRUE(unit.Contains({}));

  RefRelation sl = RefRelation::SingleList("e");
  EXPECT_TRUE(sl.Add({R(1, 4)}));
  EXPECT_TRUE(sl.Add({R(1, 2)}));
  ASSERT_EQ(sl.size(), 2u);
  EXPECT_EQ(sl[0].size(), 1u);
  EXPECT_EQ(sl[1][0], R(1, 2));

  RefRelation tri({"a", "b", "c"});
  EXPECT_TRUE(tri.Add({R(1, 0), R(2, 0), R(3, 0)}));
  EXPECT_TRUE(tri.Add({R(1, 0), R(2, 0), R(3, 1)}));
  EXPECT_FALSE(tri.Add({R(1, 0), R(2, 0), R(3, 0)}));
  ASSERT_EQ(tri.size(), 2u);
  EXPECT_EQ(tri.RefCount(), 6u);
  EXPECT_EQ(tri[1], RowView(RefRow{R(1, 0), R(2, 0), R(3, 1)}));
  // The second row starts exactly one stride after the first.
  EXPECT_EQ(tri[1].begin(), tri[0].begin() + 3);
}

TEST(RefRelationTest, ClearThenReuse) {
  RefRelation rel = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 5000; ++i) rel.Add({R(1, i), R(2, i)});
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.RefCount(), 0u);
  EXPECT_TRUE(rel.rows().empty());
  EXPECT_FALSE(rel.Contains({R(1, 7), R(2, 7)}));
  // Refill with different rows, then with an old one: order and dedup
  // start from scratch.
  for (uint32_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rel.Add({R(3, 2999 - i), R(2, i)}));
  }
  EXPECT_TRUE(rel.Add({R(1, 7), R(2, 7)}));
  EXPECT_FALSE(rel.Add({R(3, 2999), R(2, 0)}));
  ASSERT_EQ(rel.size(), 3001u);
  EXPECT_EQ(rel[0], RowView(RefRow{R(3, 2999), R(2, 0)}));
  EXPECT_EQ(rel[3000], RowView(RefRow{R(1, 7), R(2, 7)}));
}

TEST(RefRelationTest, ContainsPrehashedAgreesWithContains) {
  RefRelation rel = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 2000; i += 2) rel.Add({R(1, i), R(2, i % 13)});
  size_t present = 0;
  for (uint32_t i = 0; i < 2000; ++i) {
    const RefRow probe{R(1, i), R(2, i % 13)};
    const bool contains = rel.Contains(probe);
    EXPECT_EQ(rel.ContainsPrehashed(RowHash(probe), probe), contains)
        << "row " << i;
    EXPECT_EQ(contains, i % 2 == 0) << "row " << i;
    present += contains ? 1 : 0;
  }
  EXPECT_EQ(present, rel.size());
  // A wrong hash never finds the row.
  const RefRow first{R(1, 0), R(2, 0)};
  EXPECT_FALSE(rel.ContainsPrehashed(RowHash(first) + 1, first));
}

// ---------------------------------------------------------- append-only

TEST(RefRelationAppendTest, AppendThenContains) {
  RefRelation rel = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 3000; ++i) rel.Append({R(1, i), R(2, i % 17)});
  ASSERT_EQ(rel.size(), 3000u);
  EXPECT_EQ(rel.RefCount(), 6000u);
  EXPECT_EQ(rel[2999], RowView(RefRow{R(1, 2999), R(2, 2999 % 17)}));
  for (uint32_t i = 0; i < 3000; i += 7) {
    const RefRow present{R(1, i), R(2, i % 17)};
    const RefRow absent{R(1, i), R(2, (i + 1) % 17)};
    EXPECT_TRUE(rel.Contains(present)) << "row " << i;
    EXPECT_TRUE(rel.ContainsPrehashed(RowHash(present), present));
    EXPECT_FALSE(rel.Contains(absent)) << "row " << i;
    EXPECT_FALSE(rel.ContainsPrehashed(RowHash(absent), absent));
  }
}

TEST(RefRelationAppendTest, AppendAfterContainsExtendsTheIndex) {
  RefRelation sl = RefRelation::SingleList("e");
  for (uint32_t i = 0; i < 100; ++i) sl.Append({R(1, i)});
  EXPECT_TRUE(sl.Contains({R(1, 99)}));
  EXPECT_FALSE(sl.Contains({R(1, 100)}));
  // Rows appended after the index was built are found too, across the
  // index's growth.
  for (uint32_t i = 100; i < 5000; ++i) sl.Append({R(1, i)});
  for (uint32_t i = 0; i < 5000; i += 13) {
    EXPECT_TRUE(sl.Contains({R(1, i)})) << "row " << i;
  }
  EXPECT_FALSE(sl.Contains({R(1, 5000)}));
  sl.Append({R(1, 5000)});
  EXPECT_TRUE(sl.Contains({R(1, 5000)}));
  EXPECT_EQ(sl.size(), 5001u);
}

TEST(RefRelationAppendTest, AddRejectsAnAppendedRow) {
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 1000; ++i) ij.Append({R(1, i), R(2, i)});
  EXPECT_FALSE(ij.Add({R(1, 0), R(2, 0)}));
  EXPECT_FALSE(ij.Add({R(1, 999), R(2, 999)}));
  EXPECT_TRUE(ij.Add({R(1, 0), R(2, 1)}));
  // Appends after an Add are seen by the next Add.
  ij.Append({R(1, 5), R(2, 6)});
  EXPECT_FALSE(ij.Add({R(1, 5), R(2, 6)}));
  EXPECT_FALSE(ij.Add({R(1, 0), R(2, 1)}));
  EXPECT_EQ(ij.size(), 1002u);
  // Insertion order interleaves Appends and Adds as they came.
  EXPECT_EQ(ij[1000], RowView(RefRow{R(1, 0), R(2, 1)}));
  EXPECT_EQ(ij[1001], RowView(RefRow{R(1, 5), R(2, 6)}));
}

TEST(RefRelationAppendTest, ArityZeroAndThree) {
  RefRelation unit{std::vector<std::string>{}};
  unit.Append({});
  EXPECT_EQ(unit.size(), 1u);
  EXPECT_EQ(unit.RefCount(), 0u);
  EXPECT_TRUE(unit.Contains({}));
  EXPECT_FALSE(unit.Add({}));
  size_t unit_rows = 0;
  for (const RowView row : unit.rows()) {
    EXPECT_TRUE(row.empty());
    ++unit_rows;
  }
  EXPECT_EQ(unit_rows, 1u);

  RefRelation tri({"a", "b", "c"});
  for (uint32_t i = 0; i < 500; ++i) {
    tri.Append({R(1, i), R(2, i / 3), R(3, i % 5)});
  }
  ASSERT_EQ(tri.size(), 500u);
  EXPECT_EQ(tri.RefCount(), 1500u);
  EXPECT_EQ(tri[1].begin(), tri[0].begin() + 3);
  EXPECT_EQ(tri[499], RowView(RefRow{R(1, 499), R(2, 166), R(3, 4)}));
  EXPECT_TRUE(tri.Contains({R(1, 7), R(2, 2), R(3, 2)}));
  EXPECT_FALSE(tri.Contains({R(1, 7), R(2, 2), R(3, 3)}));
  EXPECT_FALSE(tri.Add({R(1, 7), R(2, 2), R(3, 2)}));
  EXPECT_EQ(tri.size(), 500u);
}

TEST(RefRelationAppendTest, ClearThenReuse) {
  RefRelation rel = RefRelation::IndirectJoin("a", "b");
  for (uint32_t i = 0; i < 2000; ++i) rel.Append({R(1, i), R(2, i)});
  EXPECT_TRUE(rel.Contains({R(1, 7), R(2, 7)}));
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.RefCount(), 0u);
  EXPECT_FALSE(rel.Contains({R(1, 7), R(2, 7)}));
  // Refill by Append, probe, then Add: the index starts from scratch.
  for (uint32_t i = 0; i < 300; ++i) rel.Append({R(3, i), R(2, i)});
  EXPECT_FALSE(rel.Contains({R(1, 7), R(2, 7)}));
  EXPECT_TRUE(rel.Contains({R(3, 7), R(2, 7)}));
  EXPECT_TRUE(rel.Add({R(1, 7), R(2, 7)}));
  EXPECT_FALSE(rel.Add({R(3, 299), R(2, 299)}));
  ASSERT_EQ(rel.size(), 301u);
  EXPECT_EQ(rel[0], RowView(RefRow{R(3, 0), R(2, 0)}));
}

TEST(RefRelationAppendTest, MovedFromRelationIsEmpty) {
  RefRelation rel = RefRelation::SingleList("e");
  for (uint32_t i = 0; i < 10; ++i) rel.Append({R(1, i)});
  RefRelation moved = std::move(rel);
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_TRUE(moved.Contains({R(1, 9)}));
  EXPECT_EQ(rel.size(), 0u);  // NOLINT(bugprone-use-after-move)
  rel = RefRelation::SingleList("e");
  rel.Append({R(1, 3)});
  EXPECT_TRUE(rel.Contains({R(1, 3)}));
  EXPECT_FALSE(rel.Contains({R(1, 4)}));
}

// Checked builds (debug, or -D_GLIBCXX_ASSERTIONS as in the sanitizer CI
// job) verify that an appended row is new; collection relies on it.
#if !defined(NDEBUG) || defined(_GLIBCXX_ASSERTIONS)
TEST(RefRelationAppendDeathTest, DuplicateAppendFails) {
  RefRelation ij = RefRelation::IndirectJoin("a", "b");
  ij.Append({R(1, 0), R(2, 0)});
  ij.Append({R(1, 0), R(2, 1)});
  EXPECT_DEATH(ij.Append({R(1, 0), R(2, 0)}), "Append of a row already in");
  RefRelation sl = RefRelation::SingleList("e");
  EXPECT_TRUE(sl.Add({R(1, 4)}));
  EXPECT_DEATH(sl.Append({R(1, 4)}), "Append of a row already in");
}
#endif

TEST(RowIdTableTest, ChainsKeepInsertionOrderAcrossGrowth) {
  // 50 distinct hashes, 40 rows each, interleaved: every hash's chain
  // must walk its rows in insertion order after all the growths.
  RowIdTable table;
  for (uint32_t row = 0; row < 2000; ++row) table.Insert(row % 50);
  ASSERT_EQ(table.size(), 2000u);
  for (uint64_t h = 0; h < 50; ++h) {
    std::vector<uint32_t> chain;
    for (uint32_t r = table.Find(h); r != RowIdTable::kNone;
         r = table.Next(r)) {
      chain.push_back(r);
    }
    ASSERT_EQ(chain.size(), 40u) << "hash " << h;
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(chain[i], h + 50 * i) << "hash " << h;
    }
  }
  EXPECT_EQ(table.Find(50), RowIdTable::kNone);
  EXPECT_TRUE(table.InsertUnique(7, [](uint32_t) { return false; }));
  EXPECT_FALSE(table.InsertUnique(7, [](uint32_t r) { return r == 7; }));
  EXPECT_EQ(table.size(), 2001u);
}

TEST(RowIdTableTest, RepeatedReserveKeepsChainsInInsertionOrder) {
  // A dedup sink reserves a chunk's worth before every chunk; the chains
  // must survive each Reserve's regrowth in insertion order.
  RowIdTable table;
  constexpr uint32_t kChunks = 40;
  constexpr uint32_t kPerChunk = 37;
  constexpr uint64_t kHashes = 11;
  for (uint32_t c = 0; c < kChunks; ++c) {
    table.Reserve(1024);
    for (uint32_t i = 0; i < kPerChunk; ++i) {
      table.Insert((c * kPerChunk + i) % kHashes);
    }
  }
  const uint32_t rows = kChunks * kPerChunk;
  ASSERT_EQ(table.size(), rows);
  for (uint64_t h = 0; h < kHashes; ++h) {
    std::vector<uint32_t> chain;
    for (uint32_t r = table.Find(h); r != RowIdTable::kNone;
         r = table.Next(r)) {
      chain.push_back(r);
    }
    std::vector<uint32_t> expected;
    for (uint32_t r = static_cast<uint32_t>(h); r < rows; r += kHashes) {
      expected.push_back(r);
    }
    EXPECT_EQ(chain, expected) << "hash " << h;
  }
  EXPECT_EQ(table.Find(kHashes), RowIdTable::kNone);
}

TEST(RefRelationTest, DebugStringTruncates) {
  RefRelation sl = RefRelation::SingleList("e");
  for (uint32_t i = 0; i < 20; ++i) sl.Add({R(1, i)});
  std::string s = sl.DebugString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("20 rows"), std::string::npos);
}

}  // namespace
}  // namespace pascalr
