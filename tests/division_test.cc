#include "refstruct/division.h"

#include <random>

#include <gtest/gtest.h>

namespace pascalr {
namespace {

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

TEST(DivisionTest, BasicDivision) {
  // Group g0 covers the divisor {v0, v1}; g1 covers only v0.
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  table.Add({R(1, 0), R(2, 1)});
  table.Add({R(1, 1), R(2, 0)});
  ExecStats stats;
  auto result =
      Divide(table, "v", {R(2, 0), R(2, 1)}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(), (std::vector<std::string>{"g"}));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({R(1, 0)}));
}

TEST(DivisionTest, RowsOutsideDivisorAreIgnored) {
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  table.Add({R(1, 0), R(2, 9)});  // not in divisor: contributes nothing
  ExecStats stats;
  auto result = Divide(table, "v", {R(2, 0)}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(DivisionTest, EmptyDivisorIsVacuousTruth) {
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  table.Add({R(1, 1), R(2, 1)});
  ExecStats stats;
  auto result = Divide(table, "v", {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(DivisionTest, EmptyTable) {
  RefRelation table({"g", "v"});
  ExecStats stats;
  auto result = Divide(table, "v", {R(2, 0)}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(DivisionTest, MultiColumnGroups) {
  // Remaining columns (a, b) form composite groups.
  RefRelation table({"a", "v", "b"});
  for (uint32_t v = 0; v < 3; ++v) {
    table.Add({R(1, 0), R(9, v), R(2, 0)});  // (a0,b0) covers all
  }
  table.Add({R(1, 0), R(9, 0), R(2, 1)});  // (a0,b1) covers only v0
  ExecStats stats;
  auto result = Divide(table, "v", {R(9, 0), R(9, 1), R(9, 2)}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({R(1, 0), R(2, 0)}));
}

TEST(DivisionTest, DuplicateDivisorEntriesCollapse) {
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  ExecStats stats;
  auto result =
      Divide(table, "v", {R(2, 0), R(2, 0), R(2, 0)}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(DivisionTest, UnknownColumnError) {
  RefRelation table({"g", "v"});
  ExecStats stats;
  EXPECT_EQ(Divide(table, "zz", {}, &stats).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DivisionTest, MatchesDefinitionOnRandomTables) {
  // Brute force over the definition: a projected row (g, h) qualifies iff
  // (g, r, h) is in the table for every r in the divisor.
  std::mt19937 rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    RefRelation table({"g", "v", "h"});
    size_t rows = rng() % 60;
    for (size_t i = 0; i < rows; ++i) {
      table.Add({R(1, rng() % 5), R(2, rng() % 6), R(3, rng() % 3)});
    }
    std::vector<Ref> divisor;
    size_t dn = rng() % 6;
    for (size_t i = 0; i < dn; ++i) divisor.push_back(R(2, rng() % 6));

    RefRelation expected({"g", "h"});
    for (const RowView row : table.rows()) {
      bool covers = true;
      for (const Ref& r : divisor) {
        covers = covers && table.Contains({row[0], r, row[2]});
      }
      if (covers) expected.Add({row[0], row[2]});
    }

    ExecStats stats;
    auto result = Divide(table, "v", divisor, &stats);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), expected.size()) << "trial " << trial;
    for (const RowView row : expected.rows()) {
      EXPECT_TRUE(result->Contains(row)) << "trial " << trial;
    }
  }
}

TEST(DivisionTest, StatsCountInputRows) {
  RefRelation table({"g", "v"});
  for (uint32_t i = 0; i < 10; ++i) table.Add({R(1, i % 2), R(2, i)});
  ExecStats stats;
  ASSERT_TRUE(Divide(table, "v", {R(2, 0), R(2, 1)}, &stats).ok());
  EXPECT_EQ(stats.division_input_rows, 10u);
}

}  // namespace
}  // namespace pascalr
