#include "refstruct/division.h"

#include <random>

#include <gtest/gtest.h>

namespace pascalr {
namespace {

Ref R(RelationId rel, uint32_t slot) { return Ref{rel, slot, 1}; }

class DivisionAlgorithmTest
    : public ::testing::TestWithParam<DivisionAlgorithm> {};

TEST_P(DivisionAlgorithmTest, BasicDivision) {
  // Group g0 covers the divisor {v0, v1}; g1 covers only v0.
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  table.Add({R(1, 0), R(2, 1)});
  table.Add({R(1, 1), R(2, 0)});
  ExecStats stats;
  auto result =
      Divide(table, "v", {R(2, 0), R(2, 1)}, &stats, GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(), (std::vector<std::string>{"g"}));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({R(1, 0)}));
}

TEST_P(DivisionAlgorithmTest, RowsOutsideDivisorAreIgnored) {
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  table.Add({R(1, 0), R(2, 9)});  // not in divisor: contributes nothing
  ExecStats stats;
  auto result = Divide(table, "v", {R(2, 0)}, &stats, GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST_P(DivisionAlgorithmTest, EmptyDivisorIsVacuousTruth) {
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  table.Add({R(1, 1), R(2, 1)});
  ExecStats stats;
  auto result = Divide(table, "v", {}, &stats, GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST_P(DivisionAlgorithmTest, EmptyTable) {
  RefRelation table({"g", "v"});
  ExecStats stats;
  auto result = Divide(table, "v", {R(2, 0)}, &stats, GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST_P(DivisionAlgorithmTest, MultiColumnGroups) {
  // Remaining columns (a, b) form composite groups.
  RefRelation table({"a", "v", "b"});
  for (uint32_t v = 0; v < 3; ++v) {
    table.Add({R(1, 0), R(9, v), R(2, 0)});  // (a0,b0) covers all
  }
  table.Add({R(1, 0), R(9, 0), R(2, 1)});  // (a0,b1) covers only v0
  ExecStats stats;
  auto result = Divide(table, "v", {R(9, 0), R(9, 1), R(9, 2)}, &stats,
                       GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({R(1, 0), R(2, 0)}));
}

TEST_P(DivisionAlgorithmTest, DuplicateDivisorEntriesCollapse) {
  RefRelation table({"g", "v"});
  table.Add({R(1, 0), R(2, 0)});
  ExecStats stats;
  auto result =
      Divide(table, "v", {R(2, 0), R(2, 0), R(2, 0)}, &stats, GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST_P(DivisionAlgorithmTest, UnknownColumnError) {
  RefRelation table({"g", "v"});
  ExecStats stats;
  EXPECT_EQ(Divide(table, "zz", {}, &stats, GetParam()).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DivisionAlgorithmTest,
                         ::testing::Values(DivisionAlgorithm::kHash,
                                           DivisionAlgorithm::kSort),
                         [](const auto& param_info) {
                           return param_info.param == DivisionAlgorithm::kHash
                                      ? "Hash"
                                      : "Sort";
                         });

TEST(DivisionTest, HashAndSortAgreeOnRandomTables) {
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

    ExecStats s1, s2;
    auto hash = Divide(table, "v", divisor, &s1, DivisionAlgorithm::kHash);
    auto sort = Divide(table, "v", divisor, &s2, DivisionAlgorithm::kSort);
    ASSERT_TRUE(hash.ok());
    ASSERT_TRUE(sort.ok());
    ASSERT_EQ(hash->size(), sort->size()) << "trial " << trial;
    for (const RowView row : hash->rows()) {
      EXPECT_TRUE(sort->Contains(row)) << "trial " << trial;
    }
  }
}

TEST(DivisionTest, StatsCountInputRows) {
  RefRelation table({"g", "v"});
  for (uint32_t i = 0; i < 10; ++i) table.Add({R(1, i % 2), R(2, i)});
  ExecStats stats;
  ASSERT_TRUE(
      Divide(table, "v", {R(2, 0), R(2, 1)}, &stats, DivisionAlgorithm::kHash)
          .ok());
  EXPECT_EQ(stats.division_input_rows, 10u);
}

}  // namespace
}  // namespace pascalr
