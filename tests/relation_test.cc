#include "storage/relation.h"

#include <gtest/gtest.h>

#include "catalog/database.h"
#include "exec/naive.h"
#include "opt/planner.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MustBind;
using testing_util::TupleStrings;

Schema TwoColumnSchema() {
  return *Schema::Make({{"id", Type::Int()}, {"name", Type::String()}},
                       {"id"});
}

Tuple Row(int64_t id, const std::string& name) {
  return Tuple{Value::MakeInt(id), Value::MakeString(name)};
}

TEST(RelationTest, InsertAndSelectByKey) {
  Relation rel(1, "r", TwoColumnSchema());
  ASSERT_TRUE(rel.Insert(Row(1, "a")).ok());
  ASSERT_TRUE(rel.Insert(Row(2, "b")).ok());
  EXPECT_EQ(rel.cardinality(), 2u);

  auto found = rel.SelectByKey(Tuple{Value::MakeInt(2)});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->at(1).AsString(), "b");

  auto missing = rel.SelectByKey(Tuple{Value::MakeInt(3)});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RelationTest, DuplicateKeyRejected) {
  Relation rel(1, "r", TwoColumnSchema());
  ASSERT_TRUE(rel.Insert(Row(1, "a")).ok());
  auto dup = rel.Insert(Row(1, "other"));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rel.cardinality(), 1u);
}

TEST(RelationTest, SchemaViolationRejected) {
  Relation rel(1, "r", TwoColumnSchema());
  auto bad = rel.Insert(Tuple{Value::MakeString("x"), Value::MakeString("y")});
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeMismatch);
  EXPECT_TRUE(rel.empty());
}

TEST(RelationTest, UpsertReplacesInPlaceKeepingRefsValid) {
  Relation rel(1, "r", TwoColumnSchema());
  Ref ref = *rel.Insert(Row(1, "a"));
  Ref updated = *rel.Upsert(Row(1, "a2"));
  EXPECT_EQ(ref, updated);
  auto t = rel.Deref(ref);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->at(1).AsString(), "a2");
  // Upsert of a new key inserts.
  ASSERT_TRUE(rel.Upsert(Row(2, "b")).ok());
  EXPECT_EQ(rel.cardinality(), 2u);
}

TEST(RelationTest, RefByKeyMatchesInsertRef) {
  Relation rel(7, "r", TwoColumnSchema());
  Ref inserted = *rel.Insert(Row(5, "e"));
  Ref looked_up = *rel.RefByKey(Tuple{Value::MakeInt(5)});
  EXPECT_EQ(inserted, looked_up);
  EXPECT_EQ(looked_up.relation, 7u);
}

TEST(RelationTest, DerefDetectsDanglingAfterErase) {
  Relation rel(1, "r", TwoColumnSchema());
  Ref ref = *rel.Insert(Row(1, "a"));
  ASSERT_TRUE(rel.EraseByKey(Tuple{Value::MakeInt(1)}).ok());
  EXPECT_EQ(rel.Deref(ref).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(rel.IsLive(ref));
}

TEST(RelationTest, DerefDetectsSlotReuse) {
  // The generation tag distinguishes a reused slot from the old element.
  Relation rel(1, "r", TwoColumnSchema());
  Ref old_ref = *rel.Insert(Row(1, "a"));
  ASSERT_TRUE(rel.EraseByKey(Tuple{Value::MakeInt(1)}).ok());
  Ref new_ref = *rel.Insert(Row(2, "b"));
  // Slot is reused but generations differ.
  EXPECT_EQ(old_ref.slot, new_ref.slot);
  EXPECT_NE(old_ref.generation, new_ref.generation);
  EXPECT_EQ(rel.Deref(old_ref).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(rel.Deref(new_ref).ok());
}

TEST(RelationTest, DerefRejectsForeignRelation) {
  Relation a(1, "a", TwoColumnSchema());
  Relation b(2, "b", TwoColumnSchema());
  Ref ref = *a.Insert(Row(1, "x"));
  EXPECT_EQ(b.Deref(ref).status().code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, EraseByRef) {
  Relation rel(1, "r", TwoColumnSchema());
  Ref ref = *rel.Insert(Row(1, "a"));
  ASSERT_TRUE(rel.EraseByRef(ref).ok());
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.EraseByRef(ref).code(), StatusCode::kNotFound);
}

TEST(RelationTest, ScanVisitsLiveElementsOnly) {
  Relation rel(1, "r", TwoColumnSchema());
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(rel.Insert(Row(i, "x")).ok());
  ASSERT_TRUE(rel.EraseByKey(Tuple{Value::MakeInt(3)}).ok());

  std::vector<int64_t> seen;
  rel.Scan([&](const Ref&, const Tuple& t) {
    seen.push_back(t.at(0).AsInt());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 4, 5}));
}

TEST(RelationTest, ScanEarlyStop) {
  Relation rel(1, "r", TwoColumnSchema());
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(rel.Insert(Row(i, "x")).ok());
  int count = 0;
  rel.Scan([&](const Ref&, const Tuple&) { return ++count < 2; });
  EXPECT_EQ(count, 2);
}

TEST(RelationTest, AllRefsAreLive) {
  Relation rel(1, "r", TwoColumnSchema());
  for (int i = 1; i <= 4; ++i) ASSERT_TRUE(rel.Insert(Row(i, "x")).ok());
  ASSERT_TRUE(rel.EraseByKey(Tuple{Value::MakeInt(2)}).ok());
  std::vector<Ref> refs = rel.AllRefs();
  EXPECT_EQ(refs.size(), 3u);
  for (const Ref& r : refs) EXPECT_TRUE(rel.IsLive(r));
}

TEST(RelationTest, ModCountTracksMutations) {
  Relation rel(1, "r", TwoColumnSchema());
  uint64_t m0 = rel.mod_count();
  ASSERT_TRUE(rel.Insert(Row(1, "a")).ok());
  uint64_t m1 = rel.mod_count();
  EXPECT_GT(m1, m0);
  ASSERT_TRUE(rel.EraseByKey(Tuple{Value::MakeInt(1)}).ok());
  EXPECT_GT(rel.mod_count(), m1);
  // Failed mutations do not bump the counter.
  uint64_t m2 = rel.mod_count();
  EXPECT_FALSE(rel.EraseByKey(Tuple{Value::MakeInt(9)}).ok());
  EXPECT_EQ(rel.mod_count(), m2);
}

TEST(RelationTest, ClearRemovesEverything) {
  Relation rel(1, "r", TwoColumnSchema());
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(rel.Insert(Row(i, "x")).ok());
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.AllRefs().size(), 0u);
  // Insert after clear works and produces live refs.
  Ref ref = *rel.Insert(Row(1, "y"));
  EXPECT_TRUE(rel.IsLive(ref));
}

TEST(RelationTest, CompositeKeys) {
  auto schema = Schema::Make(
      {{"a", Type::Int()}, {"b", Type::Int()}, {"c", Type::String()}},
      {"a", "b"});
  Relation rel(1, "r", *schema);
  ASSERT_TRUE(rel.Insert(Tuple{Value::MakeInt(1), Value::MakeInt(1),
                               Value::MakeString("x")})
                  .ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value::MakeInt(1), Value::MakeInt(2),
                               Value::MakeString("y")})
                  .ok());
  auto dup = rel.Insert(
      Tuple{Value::MakeInt(1), Value::MakeInt(1), Value::MakeString("z")});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto found =
      rel.SelectByKey(Tuple{Value::MakeInt(1), Value::MakeInt(2)});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->at(2).AsString(), "y");
}

// ---- column mirror maintenance ---------------------------------------
//
// The collection kernel answers int/enum/bool terms from the column
// mirror, so every write path must keep it equal to the row store. Each
// step below mutates a relation through one write path and then checks a
// restricted collection over every mirrored component (as emission gates
// and as an extended-range restriction) against the naive evaluator, at
// sizes on both sides of the StableVector block edges (256, 768). In
// serving mode a snapshot taken before the step must still read the old
// rows.

class MirrorMaintenanceTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {
 protected:
  void SetUp() override {
    auto kind = MakeEnum("kindtype", {"red", "green", "blue", "gray"});
    Result<Relation*> rel = db_.CreateRelation(
        "m", *Schema::Make({{"k", Type::Int()},
                            {"v", Type::Int()},
                            {"c", Type::Enum(kind)},
                            {"ok", Type::Bool()},
                            {"s", Type::String()}},
                           {"k"}));
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    rel_ = *rel;
    if (serving()) db_.EnableConcurrentServing();
  }

  bool serving() const { return std::get<0>(GetParam()); }
  size_t size() const { return std::get<1>(GetParam()); }

  static Tuple Row(int64_t k, int64_t salt) {
    return Tuple{Value::MakeInt(k), Value::MakeInt((k * 7 + salt) % 11 - 5),
                 Value::MakeEnum(static_cast<int32_t>((k + salt) % 4)),
                 Value::MakeBool((k + salt) % 3 == 0),
                 Value::MakeString("s" + std::to_string(k % 5))};
  }

  /// The restricted selections of one check: every mirrored component
  /// under every operator, as a gate and as a range restriction, plus
  /// conjunctions (one with the constants on the left), a string term and
  /// a component-vs-component term.
  static std::vector<std::string> Selections() {
    std::vector<std::string> terms;
    for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
      terms.push_back(std::string("x.v ") + op + " -2");
      terms.push_back(std::string("x.c ") + op + " green");
      terms.push_back(std::string("x.ok ") + op + " TRUE");
    }
    terms.push_back("(x.v >= -3) AND (x.c <> blue) AND (x.ok = FALSE)");
    terms.push_back("(-2 < x.v) AND (green >= x.c)");  // literal on the left
    terms.push_back("(x.s = 's2') AND (x.v < x.k)");
    std::vector<std::string> out;
    for (const std::string& t : terms) {
      out.push_back("[<x.k> OF EACH x IN m: " + t + "]");
      out.push_back("[<x.k> OF EACH x IN [EACH x IN m: " + t + "]: TRUE]");
    }
    return out;
  }

  /// Each selection's rows from the naive evaluator, after checking that
  /// O1 (one gate per term), O2 (all gates of the variable) and AUTO
  /// collect the same rows. O3/O4 plan a single variable as O2 does.
  std::vector<std::multiset<std::string>> CheckAgainstNaive(
      const std::string& step) {
    std::vector<std::multiset<std::string>> results;
    for (const std::string& text : Selections()) {
      BoundQuery bound = MustBind(db_, text);
      NaiveEvaluator naive(&db_);
      Result<std::vector<Tuple>> oracle = naive.Evaluate(bound);
      EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
      if (!oracle.ok()) return results;
      results.push_back(TupleStrings(*oracle));
      for (OptLevel level :
           {OptLevel::kParallel, OptLevel::kOneStep, OptLevel::kAuto}) {
        PlannerOptions options;
        options.level = level;
        Result<QueryRun> run = RunQuery(db_, CloneBoundQuery(bound), options);
        EXPECT_TRUE(run.ok()) << run.status().ToString();
        if (!run.ok()) continue;
        EXPECT_EQ(TupleStrings(run->tuples), results.back())
            << step << " at O" << static_cast<int>(level) << ": " << text;
      }
    }
    return results;
  }

  /// Runs `mutate`, then checks the relation against the naive evaluator
  /// and, in serving mode, a snapshot taken before the step against the
  /// rows it read then.
  void Step(const std::string& step, const std::function<void()>& mutate) {
    SCOPED_TRACE(step);
    SnapshotRef before = db_.TakeSnapshot();
    std::vector<std::multiset<std::string>> old_rows;
    if (before != nullptr) {
      ScopedSnapshotInstall install(before);
      old_rows = CheckAgainstNaive(step + " (before)");
    }
    mutate();
    CheckAgainstNaive(step);
    if (before == nullptr) return;
    ScopedSnapshotInstall install(before);
    EXPECT_EQ(CheckAgainstNaive(step + " (old snapshot)"), old_rows);
  }

  Database db_;
  Relation* rel_ = nullptr;
};

TEST_P(MirrorMaintenanceTest, EveryWritePathKeepsTheMirror) {
  const int64_t n = static_cast<int64_t>(size());
  Step("insert", [&] {
    for (int64_t k = 0; k < n; ++k) ASSERT_TRUE(rel_->Insert(Row(k, 0)).ok());
  });
  // In place (legacy) or a new version (serving).
  Step("upsert", [&] {
    for (int64_t k = 0; k < n; k += 3) {
      ASSERT_TRUE(rel_->Upsert(Row(k, 5)).ok());
    }
  });
  Step("erase by key", [&] {
    for (int64_t k = 1; k < n; k += 4) {
      ASSERT_TRUE(rel_->EraseByKey(Tuple{Value::MakeInt(k)}).ok());
    }
  });
  Step("erase by ref", [&] {
    for (const Ref& ref : rel_->AllRefs()) {
      if (ref.slot % 6 == 2) {
        ASSERT_TRUE(rel_->EraseByRef(ref).ok());
      }
    }
  });
  // Compaction frees the dead versions (serving) and the inserts reuse
  // every freed slot, rewriting its cells, and then append.
  db_.Compact();
  Step("reuse", [&] {
    for (int64_t k = n; k < n + n / 2; ++k) {
      ASSERT_TRUE(rel_->Insert(Row(k, 2)).ok());
    }
    for (int64_t k = 2; k < n; k += 4) {
      ASSERT_TRUE(rel_->Upsert(Row(k, 7)).ok());
    }
  });
  // Every insert took a slot of its own: a slot freed twice would be
  // handed out twice, and one of its two keys would be lost.
  EXPECT_EQ(rel_->AllRefs().size(), rel_->cardinality());
  for (int64_t k = n; k < n + n / 2; ++k) {
    EXPECT_TRUE(rel_->SelectByKey(Tuple{Value::MakeInt(k)}).ok()) << k;
  }
  Step("clear", [&] { rel_->Clear(); });
  Step("refill", [&] {
    for (int64_t k = 0; k < 70; ++k) ASSERT_TRUE(rel_->Insert(Row(k, 3)).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(
    BlockEdges, MirrorMaintenanceTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(255, 256, 257, 767, 768, 769)),
    [](const ::testing::TestParamInfo<std::tuple<bool, size_t>>& info) {
      return std::string(std::get<0>(info.param) ? "Serving" : "Legacy") +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pascalr
