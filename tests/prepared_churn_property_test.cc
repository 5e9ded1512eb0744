// Differential churn: prepared $param selections from tests/query_gen.h
// re-executed across seeded :+ / :- writes that empty, refill and grow
// relations and the members of extended ranges. After every write, each
// strategy level's prepared copy (O0-O4 and AUTO) — revalidated or
// replanned, as its plan stamp decides — must return exactly what the
// naive oracle returns for the same selection with the values substituted.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "calculus/printer.h"
#include "exec/naive.h"
#include "pascalr/session.h"
#include "semantics/binder.h"
#include "tests/query_gen.h"
#include "tests/test_util.h"

namespace pascalr {
namespace {

using testing_util::MakeUniversityDb;
using testing_util::QueryGenerator;
using testing_util::TupleStrings;

void VisitOperands(Formula* f, const std::function<void(Operand*)>& visit) {
  switch (f->kind()) {
    case FormulaKind::kConst:
      return;
    case FormulaKind::kCompare:
      visit(&f->term().lhs);
      visit(&f->term().rhs);
      return;
    case FormulaKind::kNot:
      VisitOperands(f->mutable_child(), visit);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      for (const FormulaPtr& c : f->children()) VisitOperands(c.get(), visit);
      return;
    case FormulaKind::kQuant:
      if (f->range().IsExtended()) {
        VisitOperands(f->range().restriction.get(), visit);
      }
      VisitOperands(f->mutable_child(), visit);
      return;
  }
}

/// Turns each integer literal of `sel`'s wff into a parameter $p<k> with
/// probability 1/2, so literal and parameter-carrying ranges both occur.
/// Returns the parameter names, each mapped to whether it stands for a
/// year (its literal was one).
std::map<std::string, bool> Parameterize(SelectionExpr* sel,
                                         std::mt19937_64* rng) {
  std::map<std::string, bool> params;
  VisitOperands(sel->wff.get(), [&](Operand* op) {
    if (!op->is_literal() || !op->literal.is_int() || (*rng)() % 2 == 0) {
      return;
    }
    const std::string name = "p" + std::to_string(params.size());
    params[name] = op->literal.AsInt() >= 1900;
    *op = Operand::Param(name);
  });
  return params;
}

/// Years straddle the populated 1975-1979 domain, so an extension such as
/// `p.pyear = $p0` is empty for some bindings and not for others.
ParamBindings DrawBindings(const std::map<std::string, bool>& params,
                           std::mt19937_64* rng) {
  ParamBindings out;
  for (const auto& [name, year] : params) {
    out[name] = Value::MakeInt(year ? 1970 + static_cast<int64_t>((*rng)() % 15)
                                    : 1 + static_cast<int64_t>((*rng)() % 6));
  }
  return out;
}

/// The oracle's answer: `sel` with `bindings` substituted as plain
/// literals, bound afresh and evaluated by the naive nested-loop evaluator.
std::multiset<std::string> Oracle(const Database& db, const SelectionExpr& sel,
                                  const ParamBindings& bindings) {
  SelectionExpr literal = sel.Clone();
  VisitOperands(literal.wff.get(), [&](Operand* op) {
    if (!op->is_param()) return;
    *op = Operand::Literal(bindings.at(op->param_name));
    op->type = Type::Int();
  });
  Binder binder(&db);
  Result<BoundQuery> bound = binder.Bind(std::move(literal));
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return {};
  NaiveEvaluator naive(&db);
  Result<std::vector<Tuple>> tuples = naive.Evaluate(*bound);
  EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
  return tuples.ok() ? TupleStrings(*tuples) : std::multiset<std::string>{};
}

/// The year literals of `sel` (integer literals of 1900 or more).
std::vector<int64_t> YearLiterals(SelectionExpr* sel) {
  std::vector<int64_t> years;
  VisitOperands(sel->wff.get(), [&](Operand* op) {
    if (op->is_literal() && op->literal.is_int() &&
        op->literal.AsInt() >= 1900) {
      years.push_back(op->literal.AsInt());
    }
  });
  return years;
}

/// Seeded writes over the four relations, rendered as :+ / :- statements.
/// Small-int components stay in 1-16 so join terms keep matching. Papers'
/// years straddle the populated domain and favour the selection's year
/// literals, and one kind of write moves papers across such a year, so
/// the members of extended ranges over papers come and go while papers
/// itself keeps its cardinality.
class ChurnWriter {
 public:
  ChurnWriter(const Database* db, uint64_t seed, std::vector<int64_t> years)
      : db_(db), rng_(seed), years_(std::move(years)) {}

  /// The next write script: one insert or delete, emptying a relation,
  /// growing one by twelve elements (past twice the size of the generated
  /// relations), or moving papers' years.
  std::string Next() {
    static const char* kRelations[] = {"employees", "papers", "courses",
                                       "timetable"};
    std::string rel = kRelations[rng_() % 4];
    const uint64_t kind = rng_() % 8;
    if (kind >= 6 && !years_.empty()) rel = "papers";
    std::vector<std::string> keys = Keys(*db_->FindRelation(rel));
    std::set<std::string> taken(keys.begin(), keys.end());
    std::string script;
    switch (kind) {
      case 0:
      case 1:
        script = Insert(rel, &taken);
        break;
      case 2:
      case 3:
        script = Delete(rel, keys, 1);
        break;
      case 4:
        script = Delete(rel, keys, SIZE_MAX);
        break;
      case 5:
        for (int i = 0; i < 12; ++i) script += Insert(rel, &taken);
        break;
      default:
        if (!years_.empty()) script = MoveYears();
        break;
    }
    for (int tries = 0; script.empty() && tries < 8; ++tries) {
      script = Insert(rel, &taken);
    }
    // Every drawn key was taken: the relation is nearly full, shrink it.
    return script.empty() ? Delete(rel, keys, 1) : script;
  }

 private:
  int64_t Small() { return 1 + static_cast<int64_t>(rng_() % 8); }

  int64_t Year() {
    if (!years_.empty() && rng_() % 2 == 0) {
      return years_[rng_() % years_.size()];
    }
    return 1970 + static_cast<int64_t>(rng_() % 15);
  }

  /// Moves every paper with `pyear op y` — for one of the selection's
  /// years y and a random comparison op — to a year without it (a delete
  /// plus an insert under a fresh title). An extension over papers that
  /// selects those years empties while papers keeps its cardinality, so
  /// only the stamp's emptiness re-probe can tell; a later move the other
  /// way refills it. "" when no year in 1970-1984 lies outside.
  std::string MoveYears() {
    const int64_t y = years_[rng_() % years_.size()];
    const uint64_t op = rng_() % 6;
    auto holds = [&](int64_t year) {
      switch (op) {
        case 0: return year == y;
        case 1: return year != y;
        case 2: return year < y;
        case 3: return year <= y;
        case 4: return year > y;
        default: return year >= y;
      }
    };
    std::vector<int64_t> outside;
    for (int64_t year = 1970; year < 1985; ++year) {
      if (!holds(year)) outside.push_back(year);
    }
    if (outside.empty()) return "";
    std::string script;
    db_->FindRelation("papers")->Scan([&](const Ref&, const Tuple& t) {
      if (!holds(t.at(1).AsInt())) return true;
      script += "papers :- [<" + t.at(2).ToString() + ", " +
                t.at(0).ToString() + ">];";
      script += "papers :+ [<" + t.at(0).ToString() + ", " +
                std::to_string(outside[rng_() % outside.size()]) + ", 'Y" +
                std::to_string(next_title_++) + "'>];";
      return true;
    });
    return script;
  }

  std::string Pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_() % options.size());
  }

  std::vector<std::string> Keys(const Relation& rel) const {
    std::vector<std::string> keys;
    const Schema& schema = rel.schema();
    rel.Scan([&](const Ref&, const Tuple& t) {
      std::string key;
      for (size_t pos : schema.key_positions()) {
        if (!key.empty()) key += ", ";
        key += t.at(pos).ToStringTyped(schema.component(pos).type);
      }
      keys.push_back(key);
      return true;
    });
    return keys;
  }

  /// An insert into `rel` whose key is not in `taken` (and then is), or
  /// "" when the drawn key is taken.
  std::string Insert(const std::string& rel, std::set<std::string>* taken) {
    std::string tuple;
    std::string key;
    if (rel == "employees") {
      key = std::to_string(Small() + 8 * static_cast<int64_t>(rng_() % 2));
      tuple = key + ", " + Pick({"'A'", "'B'", "'C'"}) + ", " +
              Pick({"student", "technician", "assistant", "professor"});
    } else if (rel == "papers") {
      const std::string penr = std::to_string(Small());
      const std::string title = "'W" + std::to_string(next_title_++) + "'";
      key = title + ", " + penr;
      tuple = penr + ", " + std::to_string(Year()) + ", " + title;
    } else if (rel == "courses") {
      key = std::to_string(Small() + 8 * static_cast<int64_t>(rng_() % 2));
      tuple = key + ", " + Pick({"freshman", "sophomore", "junior", "senior"}) +
              ", 'C'";
    } else {
      const std::string day =
          Pick({"monday", "tuesday", "wednesday", "thursday", "friday"});
      const std::string tenr = std::to_string(Small());
      const std::string tcnr = std::to_string(Small());
      key = tenr + ", " + tcnr + ", " + day;
      tuple = key + ", 9001000, 'R1'";
    }
    if (!taken->insert(key).second) return "";
    return rel + " :+ [<" + tuple + ">];";
  }

  /// Deletes of `count` of `keys` (all of them at SIZE_MAX), at random.
  std::string Delete(const std::string& rel, std::vector<std::string> keys,
                     size_t count) {
    std::shuffle(keys.begin(), keys.end(), rng_);
    std::string script;
    for (size_t i = 0; i < keys.size() && i < count; ++i) {
      script += rel + " :- [<" + keys[i] + ">];";
    }
    return script;
  }

  const Database* db_;
  std::mt19937_64 rng_;
  std::vector<int64_t> years_;
  int next_title_ = 0;
};

/// Every other seed draws the empty-extended-range shape: strategy 3
/// turns its year term into an extension over papers, the literal range
/// whose verdict the stamp must re-probe after a write.
SelectionExpr Generate(QueryGenerator* gen, uint64_t seed) {
  if (seed % 2 == 1) return gen->RandomYearRangeSelection(/*outside_prob=*/0.5);
  switch (seed / 2 % 3) {
    case 0:
      return gen->RandomSelection(/*max_depth=*/3);
    case 1:
      return gen->RandomChainSelection(/*joins=*/2);
    default:
      return gen->RandomAllOverConjunction();
  }
}

TEST(PreparedChurnTest, ExecuteMatchesOracleAfterEveryWrite) {
  constexpr uint64_t kFirstSeed = 2600;
  constexpr uint64_t kSeeds = 48;
  constexpr int kWrites = 16;
  uint64_t revalidations = 0;
  uint64_t replans = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    auto db = MakeUniversityDb(false);
    QueryGenerator gen(seed);
    gen.RandomDatabase(db.get(), /*empty_prob=*/0.2);
    SelectionExpr sel = Generate(&gen, seed);
    std::vector<int64_t> years = YearLiterals(&sel);
    const std::map<std::string, bool> params = Parameterize(&sel, &gen.rng());
    const std::string rendered = FormatSelection(sel);

    Session writer(db.get());
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<PreparedQuery> prepared;
    for (int level = 0; level <= static_cast<int>(OptLevel::kAuto); ++level) {
      sessions.push_back(std::make_unique<Session>(db.get()));
      sessions.back()->options().level = static_cast<OptLevel>(level);
      auto pq = sessions.back()->PrepareSelection(sel.Clone());
      ASSERT_TRUE(pq.ok()) << "seed " << seed << ": "
                           << pq.status().ToString() << "\n"
                           << rendered;
      prepared.push_back(std::move(*pq));
    }

    ChurnWriter churn(db.get(), seed, std::move(years));
    ParamBindings bindings = DrawBindings(params, &gen.rng());
    for (int step = 0; step <= kWrites; ++step) {
      std::string script;
      if (step > 0) {
        script = churn.Next();
        ASSERT_TRUE(writer.ExecuteScript(script).ok())
            << "seed " << seed << ": " << script;
        // Keep the bindings half the time, so a revalidation is reachable.
        if (gen.rng()() % 2 == 0) bindings = DrawBindings(params, &gen.rng());
      }
      const auto expected = Oracle(*db, sel, bindings);
      for (size_t i = 0; i < prepared.size(); ++i) {
        const PreparedStats before = prepared[i].stats();
        auto exec = prepared[i].Execute(bindings);
        ASSERT_TRUE(exec.ok())
            << "seed " << seed << " level " << i << ": "
            << exec.status().ToString() << "\n"
            << rendered;
        EXPECT_EQ(TupleStrings(exec->tuples), expected)
            << "seed " << seed << " step " << step << " level " << i
            << " after " << script << "\n"
            << rendered;
        revalidations += prepared[i].stats().revalidations - before.revalidations;
        replans += prepared[i].stats().plan_compiles - before.plan_compiles;
      }
    }
  }
  // Both outcomes of the stamp check must actually be exercised.
  EXPECT_GT(revalidations, 0u);
  EXPECT_GT(replans, kSeeds * 6);
}

}  // namespace
}  // namespace pascalr
