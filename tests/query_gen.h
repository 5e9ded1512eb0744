// Random query and database generation over the Figure 1 schema, used by
// the property suites (Lemma 1 equivalence, plan equivalence).
//
// Generated selections always project <e.ename> from a free variable e
// over employees; the wff is a random formula over e plus randomly
// quantified variables, built from type-compatible join terms.
//
// RandomMirrorSelection adds a fifth relation, flags (CreateFlags), with
// the component kinds the Figure 1 schema lacks — signed ints and a bool
// — and builds the term shapes the collection kernel's column mirror
// cannot answer beside the ones it can.
//
// RandomStringSelection joins string components with each other — the
// joins and quantifier probes for which collection builds a string-keyed
// HashIndex and a full ValueList over strings — over StringDatabase,
// whose names and titles share one small pool of strings.

#ifndef PASCALR_TESTS_QUERY_GEN_H_
#define PASCALR_TESTS_QUERY_GEN_H_

#include <random>
#include <string>
#include <vector>

#include "calculus/ast.h"
#include "catalog/database.h"
#include "pascalr/sample_db.h"

namespace pascalr {
namespace testing_util {

/// Kind tags used to pair comparable components across relations.
enum class CompTag {
  kSmallInt,
  kYear,
  kString,
  kStatus,
  kLevel,
  kDay,
  kSerial,  ///< flags.fnr: 1..n, literals 0..140
  kSigned,  ///< flags.fval: -4..4
  kBool,
};

struct CompInfo {
  const char* relation;
  const char* component;
  CompTag tag;
};

inline const std::vector<CompInfo>& AllComponents() {
  static const std::vector<CompInfo> kComponents = {
      {"employees", "enr", CompTag::kSmallInt},
      {"employees", "ename", CompTag::kString},
      {"employees", "estatus", CompTag::kStatus},
      {"papers", "penr", CompTag::kSmallInt},
      {"papers", "pyear", CompTag::kYear},
      {"papers", "ptitle", CompTag::kString},
      {"courses", "cnr", CompTag::kSmallInt},
      {"courses", "clevel", CompTag::kLevel},
      {"courses", "ctitle", CompTag::kString},
      {"timetable", "tenr", CompTag::kSmallInt},
      {"timetable", "tcnr", CompTag::kSmallInt},
      {"timetable", "tday", CompTag::kDay},
      {"timetable", "troom", CompTag::kString},
      {"flags", "fnr", CompTag::kSerial},
      {"flags", "fval", CompTag::kSigned},
      {"flags", "fok", CompTag::kBool},
      {"flags", "fname", CompTag::kString},
  };
  return kComponents;
}

struct GenVar {
  std::string name;
  std::string relation;
};

class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  /// Selection `[<e.ename> OF EACH e IN employees: random-wff]`.
  SelectionExpr RandomSelection(int max_depth = 4) {
    SelectionExpr sel;
    OutputComponent oc;
    oc.var = "e";
    oc.component = "ename";
    sel.projection.push_back(oc);
    sel.free_vars.emplace_back("e", RangeExpr("employees"));
    scope_ = {{"e", "employees"}};
    quant_counter_ = 0;
    sel.wff = RandomFormula(max_depth);
    return sel;
  }

  /// Two free variables over different relations with a two-component
  /// projection — exercises the combination phase's multi-free handling.
  SelectionExpr RandomSelectionTwoFree(int max_depth = 3) {
    SelectionExpr sel;
    OutputComponent oc1;
    oc1.var = "e";
    oc1.component = "ename";
    sel.projection.push_back(oc1);
    OutputComponent oc2;
    oc2.var = "g";
    oc2.component = "ctitle";
    sel.projection.push_back(oc2);
    sel.free_vars.emplace_back("e", RangeExpr("employees"));
    sel.free_vars.emplace_back("g", RangeExpr("courses"));
    scope_ = {{"e", "employees"}, {"g", "courses"}};
    quant_counter_ = 0;
    sel.wff = RandomFormula(max_depth);
    return sel;
  }

  /// Conjunctive multi-join query: free variable e over employees plus
  /// `joins` SOME-quantified variables, each tied by an equality join term
  /// to a randomly chosen earlier variable (a random chain/star over the
  /// schema's comparable integer components), plus occasional monadic
  /// filters. At strategy levels >= 1 the single conjunction compiles to
  /// one multi-input combination join — the greedy join order's
  /// workload.
  SelectionExpr RandomChainSelection(size_t joins, double filter_prob = 0.5) {
    return RandomJoinSelection(joins, filter_prob, JoinShape::kRandomTree);
  }

  /// Like RandomChainSelection, but every quantified variable joins e: a
  /// star around the free variable.
  SelectionExpr RandomStarSelection(size_t joins, double filter_prob = 0.5) {
    return RandomJoinSelection(joins, filter_prob, JoinShape::kStar);
  }

  /// Like RandomChainSelection, but each quantified variable joins the one
  /// before it (e for the first), and one more term closes the path from
  /// the last variable back to e: a cycle through the free variable.
  SelectionExpr RandomCycleSelection(size_t joins, double filter_prob = 0.5) {
    return RandomJoinSelection(joins, filter_prob, JoinShape::kCycle);
  }

  /// `[<e.ename> OF EACH e IN employees: ALL q IN rel (m(q) AND d(e, q))]`:
  /// one universal quantifier over a conjunction of a monadic term over q
  /// and a dyadic term joining e and q, in random order. The shape a
  /// push-down that gates an ALL's value list by m(q) gets wrong.
  SelectionExpr RandomAllOverConjunction() {
    SelectionExpr sel;
    OutputComponent oc;
    oc.var = "e";
    oc.component = "ename";
    sel.projection.push_back(oc);
    sel.free_vars.emplace_back("e", RangeExpr("employees"));

    static const char* kRelations[] = {"papers", "courses", "timetable"};
    const std::string relation = kRelations[rng_() % 3];
    std::vector<std::pair<const CompInfo*, const CompInfo*>> links;
    for (const CompInfo& ec : AllComponents()) {
      if (std::string(ec.relation) != "employees") continue;
      for (const CompInfo& qc : AllComponents()) {
        if (relation == qc.relation && qc.tag == ec.tag) {
          links.push_back({&ec, &qc});
        }
      }
    }
    auto [ec, qc] = links[rng_() % links.size()];
    FormulaPtr dyadic =
        Formula::Compare(Operand::Component("e", ec->component), RandomOp(),
                         Operand::Component("q", qc->component));
    const CompInfo& mc = RandomComponentOf(relation);
    FormulaPtr monadic =
        Formula::Compare(Operand::Component("q", mc.component), RandomOp(),
                         LiteralFor(mc.tag));
    FormulaPtr body = Coin(0.5)
                          ? Formula::And(std::move(monadic), std::move(dyadic))
                          : Formula::And(std::move(dyadic), std::move(monadic));
    sel.wff = Formula::Quant(Quantifier::kAll, "q", RangeExpr(relation),
                             std::move(body));
    return sel;
  }

  /// `[<e.ename> OF EACH e IN employees: X op Q]`: a random formula X over
  /// e joined by AND or OR with a quantifier over papers whose matrix has a
  /// monadic year term m(p) — SOME p IN papers (m(p) AND d(e, p)) or
  /// ALL p IN papers (m(p) OR d(e, p)), the shapes strategy 3 turns into
  /// an extended range over papers. With probability `outside_prob` the
  /// year is drawn from outside the populated 1975-1979 domain (1970-1974
  /// or 1980-1984), so that an extension such as `p.pyear = 1982` is empty.
  SelectionExpr RandomYearRangeSelection(double outside_prob) {
    SelectionExpr sel;
    OutputComponent oc;
    oc.var = "e";
    oc.component = "ename";
    sel.projection.push_back(oc);
    sel.free_vars.emplace_back("e", RangeExpr("employees"));
    scope_ = {{"e", "employees"}};
    quant_counter_ = 0;
    FormulaPtr other = RandomFormula(2);
    int64_t first_year = 1975;
    if (Coin(outside_prob)) first_year = Coin(0.5) ? 1970 : 1980;
    Operand year = Operand::Literal(
        Value::MakeInt(first_year + static_cast<int64_t>(rng_() % 5)));
    year.type = Type::Int();
    FormulaPtr monadic = Formula::Compare(Operand::Component("p", "pyear"),
                                          RandomOp(), std::move(year));
    FormulaPtr dyadic =
        Formula::Compare(Operand::Component("e", "enr"), RandomOp(),
                         Operand::Component("p", "penr"));
    const bool all = Coin(0.5);
    FormulaPtr matrix =
        all ? Formula::Or(std::move(monadic), std::move(dyadic))
            : Formula::And(std::move(monadic), std::move(dyadic));
    FormulaPtr quant =
        Formula::Quant(all ? Quantifier::kAll : Quantifier::kSome, "p",
                       RangeExpr("papers"), std::move(matrix));
    sel.wff = Coin(0.5) ? Formula::And(std::move(other), std::move(quant))
                        : Formula::Or(std::move(other), std::move(quant));
    return sel;
  }

  /// `[<f.fnr, f.fname> OF EACH f IN flags: wff]`, f's range sometimes
  /// extended.
  /// Atoms mix terms the column mirror answers (int, signed int, enum and
  /// bool components against constants) with terms it cannot: string
  /// compares, component-vs-component terms, TRUE and FALSE; ranges are
  /// extended by restrictions under AND, OR and NOT. A quantified variable
  /// ranges over (an extension of) flags or over employees, so at most
  /// two variables scan flags. Call CreateFlags and FillFlags first.
  SelectionExpr RandomMirrorSelection() {
    SelectionExpr sel;
    for (const char* component : {"fnr", "fname"}) {
      OutputComponent oc;
      oc.var = "f";
      oc.component = component;
      sel.projection.push_back(oc);
    }
    sel.free_vars.emplace_back("f", MirrorRange("f", "flags", 0.3));
    scope_ = {{"f", "flags"}};
    FormulaPtr wff = MirrorFormula(2);
    if (Coin(0.6)) {
      const bool over_flags = Coin(0.6);
      const std::string relation = over_flags ? "flags" : "employees";
      scope_.push_back({"g", relation});
      FormulaPtr link = Formula::Compare(
          Operand::Component("g", over_flags ? "fnr" : "enr"), RandomOp(),
          Operand::Component("f", "fnr"));
      FormulaPtr body =
          Coin(0.5) ? std::move(link)
                    : Formula::And(std::move(link), MirrorFormula(1));
      scope_.pop_back();
      FormulaPtr quant = Formula::Quant(
          Coin(0.5) ? Quantifier::kSome : Quantifier::kAll, "g",
          MirrorRange("g", relation, 0.6), std::move(body));
      wff = Coin(0.5) ? Formula::And(std::move(wff), std::move(quant))
                      : Formula::Or(std::move(wff), std::move(quant));
    }
    sel.wff = std::move(wff);
    scope_.resize(1);
    return sel;
  }

  /// `[<e.ename> OF EACH e IN employees: wff]`, the wff joining e.ename
  /// with paper and course titles by string terms: quantifier probes such
  /// as `SOME p IN papers (p.ptitle = e.ename)`, joins such as
  /// `SOME c IN courses (e.ename = c.ctitle AND m(c))`, string literal
  /// terms, under AND, OR and NOT. Fill the database with StringDatabase.
  SelectionExpr RandomStringSelection() {
    SelectionExpr sel;
    OutputComponent oc;
    oc.var = "e";
    oc.component = "ename";
    sel.projection.push_back(oc);
    sel.free_vars.emplace_back("e", RangeExpr("employees"));
    quant_counter_ = 0;
    sel.wff = StringFormula(2);
    return sel;
  }

  /// Fills employees, papers and courses with names and titles drawn
  /// from one pool of five strings (so string joins match, repeat and
  /// miss), and timetable at random; each relation is empty with
  /// probability `empty_prob`.
  void StringDatabase(Database* db, double empty_prob = 0.1) {
    Relation* employees = db->FindRelation("employees");
    employees->Clear();
    for (size_t i = 1, n = MaybeEmpty(8, empty_prob); i <= n; ++i) {
      (void)employees->Insert(
          Tuple{Value::MakeInt(static_cast<int64_t>(i)), PooledString(),
                Value::MakeEnum(static_cast<int32_t>(rng_() % 4))});
    }
    Relation* papers = db->FindRelation("papers");
    papers->Clear();
    for (size_t i = 1, n = MaybeEmpty(8, empty_prob); i <= n; ++i) {
      (void)papers->Insert(
          Tuple{Value::MakeInt(1 + static_cast<int64_t>(rng_() % 5)),
                Value::MakeInt(1975 + static_cast<int64_t>(rng_() % 5)),
                PooledString()});
    }
    Relation* courses = db->FindRelation("courses");
    courses->Clear();
    for (size_t i = 1, n = MaybeEmpty(6, empty_prob); i <= n; ++i) {
      (void)courses->Insert(
          Tuple{Value::MakeInt(static_cast<int64_t>(i)),
                Value::MakeEnum(static_cast<int32_t>(rng_() % 4)),
                PooledString()});
    }
    FillTimetable(db, MaybeEmpty(8, empty_prob));
  }

  /// Adds the relation flags(fnr: integer key, fval: integer, fok: boolean,
  /// fname: string) to `db`.
  static Status CreateFlags(Database* db) {
    PASCALR_ASSIGN_OR_RETURN(
        Schema schema, Schema::Make({{"fnr", Type::Int()},
                                     {"fval", Type::Int()},
                                     {"fok", Type::Bool()},
                                     {"fname", Type::String()}},
                                    {"fnr"}));
    return db->CreateRelation("flags", std::move(schema)).status();
  }

  /// Fills flags with `n` random elements (fnr 1..n).
  void FillFlags(Database* db, size_t n) {
    Relation* rel = db->FindRelation("flags");
    rel->Clear();
    for (size_t i = 1; i <= n; ++i) {
      (void)rel->Insert(
          Tuple{Value::MakeInt(static_cast<int64_t>(i)),
                Value::MakeInt(static_cast<int64_t>(rng_() % 9) - 4),
                Value::MakeBool(Coin(0.5)),
                Value::MakeString(std::string(1, "ABC"[rng_() % 3]))});
    }
  }

  /// Fills the four relations with random small contents; each relation is
  /// empty with probability `empty_prob` (exercising Lemma 1 paths).
  void RandomDatabase(Database* db, double empty_prob = 0.2) {
    FillEmployees(db, MaybeEmpty(6, empty_prob));
    FillPapers(db, MaybeEmpty(6, empty_prob));
    FillCourses(db, MaybeEmpty(5, empty_prob));
    FillTimetable(db, MaybeEmpty(8, empty_prob));
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  enum class JoinShape { kRandomTree, kStar, kCycle };

  SelectionExpr RandomJoinSelection(size_t joins, double filter_prob,
                                    JoinShape shape) {
    SelectionExpr sel;
    OutputComponent oc;
    oc.var = "e";
    oc.component = "ename";
    sel.projection.push_back(oc);
    sel.free_vars.emplace_back("e", RangeExpr("employees"));
    scope_ = {{"e", "employees"}};
    quant_counter_ = 0;

    static const char* kRelations[] = {"employees", "papers", "courses",
                                       "timetable"};
    std::vector<FormulaPtr> terms;
    auto join_term = [&](const GenVar& a, const GenVar& b) {
      const CompInfo& lhs = RandomSmallIntComponentOf(a.relation);
      const CompInfo& rhs = RandomSmallIntComponentOf(b.relation);
      return Formula::Compare(Operand::Component(a.name, lhs.component),
                              CompareOp::kEq,
                              Operand::Component(b.name, rhs.component));
    };
    for (size_t i = 0; i < joins; ++i) {
      std::string relation = kRelations[rng_() % 4];
      std::string name = "j" + std::to_string(quant_counter_++);
      size_t partner = 0;
      switch (shape) {
        case JoinShape::kRandomTree:
          partner = rng_() % scope_.size();
          break;
        case JoinShape::kStar:
          partner = 0;
          break;
        case JoinShape::kCycle:
          partner = scope_.size() - 1;
          break;
      }
      const GenVar partner_var = scope_[partner];
      terms.push_back(join_term({name, relation}, partner_var));
      if (Coin(filter_prob)) {
        const CompInfo& f = RandomComponentOf(relation);
        terms.push_back(Formula::Compare(
            Operand::Component(name, f.component), RandomOp(),
            LiteralFor(f.tag)));
      }
      scope_.push_back({name, relation});
    }
    if (shape == JoinShape::kCycle && scope_.size() > 2) {
      terms.push_back(join_term(scope_.back(), scope_.front()));
    }
    FormulaPtr body = std::move(terms.back());
    terms.pop_back();
    while (!terms.empty()) {
      body = Formula::And(std::move(terms.back()), std::move(body));
      terms.pop_back();
    }
    // Quantifiers wrap innermost-last: SOME j0 (SOME j1 (... body)).
    for (size_t i = scope_.size(); i-- > 1;) {
      body = Formula::Quant(Quantifier::kSome, scope_[i].name,
                            RangeExpr(scope_[i].relation), std::move(body));
    }
    scope_.resize(1);
    sel.wff = std::move(body);
    return sel;
  }

  /// `relation`, extended with probability `extend_prob` by a random
  /// restriction over `var`.
  RangeExpr MirrorRange(const std::string& var, const std::string& relation,
                        double extend_prob) {
    if (!Coin(extend_prob)) return RangeExpr(relation);
    std::vector<GenVar> saved = std::move(scope_);
    scope_ = {{var, relation}};
    FormulaPtr restriction = MirrorFormula(2);
    scope_ = std::move(saved);
    return RangeExpr(relation, std::move(restriction));
  }

  /// A quantifier-free formula over the last variable in scope.
  FormulaPtr MirrorFormula(int depth) {
    if (depth <= 0 || Coin(0.4)) return MirrorAtom();
    switch (rng_() % 4) {
      case 0:
      case 1:
        return Formula::And(MirrorFormula(depth - 1),
                            MirrorFormula(depth - 1));
      case 2:
        return Formula::Or(MirrorFormula(depth - 1), MirrorFormula(depth - 1));
      default:
        return Formula::Not(MirrorFormula(depth - 1));
    }
  }

  FormulaPtr MirrorAtom() {
    const GenVar& var = scope_.back();
    if (Coin(0.08)) return Formula::Constant(Coin(0.5));
    const CompInfo& comp = RandomComponentOf(var.relation);
    Operand lhs = Operand::Component(var.name, comp.component);
    if (Coin(0.2)) {
      // Component vs component of the same element (f.fval < f.fnr).
      auto is_int = [](CompTag t) {
        return t == CompTag::kSmallInt || t == CompTag::kSerial ||
               t == CompTag::kSigned;
      };
      for (const CompInfo& c : AllComponents()) {
        const bool comparable =
            c.tag == comp.tag || (is_int(c.tag) && is_int(comp.tag));
        if (var.relation == c.relation && comparable &&
            std::string(c.component) != comp.component) {
          return Formula::Compare(std::move(lhs), RandomOp(),
                                  Operand::Component(var.name, c.component));
        }
      }
    }
    Operand literal = LiteralFor(comp.tag);
    if (comp.tag != CompTag::kBool && Coin(0.25)) {
      // Constant on the left (a leading TRUE would parse as a formula).
      return Formula::Compare(std::move(literal), RandomOp(), std::move(lhs));
    }
    return Formula::Compare(std::move(lhs), RandomOp(), std::move(literal));
  }

  Value PooledString() {
    static const char* kPool[] = {"A", "B", "C", "AB", "BA"};
    return Value::MakeString(kPool[rng_() % 5]);
  }

  /// A formula over e whose atoms are string terms: e.ename against a
  /// literal, or a quantifier over papers or courses whose title meets
  /// e.ename, under AND, OR and NOT.
  FormulaPtr StringFormula(int depth) {
    if (depth <= 0 || Coin(0.3)) return StringAtom();
    switch (rng_() % 4) {
      case 0:
        return Formula::And(StringFormula(depth - 1),
                            StringFormula(depth - 1));
      case 1:
        return Formula::Or(StringFormula(depth - 1), StringFormula(depth - 1));
      case 2:
        return Formula::Not(StringFormula(depth - 1));
      default:
        return StringAtom();
    }
  }

  FormulaPtr StringAtom() {
    if (Coin(0.15)) {
      Operand literal = Operand::Literal(PooledString());
      literal.type = Type::String();
      return Formula::Compare(Operand::Component("e", "ename"), RandomOp(),
                              std::move(literal));
    }
    const bool papers = Coin(0.5);
    const std::string name = "s" + std::to_string(quant_counter_++);
    // Mostly `=` and `<>`, the operators that need the full value list
    // or the hashed index; the ordering operators now and then.
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kEq,
                                     CompareOp::kNe, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kGe};
    Operand title = Operand::Component(name, papers ? "ptitle" : "ctitle");
    Operand ename = Operand::Component("e", "ename");
    const CompareOp op = kOps[rng_() % 6];
    FormulaPtr link =
        Coin(0.5) ? Formula::Compare(std::move(title), op, std::move(ename))
                  : Formula::Compare(std::move(ename), op, std::move(title));
    if (Coin(0.4)) {
      // A monadic term over the quantified variable beside the join.
      Operand lhs = Operand::Component(name, papers ? "pyear" : "clevel");
      FormulaPtr monadic = Formula::Compare(
          std::move(lhs), RandomOp(),
          LiteralFor(papers ? CompTag::kYear : CompTag::kLevel));
      link = Coin(0.5) ? Formula::And(std::move(link), std::move(monadic))
                       : Formula::Or(std::move(link), std::move(monadic));
    }
    return Formula::Quant(Coin(0.6) ? Quantifier::kSome : Quantifier::kAll,
                          name, RangeExpr(papers ? "papers" : "courses"),
                          std::move(link));
  }

  size_t MaybeEmpty(size_t max, double empty_prob) {
    if (Coin(empty_prob)) return 0;
    return 1 + rng_() % max;
  }

  bool Coin(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }

  const CompInfo& RandomComponentOf(const std::string& relation) {
    std::vector<const CompInfo*> pool;
    for (const CompInfo& c : AllComponents()) {
      if (relation == c.relation) pool.push_back(&c);
    }
    return *pool[rng_() % pool.size()];
  }

  const CompInfo& RandomSmallIntComponentOf(const std::string& relation) {
    std::vector<const CompInfo*> pool;
    for (const CompInfo& c : AllComponents()) {
      if (relation == c.relation && c.tag == CompTag::kSmallInt) {
        pool.push_back(&c);
      }
    }
    return *pool[rng_() % pool.size()];
  }

  CompareOp RandomOp() {
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe};
    return kOps[rng_() % 6];
  }

  Operand LiteralFor(CompTag tag) {
    switch (tag) {
      case CompTag::kSmallInt: {
        Operand o = Operand::Literal(Value::MakeInt(1 + rng_() % 5));
        o.type = Type::Int();
        return o;
      }
      case CompTag::kYear: {
        Operand o =
            Operand::Literal(Value::MakeInt(1975 + rng_() % 5));
        o.type = Type::Int();
        return o;
      }
      case CompTag::kString: {
        static const char* kStrings[] = {"A", "B", "C"};
        Operand o =
            Operand::Literal(Value::MakeString(kStrings[rng_() % 3]));
        o.type = Type::String();
        return o;
      }
      case CompTag::kStatus: {
        static const char* kLabels[] = {"student", "technician", "assistant",
                                        "professor"};
        Operand o;
        o.kind = Operand::Kind::kLiteral;
        o.enum_label = kLabels[rng_() % 4];
        o.literal = Value::MakeEnum(-1);
        return o;
      }
      case CompTag::kLevel: {
        static const char* kLabels[] = {"freshman", "sophomore", "junior",
                                        "senior"};
        Operand o;
        o.kind = Operand::Kind::kLiteral;
        o.enum_label = kLabels[rng_() % 4];
        o.literal = Value::MakeEnum(-1);
        return o;
      }
      case CompTag::kSerial: {
        Operand o =
            Operand::Literal(Value::MakeInt(static_cast<int64_t>(rng_() % 141)));
        o.type = Type::Int();
        return o;
      }
      case CompTag::kSigned: {
        Operand o = Operand::Literal(
            Value::MakeInt(static_cast<int64_t>(rng_() % 9) - 4));
        o.type = Type::Int();
        return o;
      }
      case CompTag::kBool: {
        Operand o = Operand::Literal(Value::MakeBool(Coin(0.5)));
        o.type = Type::Bool();
        return o;
      }
      case CompTag::kDay: {
        static const char* kLabels[] = {"monday", "tuesday", "wednesday"};
        Operand o;
        o.kind = Operand::Kind::kLiteral;
        o.enum_label = kLabels[rng_() % 3];
        o.literal = Value::MakeEnum(-1);
        return o;
      }
    }
    Operand o = Operand::Literal(Value::MakeInt(0));
    return o;
  }

  FormulaPtr RandomAtom() {
    // Pick a variable in scope and one of its components.
    const GenVar& var = scope_[rng_() % scope_.size()];
    const CompInfo& lhs_comp = RandomComponentOf(var.relation);
    Operand lhs = Operand::Component(var.name, lhs_comp.component);
    // Dyadic against a compatible component of another in-scope variable?
    if (Coin(0.5)) {
      std::vector<std::pair<const GenVar*, const CompInfo*>> partners;
      for (const GenVar& other : scope_) {
        for (const CompInfo& c : AllComponents()) {
          if (other.relation == c.relation && c.tag == lhs_comp.tag &&
              !(other.name == var.name &&
                std::string(c.component) == lhs_comp.component)) {
            partners.push_back({&other, &c});
          }
        }
      }
      if (!partners.empty()) {
        auto [other, comp] = partners[rng_() % partners.size()];
        return Formula::Compare(
            std::move(lhs), RandomOp(),
            Operand::Component(other->name, comp->component));
      }
    }
    return Formula::Compare(std::move(lhs), RandomOp(),
                            LiteralFor(lhs_comp.tag));
  }

  FormulaPtr RandomFormula(int depth) {
    if (depth <= 0 || Coin(0.35)) return RandomAtom();
    switch (rng_() % 5) {
      case 0:
        return Formula::And(RandomFormula(depth - 1),
                            RandomFormula(depth - 1));
      case 1:
        return Formula::Or(RandomFormula(depth - 1), RandomFormula(depth - 1));
      case 2:
        return Formula::Not(RandomFormula(depth - 1));
      default: {
        static const char* kRelations[] = {"employees", "papers", "courses",
                                           "timetable"};
        std::string relation = kRelations[rng_() % 4];
        std::string name = "q" + std::to_string(quant_counter_++);
        Quantifier q = Coin(0.5) ? Quantifier::kSome : Quantifier::kAll;
        scope_.push_back({name, relation});
        FormulaPtr body = RandomFormula(depth - 1);
        scope_.pop_back();
        return Formula::Quant(q, name, RangeExpr(relation), std::move(body));
      }
    }
  }

  void FillEmployees(Database* db, size_t n) {
    Relation* rel = db->FindRelation("employees");
    rel->Clear();
    for (size_t i = 1; i <= n; ++i) {
      (void)rel->Insert(Tuple{
          Value::MakeInt(static_cast<int64_t>(i)),
          Value::MakeString(std::string(1, static_cast<char>('A' + i % 3))),
          Value::MakeEnum(static_cast<int32_t>(rng_() % 4))});
    }
  }

  void FillPapers(Database* db, size_t n) {
    Relation* rel = db->FindRelation("papers");
    rel->Clear();
    for (size_t i = 1; i <= n; ++i) {
      (void)rel->Insert(Tuple{Value::MakeInt(1 + static_cast<int64_t>(rng_() % 5)),
                              Value::MakeInt(1975 + static_cast<int64_t>(rng_() % 5)),
                              Value::MakeString("P" + std::to_string(i))});
    }
  }

  void FillCourses(Database* db, size_t n) {
    Relation* rel = db->FindRelation("courses");
    rel->Clear();
    for (size_t i = 1; i <= n; ++i) {
      (void)rel->Insert(Tuple{Value::MakeInt(static_cast<int64_t>(i)),
                              Value::MakeEnum(static_cast<int32_t>(rng_() % 4)),
                              Value::MakeString("C" + std::to_string(i))});
    }
  }

  void FillTimetable(Database* db, size_t n) {
    Relation* rel = db->FindRelation("timetable");
    rel->Clear();
    for (size_t i = 0; i < n; ++i) {
      (void)rel->Insert(
          Tuple{Value::MakeInt(1 + static_cast<int64_t>(rng_() % 5)),
                Value::MakeInt(1 + static_cast<int64_t>(rng_() % 5)),
                Value::MakeEnum(static_cast<int32_t>(rng_() % 5)),
                Value::MakeInt(9000000 + static_cast<int64_t>(rng_() % 100)),
                Value::MakeString("R" + std::to_string(rng_() % 3))});
    }
  }

  std::mt19937_64 rng_;
  std::vector<GenVar> scope_;
  int quant_counter_ = 0;
};

}  // namespace testing_util
}  // namespace pascalr

#endif  // PASCALR_TESTS_QUERY_GEN_H_
