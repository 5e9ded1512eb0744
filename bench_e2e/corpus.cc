#include "corpus.h"

#include <algorithm>
#include <unordered_set>

namespace e2e {

using pascalr::ParamBindings;
using pascalr::Value;

namespace {

// ---------------------------------------------------------------- schema

/// Value domains of the Figure 1 components. kEmp and kCourse are the two
/// key domains joins run over (employee numbers, course numbers).
enum class Dom { kEmp, kCourse, kYear, kString, kStatus, kLevel, kDay };

struct Comp {
  const char* relation;
  const char* name;
  Dom dom;
};

const std::vector<Comp>& Comps() {
  static const std::vector<Comp> kComps = {
      {"employees", "enr", Dom::kEmp},
      {"employees", "ename", Dom::kString},
      {"employees", "estatus", Dom::kStatus},
      {"papers", "penr", Dom::kEmp},
      {"papers", "pyear", Dom::kYear},
      {"papers", "ptitle", Dom::kString},
      {"courses", "cnr", Dom::kCourse},
      {"courses", "clevel", Dom::kLevel},
      {"courses", "ctitle", Dom::kString},
      {"timetable", "tenr", Dom::kEmp},
      {"timetable", "tcnr", Dom::kCourse},
      {"timetable", "tday", Dom::kDay},
      {"timetable", "troom", Dom::kString},
  };
  return kComps;
}

const char* const kRelations[] = {"employees", "papers", "courses",
                                  "timetable"};
const char* const kStatus[] = {"student", "technician", "assistant",
                               "professor"};
const char* const kLevels[] = {"freshman", "sophomore", "junior", "senior"};
const char* const kDays[] = {"monday", "tuesday", "wednesday", "thursday",
                             "friday"};
const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};

constexpr int kFirstYear = 1977;  // papers years are 1977 or 1978..1997
constexpr int kYears = 21;

std::vector<const Comp*> CompsOf(const std::string& relation) {
  std::vector<const Comp*> out;
  for (const Comp& c : Comps()) {
    if (relation == c.relation) out.push_back(&c);
  }
  return out;
}

const Comp* CompWithDom(const std::string& relation, Dom dom) {
  for (const Comp& c : Comps()) {
    if (relation == c.relation && c.dom == dom) return &c;
  }
  return nullptr;
}

// ------------------------------------------------------------ rng helpers

template <typename T, size_t N>
const T& Pick(Rng& rng, const T (&items)[N]) {
  return items[rng() % N];
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[rng() % items.size()];
}

bool Coin(Rng& rng, double p) {
  return std::uniform_real_distribution<double>(0, 1)(rng) < p;
}

size_t Weighted(Rng& rng, const std::vector<double>& weights) {
  return std::discrete_distribution<size_t>(weights.begin(),
                                            weights.end())(rng);
}

int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {  // inclusive
  return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* items) {
  std::shuffle(items->begin(), items->end(), rng);
}

// ----------------------------------------------------------- ad hoc text

enum class Shape { kChain, kStar, kCycle, kExample21, kExample45, kSingle };

struct AdhocClass {
  Shape shape;
  int joins;
  const char* name;
};

const std::vector<AdhocClass>& AdhocClasses() {
  static const std::vector<AdhocClass> kClasses = {
      {Shape::kChain, 1, "chain1"},       {Shape::kChain, 2, "chain2"},
      {Shape::kChain, 3, "chain3"},       {Shape::kChain, 4, "chain4"},
      {Shape::kStar, 1, "star1"},         {Shape::kStar, 2, "star2"},
      {Shape::kStar, 3, "star3"},         {Shape::kStar, 4, "star4"},
      {Shape::kCycle, 2, "cycle2"},       {Shape::kCycle, 3, "cycle3"},
      {Shape::kCycle, 4, "cycle4"},       {Shape::kExample21, 0, "ex21"},
      {Shape::kExample45, 0, "ex45"},     {Shape::kSingle, 1, "single"},
  };
  return kClasses;
}

int ClassIndex(Shape shape, int joins) {
  const auto& classes = AdhocClasses();
  for (size_t i = 0; i < classes.size(); ++i) {
    if (classes[i].shape == shape &&
        (classes[i].joins == joins || shape >= Shape::kExample21)) {
      return static_cast<int>(i);
    }
  }
  return 0;
}

/// Snippet 1's weights. Its graph classes (chain, star, cycle) carry none
/// and are drawn uniformly. It has no join-count weights either: its four
/// cardinality-class weights are reused for the join counts 1-4. Literal
/// selectivities follow its attribute-domain classes (per mille of the
/// domain).
const std::vector<double> kJoinWeights = {15, 30, 35, 20};
const std::vector<Shape> kGraphClasses = {Shape::kChain, Shape::kStar,
                                          Shape::kCycle};
const std::vector<double> kDomainWeights = {5, 50, 30, 15};
const int kDomainPermille[][2] = {{2, 10}, {10, 100}, {100, 500}, {500, 1000}};

class TextGen {
 public:
  TextGen(Rng* rng, size_t n) : rng_(*rng), n_(static_cast<int64_t>(n)) {}

  std::string Literal(const Comp& c) {
    switch (c.dom) {
      case Dom::kEmp:
        return std::to_string(IntLiteral(n_));
      case Dom::kCourse:
        return std::to_string(IntLiteral(n_ / 2 + 1));
      case Dom::kYear:
        return Year();
      case Dom::kStatus:
        return Pick(rng_, kStatus);
      case Dom::kLevel:
        return Pick(rng_, kLevels);
      case Dom::kDay:
        return Pick(rng_, kDays);
      case Dom::kString: {
        const std::string name = c.name;
        if (name == "ename") return "'E" + std::to_string(Uniform(rng_, 1, n_)) + "'";
        if (name == "ptitle") {
          return "'P" + std::to_string(Uniform(rng_, 1, 2 * n_)) + "'";
        }
        if (name == "ctitle") {
          return "'C" + std::to_string(Uniform(rng_, 1, n_ / 2 + 1)) + "'";
        }
        return "'R" + std::to_string(rng_() % 20) + "'";
      }
    }
    return "0";
  }

  /// A literal of an integer domain 1..size, its position drawn from the
  /// weighted attribute-domain classes.
  int64_t IntLiteral(int64_t size) {
    const int* range = kDomainPermille[Weighted(rng_, kDomainWeights)];
    const int64_t permille = Uniform(rng_, range[0], range[1] - 1);
    return std::max<int64_t>(1, size * permille / 1000);
  }

  std::string Filter(const std::string& var, const std::string& relation) {
    const Comp* c = Pick(rng_, CompsOf(relation));
    return Atom(var + "." + c->name, Pick(rng_, kOps), Literal(*c));
  }

  static std::string Atom(const std::string& lhs, const std::string& op,
                          const std::string& rhs) {
    return "(" + lhs + " " + op + " " + rhs + ")";
  }

  /// Conjunctive join over e and `joins` SOME variables whose join graph
  /// is a chain, star or cycle. Each term sits at the depth of the
  /// innermost variable it mentions — the nesting a user writes, and the
  /// one the naive oracle can evaluate at scale 16.
  std::string Conjunctive(Shape shape, int joins) {
    struct Var {
      std::string name;
      std::string relation;
    };
    std::vector<Var> vars = {{"e", "employees"}};
    std::vector<std::vector<std::string>> terms(joins + 1);
    if (Coin(rng_, 0.5)) terms[0].push_back(Filter("e", "employees"));
    const size_t center = shape == Shape::kStar && joins >= 2 && Coin(rng_, 0.5)
                              ? 1
                              : 0;
    for (int i = 1; i <= joins; ++i) {
      const size_t partner =
          shape == Shape::kStar ? (i == 1 ? 0 : center) : static_cast<size_t>(i - 1);
      const Var& p = vars[partner];
      Dom dom;
      std::string relation;
      if (shape == Shape::kCycle) {
        // e -emp- timetable -course- ... -course- timetable, closed by an
        // employee-number term back to e: a genuine cycle, not one that
        // equality transitivity already implies.
        dom = i == 1 ? Dom::kEmp : Dom::kCourse;
        relation = (i == 1 || i == joins) ? "timetable"
                                           : (Coin(rng_, 0.5) ? "courses"
                                                              : "timetable");
      } else {
        std::vector<Dom> doms;
        for (Dom d : {Dom::kEmp, Dom::kCourse}) {
          if (CompWithDom(p.relation, d) != nullptr) doms.push_back(d);
        }
        dom = Pick(rng_, doms);
        std::vector<std::string> rels;
        for (const char* r : kRelations) {
          if (CompWithDom(r, dom) != nullptr) rels.push_back(r);
        }
        relation = Pick(rng_, rels);
      }
      const std::string name = "j" + std::to_string(i);
      terms[i].push_back(Atom(name + "." + CompWithDom(relation, dom)->name,
                              "=", p.name + "." + CompWithDom(p.relation, dom)->name));
      if (Coin(rng_, 0.5)) terms[i].push_back(Filter(name, relation));
      vars.push_back({name, relation});
    }
    if (shape == Shape::kCycle) {
      terms[joins].push_back(
          Atom(vars[joins].name + ".tenr", "=", "e.enr"));
    }
    // Innermost first: level i holds its terms AND the next quantifier.
    std::string inner;
    for (int i = joins; i >= 1; --i) {
      std::vector<std::string> parts = terms[i];
      if (!inner.empty()) parts.push_back(inner);
      inner = "SOME " + vars[i].name + " IN " + vars[i].relation + " (" +
              Join(parts, " AND ") + ")";
    }
    std::vector<std::string> top = terms[0];
    top.push_back(inner);
    return Selection(Join(top, " AND "));
  }

  // The two paper examples with random literals and comparison operators
  // in their monadic terms (literals alone give only 336 texts each).
  std::string Example21() {
    return "[<e.ename> OF EACH e IN employees: (e.estatus " + Op() + " " +
           Pick(rng_, kStatus) + ") AND (ALL p IN papers ((p.pyear " + Op() +
           " " + Year() +
           ") OR (e.enr <> p.penr)) OR SOME c IN courses ((c.clevel " + Op() +
           " " + Pick(rng_, kLevels) +
           ") AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = "
           "t.tenr))))]";
  }

  std::string Example45() {
    return "[<e.ename> OF EACH e IN [EACH e IN employees: e.estatus " + Op() +
           " " + Pick(rng_, kStatus) +
           "]: ALL p IN [EACH p IN papers: p.pyear " + Op() + " " + Year() +
           "] SOME c IN [EACH c IN courses: c.clevel " + Op() + " " +
           Pick(rng_, kLevels) +
           "] SOME t IN timetable ((p.penr <> e.enr) OR (t.tenr = e.enr) AND "
           "(t.tcnr = c.cnr))]";
  }

  /// A formula over e with exactly one quantified variable q. The matrix
  /// of SOME is a conjunction of atoms and that of ALL a disjunction, the
  /// range-coupled shapes of the paper's examples. ALL over a conjunction
  /// is left out: level 4 answers some of those wrongly (an ALL whose
  /// matrix is `monadic(q) AND dyadic(e, q)`), which would fail the oracle
  /// pass on seeds that happen to draw one.
  std::string SingleQuantifier() {
    scope_ = {{"e", "employees"}};
    const std::string relation = Pick(rng_, kRelations);
    const bool some = Coin(rng_, 0.5);
    scope_.push_back({"q", relation});
    std::vector<std::string> atoms = {RandomAtom(&scope_.back())};
    const int extra = static_cast<int>(rng_() % 3);
    for (int i = 0; i < extra; ++i) atoms.push_back(RandomAtom(nullptr));
    scope_.pop_back();
    const std::string quant = std::string(some ? "SOME" : "ALL") + " q IN " +
                              relation + " (" +
                              Join(atoms, some ? " AND " : " OR ") + ")";
    switch (rng_() % 4) {
      case 0:
        return Selection(quant);
      case 1:
        return Selection("(" + Formula(1) + " AND " + quant + ")");
      case 2:
        return Selection("(" + Formula(1) + " OR " + quant + ")");
      default:
        return Selection("NOT (" + quant + ")");
    }
  }

 private:
  struct ScopeVar {
    std::string name;
    std::string relation;
  };

  std::string Year() { return std::to_string(kFirstYear + rng_() % kYears); }
  std::string Op() { return Pick(rng_, kOps); }

  static std::string Join(const std::vector<std::string>& parts,
                          const char* sep) {
    std::string out;
    for (const std::string& p : parts) {
      if (!out.empty()) out += sep;
      out += p;
    }
    return out;
  }

  static std::string Selection(const std::string& wff) {
    return "[<e.ename> OF EACH e IN employees: " + wff + "]";
  }

  /// A quantifier-free formula over the variables in scope.
  std::string Formula(int depth) {
    if (depth <= 0 || Coin(rng_, 0.35)) return RandomAtom(nullptr);
    switch (rng_() % 3) {
      case 0:
        return "(" + Formula(depth - 1) + " AND " + Formula(depth - 1) + ")";
      case 1:
        return "(" + Formula(depth - 1) + " OR " + Formula(depth - 1) + ")";
      default:
        return "NOT " + Formula(depth - 1);
    }
  }

  /// An atom on `var` (a random variable in scope when null), compared
  /// with a literal or with a same-domain component in scope.
  std::string RandomAtom(const ScopeVar* var) {
    if (var == nullptr) var = &Pick(rng_, scope_);
    const Comp* lhs = Pick(rng_, CompsOf(var->relation));
    const std::string lhs_text = var->name + "." + lhs->name;
    if (Coin(rng_, 0.5)) {
      std::vector<std::string> partners;
      for (const ScopeVar& other : scope_) {
        for (const Comp* c : CompsOf(other.relation)) {
          if (c->dom == lhs->dom && !(other.name == var->name && c == lhs)) {
            partners.push_back(other.name + "." + c->name);
          }
        }
      }
      if (!partners.empty()) {
        return Atom(lhs_text, Pick(rng_, kOps), Pick(rng_, partners));
      }
    }
    return Atom(lhs_text, Pick(rng_, kOps), Literal(*lhs));
  }

  Rng& rng_;
  int64_t n_;
  std::vector<ScopeVar> scope_;
};

ReadStmt Adhoc(Rng& rng, size_t n, int cls) {
  TextGen gen(&rng, n);
  const AdhocClass& c = AdhocClasses()[cls];
  ReadStmt s;
  s.mode = Mode::kQuery;
  s.tmpl = cls;
  switch (c.shape) {
    case Shape::kExample21:
      s.text = gen.Example21();
      break;
    case Shape::kExample45:
      s.text = gen.Example45();
      break;
    case Shape::kSingle:
      s.text = gen.SingleQuantifier();
      break;
    default:
      s.text = gen.Conjunctive(c.shape, c.joins);
  }
  s.key = std::hash<std::string>{}(s.text);
  return s;
}

int DrawConjunctiveClass(Rng& rng) {
  Shape shape = Pick(rng, kGraphClasses);
  const int joins = static_cast<int>(Weighted(rng, kJoinWeights)) + 1;
  // A cycle needs two joins; a one-join "cycle" is the one-join chain.
  if (shape == Shape::kCycle && joins < 2) shape = Shape::kChain;
  return ClassIndex(shape, joins);
}

/// One stratified block of 8 ad hoc classes: half conjunctive joins, an
/// eighth each of the two paper examples, a quarter single-quantifier
/// formulas.
std::vector<int> AdhocBlockClasses(Rng& rng) {
  std::vector<int> classes;
  for (int i = 0; i < 4; ++i) classes.push_back(DrawConjunctiveClass(rng));
  classes.push_back(ClassIndex(Shape::kExample21, 0));
  classes.push_back(ClassIndex(Shape::kExample45, 0));
  classes.push_back(ClassIndex(Shape::kSingle, 1));
  classes.push_back(ClassIndex(Shape::kSingle, 1));
  return classes;
}

// ------------------------------------------------------ prepared templates

const std::vector<Template> kHostLoopTemplates = {
    {"point", "[<e.ename> OF EACH e IN employees: e.enr = $k]"},
    {"range", "[<e.ename> OF EACH e IN employees: e.enr <= $top]"},
    {"papers_by_year", "[<p.ptitle> OF EACH p IN papers: p.pyear = $y]"},
    {"no_paper_in_year",
     "[<e.ename> OF EACH e IN [EACH e IN employees: e.enr <= $top]: ALL p "
     "IN [EACH p IN papers: p.pyear = $y] (p.penr <> e.enr)]"},
    {"authors_in_year",
     "[<e.ename> OF EACH e IN employees: (e.enr <= $top) AND SOME p IN "
     "papers ((p.penr = e.enr) AND (p.pyear = $y))]"},
    {"browse",
     "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: "
     "(e.enr <= $top) AND SOME t IN timetable ((e.enr = t.tenr) AND "
     "(c.cnr = t.tcnr))]"},
};
constexpr int kBrowseTemplate = 5;
/// host_loop block: 4 full Executes of each of the five non-browse
/// templates and 5 browsing cursors — 80% / 20%.
constexpr int kExecutesPerTemplate = 4;
constexpr int kBrowsesPerBlock = 5;

const std::vector<Template> kReportTemplates = {
    {"example21",
     "[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND (ALL p "
     "IN papers ((p.pyear <> $y) OR (e.enr <> p.penr)) OR SOME c IN courses "
     "((c.clevel <= sophomore) AND SOME t IN timetable ((c.cnr = t.tcnr) AND "
     "(e.enr = t.tenr))))]"},
    {"teaching",
     "[<e.ename, c.ctitle> OF EACH e IN employees, EACH c IN courses: SOME t "
     "IN timetable ((e.enr = t.tenr) AND (c.cnr = t.tcnr))]"},
    {"coverage",
     "[<e.ename> OF EACH e IN employees: ALL c IN [EACH c IN courses: c.cnr "
     "<= $m] SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr))]"},
};

constexpr int kTopSteps = 16;
constexpr int kCoverageMax = 3;

ParamBindings Params(std::initializer_list<std::pair<const char*, int64_t>> kv) {
  ParamBindings out;
  for (const auto& [name, v] : kv) out[name] = Value::MakeInt(v);
  return out;
}

uint64_t MemoKey(int tmpl, const ParamBindings& params) {
  std::string key = std::to_string(tmpl);
  for (const auto& [name, value] : params) {
    key += "|" + name + "=" + value.ToString();
  }
  return std::hash<std::string>{}(key);
}

/// Every parameter binding template `tmpl` of `w` is executed with.
std::vector<ParamBindings> Domain(Workload w, size_t n, int tmpl) {
  const int64_t size = static_cast<int64_t>(n);
  std::vector<int64_t> tops;
  for (int i = 1; i <= kTopSteps; ++i) {
    tops.push_back(std::max<int64_t>(1, size * i / kTopSteps));
  }
  std::vector<ParamBindings> out;
  const std::string name = TemplatesOf(w)[tmpl].name;
  if (name == "point") {
    for (int64_t k = 1; k <= size; ++k) out.push_back(Params({{"k", k}}));
  } else if (name == "range" || name == "browse") {
    for (int64_t top : tops) out.push_back(Params({{"top", top}}));
  } else if (name == "papers_by_year" || name == "example21") {
    for (int y = 0; y < kYears; ++y) {
      out.push_back(Params({{"y", kFirstYear + y}}));
    }
  } else if (name == "no_paper_in_year" || name == "authors_in_year") {
    for (int64_t top : tops) {
      for (int y = 0; y < kYears; ++y) {
        out.push_back(Params({{"top", top}, {"y", kFirstYear + y}}));
      }
    }
  } else if (name == "coverage") {
    for (int m = 1; m <= kCoverageMax; ++m) out.push_back(Params({{"m", m}}));
  } else {
    out.push_back({});  // parameter-free template
  }
  return out;
}

Mode PreparedMode(Workload w, int tmpl) {
  if (w == Workload::kReport) return Mode::kDrain;
  return tmpl == kBrowseTemplate ? Mode::kBrowse : Mode::kExecute;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kAdhoc, Workload::kHostLoop, Workload::kReport,
                     Workload::kMixedRw}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAdhoc:
      return "adhoc";
    case Workload::kHostLoop:
      return "host_loop";
    case Workload::kReport:
      return "report";
    case Workload::kMixedRw:
      return "mixed_rw";
  }
  return "?";
}

size_t WorkloadScale(Workload w) {
  switch (w) {
    case Workload::kAdhoc:
      return 64;
    case Workload::kReport:
      return 4000;
    default:
      return 1000;
  }
}

pascalr::UniversityScale ScaleFor(size_t n, uint64_t seed) {
  pascalr::UniversityScale scale;
  scale.employees = n;
  scale.papers = 2 * n;
  scale.courses = n / 2 + 1;
  scale.timetable = 3 * n;
  scale.seed = seed;
  return scale;
}

const std::vector<Template>& TemplatesOf(Workload w) {
  static const std::vector<Template> kNone;
  switch (w) {
    case Workload::kAdhoc:
      return kNone;
    case Workload::kReport:
      return kReportTemplates;
    default:
      return kHostLoopTemplates;
  }
}

std::string SourceOf(Workload w, const ReadStmt& s) {
  return s.mode == Mode::kQuery ? s.text : TemplatesOf(w)[s.tmpl].source;
}

std::string ClassName(Workload w, int tmpl) {
  if (w == Workload::kAdhoc) return AdhocClasses()[tmpl].name;
  return TemplatesOf(w)[tmpl].name;
}

int ClassCount(Workload w) {
  return w == Workload::kAdhoc ? static_cast<int>(AdhocClasses().size())
                               : static_cast<int>(TemplatesOf(w).size());
}

Stream::Stream(Workload w, size_t n, uint64_t seed) : workload_(w), rng_(seed) {
  if (w == Workload::kAdhoc) {
    // Distinct texts only. Session::Query keeps no plan between calls, so
    // a text run again is compiled from scratch again.
    std::unordered_set<uint64_t> seen;
    pool_.reserve(kAdhocPool);
    while (pool_.size() < kAdhocPool) {
      std::vector<int> classes = AdhocBlockClasses(rng_);
      Shuffle(rng_, &classes);
      for (int cls : classes) {
        ReadStmt s;
        do {
          s = Adhoc(rng_, n, cls);
        } while (!seen.insert(s.key).second);
        pool_.push_back(std::move(s));
      }
    }
    return;
  }
  for (int t = 0; t < ClassCount(w); ++t) {
    domains_.push_back(Domain(w, n, t));
    Shuffle(rng_, &domains_.back());
  }
  domain_pos_.assign(domains_.size(), 0);
}

ReadStmt Stream::Prepared(int tmpl, Mode mode) {
  const std::vector<ParamBindings>& domain = domains_[tmpl];
  size_t& pos = domain_pos_[tmpl];
  ReadStmt s;
  s.mode = mode;
  s.tmpl = tmpl;
  s.params = domain[pos];
  s.key = MemoKey(tmpl, s.params);
  pos = (pos + 1) % domain.size();
  return s;
}

ReadStmt Stream::Next() {
  if (workload_ == Workload::kAdhoc) {
    ReadStmt s = pool_[pos_];
    pos_ = (pos_ + 1) % pool_.size();
    return s;
  }
  if (block_.empty()) {
    if (workload_ == Workload::kReport) {
      for (int t = 0; t < ClassCount(workload_); ++t) {
        block_.emplace_back(t, Mode::kDrain);
      }
    } else {
      for (int t = 0; t < kBrowseTemplate; ++t) {
        for (int i = 0; i < kExecutesPerTemplate; ++i) {
          block_.emplace_back(t, Mode::kExecute);
        }
      }
      for (int i = 0; i < kBrowsesPerBlock; ++i) {
        block_.emplace_back(kBrowseTemplate, Mode::kBrowse);
      }
    }
    Shuffle(rng_, &block_);
  }
  const auto [tmpl, mode] = block_.back();
  block_.pop_back();
  return Prepared(tmpl, mode);
}

std::vector<ReadStmt> OracleSample(Workload w, size_t n, uint64_t seed,
                                   size_t per_class) {
  Rng rng(seed);
  std::vector<ReadStmt> out;
  for (size_t i = 0; i < per_class; ++i) {
    for (int c = 0; c < ClassCount(w); ++c) {
      if (w == Workload::kAdhoc) {
        out.push_back(Adhoc(rng, n, c));
        continue;
      }
      const std::vector<ParamBindings> domain = Domain(w, n, c);
      ReadStmt s;
      s.mode = PreparedMode(w, c);
      s.tmpl = c;
      s.params = Pick(rng, domain);
      s.key = MemoKey(c, s.params);
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<ReadStmt> AllPairs(Workload w, size_t n) {
  std::vector<ReadStmt> out;
  for (int t = 0; t < ClassCount(w) && w != Workload::kAdhoc; ++t) {
    for (ParamBindings& params : Domain(w, n, t)) {
      ReadStmt s;
      s.mode = Mode::kExecute;
      s.tmpl = t;
      s.key = MemoKey(t, params);
      s.params = std::move(params);
      out.push_back(std::move(s));
    }
  }
  return out;
}

// ------------------------------------------------------------------ writes

std::string WriteStream::Insert(int rel, int64_t key) const {
  const std::string k = std::to_string(key);
  switch (rel) {
    case 0:
      return "employees :+ [<" + k + ", 'S" + k + "', student>];";
    case 1:
      return "papers :+ [<" + k + ", 1950, 'S" + k + "'>];";
    default:
      return "timetable :+ [<" + k + ", 1, monday, 9000000, 'S'>];";
  }
}

std::string WriteStream::Delete(int rel, int64_t key) const {
  const std::string k = std::to_string(key);
  switch (rel) {
    case 0:
      return "employees :- [<" + k + ">];";
    case 1:
      return "papers :- [<'S" + k + "', " + k + ">];";
    default:
      return "timetable :- [<" + k + ", 1, monday>];";
  }
}

std::vector<std::string> WriteStream::ShadowRows() const {
  std::vector<std::string> out;
  for (int rel = 0; rel < 3; ++rel) {
    for (size_t i = 0; i < kWindow; ++i) {
      out.push_back(Insert(rel, static_cast<int64_t>(n_ + 1 + i)));
    }
  }
  return out;
}

std::string WriteStream::Next() {
  // Statement j: pair p = j/2 on relation p%3, the relation's pair index
  // idx = p/3. The even statement inserts key n+1+window+idx, the odd one
  // deletes key n+1+idx, so each relation keeps `kWindow` shadow rows and
  // every delete finds its row. Shadow keys exceed n (employees, authors,
  // teachers), their papers date from 1950: outside every reader predicate.
  const uint64_t j = count_++;
  const uint64_t pair = j / 2;
  const int rel = static_cast<int>(pair % 3);
  const int64_t idx = static_cast<int64_t>(pair / 3);
  const int64_t base = static_cast<int64_t>(n_) + 1;
  return j % 2 == 0 ? Insert(rel, base + static_cast<int64_t>(kWindow) + idx)
                    : Delete(rel, base + idx);
}

}  // namespace e2e
