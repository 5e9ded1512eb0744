// Compiles a (possibly strategy-3/4 rewritten) standard form into a
// QueryPlan.
//
//  - OptLevel::kNaive reproduces the Palermo baseline: every join term is
//    evaluated by its own relation scan(s) — one scan per single list, an
//    index-build scan plus a probe scan per indirect join.
//  - OptLevel::kParallel (strategy 1) groups all work on a relation into
//    one scan; scan order is chosen by cardinality under the topological
//    constraints "index before probe" and "value list before quantifier
//    probe".
//  - OptLevel::kOneStep (strategy 2) additionally attaches monadic gates
//    to indirect-join emissions and index builds (absorbed terms leave the
//    combination inputs) and lets co-occurring indirect joins restrict
//    each other via semi-join probe checks.
//
// Strategy 3 and 4 rewrites happen before this pass (see planner.h).
//
// The builder decides on ids, not strings. A PlanIds table gives every
// variable a dense VarId (name order, normalize/var_ids.h), every relation
// of the form a rank (name order, so the scan-order tie break is the
// relation name order it always was), and every distinct join term a
// TermId keyed by its canonical text, with its variables and its mirror's
// id computed once. Structures and indexes are interned by integer tuples
// of those ids; JoinTerm copies are made only for the terms a plan stores.
// One table serves a whole kAuto search (src/cost/plan_search.cc): the
// levels' forms share its variables, and each form's terms are interned
// once however many candidates compile it.

#ifndef PASCALR_OPT_SCAN_PLAN_H_
#define PASCALR_OPT_SCAN_PLAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "exec/plan.h"
#include "normalize/var_ids.h"
#include "opt/quant_pushdown.h"

namespace pascalr {

using TermId = uint32_t;

/// What planning needs to know about one distinct join term.
struct TermFacts {
  /// The referenced variables, as JoinTerm::Variables() lists them: `a`
  /// is kNoVar for a term without variables, `b` for a monadic one.
  VarId a = kNoVar;
  VarId b = kNoVar;
  /// The id of Mirrored(); only set for dyadic terms.
  TermId mirror = 0;

  bool monadic() const { return a != kNoVar && b == kNoVar; }
  bool dyadic() const { return b != kNoVar; }
  bool References(VarId v) const { return a == v || b == v; }
};

/// Term ids of a matrix: entry [c][i] is conjunction c's i-th term.
using MatrixTermIds = std::vector<std::vector<TermId>>;

/// The id table of one plan search (see the header comment). Built from
/// the search's folded standard form; every level form derived from it
/// has the same variables.
class PlanIds {
 public:
  PlanIds(const StandardForm& sf, const Database& db);

  const VarIds& vars() const { return vars_; }
  /// Rank of `v`'s relation among the form's relations, in name order.
  size_t RelationOf(VarId v) const { return relation_of_[v]; }
  size_t num_relations() const { return relation_names_.size(); }
  const std::string& RelationName(size_t rank) const {
    return relation_names_[rank];
  }
  /// Live element count of the relation ranked `rank` (0 when missing).
  size_t Cardinality(size_t rank) const { return cardinality_[rank]; }

  /// Interns every term of `matrix`.
  MatrixTermIds Intern(const DnfMatrix& matrix);
  const TermFacts& term(TermId id) const { return terms_[id]; }
  /// The term's canonical text (JoinTerm::ToString).
  const std::string& Text(TermId id) const { return *texts_[id]; }

 private:
  TermId InternTerm(const JoinTerm& t);

  VarIds vars_;
  std::vector<size_t> relation_of_;
  std::vector<std::string> relation_names_;
  std::vector<size_t> cardinality_;
  std::vector<TermFacts> terms_;
  std::vector<const std::string*> texts_;  ///< keys of by_text_
  std::unordered_map<std::string, TermId> by_text_;
};

/// Compiles `sf` at `level`; `terms` are the ids `ids` gave sf's matrix.
/// The plan's own `sf` is left empty: the caller moves the form in.
Result<QueryPlan> BuildScanPlan(const StandardForm& sf, OptLevel level,
                                QuantPushdownResult pushdown,
                                const PlanIds& ids,
                                const MatrixTermIds& terms);

}  // namespace pascalr

#endif  // PASCALR_OPT_SCAN_PLAN_H_
