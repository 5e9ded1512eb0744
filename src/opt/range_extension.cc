#include "opt/range_extension.h"

#include <algorithm>

#include "base/str_util.h"

namespace pascalr {

namespace {

bool SameTermEither(const JoinTerm& a, const JoinTerm& b) {
  return a == b || a.Mirrored() == b;
}

void AddToRestriction(RangeExpr* range, const JoinTerm& term) {
  FormulaPtr cmp = Formula::Compare(term);
  if (range->restriction == nullptr) {
    range->restriction = std::move(cmp);
  } else {
    range->restriction =
        Formula::And(std::move(range->restriction), std::move(cmp));
  }
}

/// Existential/free extension for one variable. Returns moved terms.
///
/// For an *existential* variable it suffices that the factored term occurs
/// in every disjunct that references the variable: a disjunct without the
/// variable keeps its truth value as long as the extended range is
/// non-empty (which the planner guards at run time). A *free* variable is
/// different — its bindings are delivered to the result, so a disjunct
/// that does not mention it would admit every range element; the term must
/// then occur in EVERY disjunct.
std::vector<JoinTerm> ExtendExistential(StandardForm* sf,
                                        QuantifiedVar* qv) {
  const bool is_free = qv->quantifier == Quantifier::kFree;
  std::vector<size_t> referencing;
  for (size_t i = 0; i < sf->matrix.disjuncts.size(); ++i) {
    if (sf->matrix.disjuncts[i].References(qv->var)) {
      referencing.push_back(i);
    } else if (is_free) {
      return {};  // a v-free disjunct blocks factoring for a free variable
    }
  }
  if (referencing.empty()) return {};

  // Candidates: monadic terms over the variable in the first referencing
  // disjunct that recur in all the others.
  std::vector<JoinTerm> candidates;
  for (const JoinTerm& t : sf->matrix.disjuncts[referencing[0]].terms) {
    if (!t.IsMonadicOver(qv->var)) continue;
    bool everywhere = true;
    for (size_t k = 1; k < referencing.size() && everywhere; ++k) {
      const Conjunction& c = sf->matrix.disjuncts[referencing[k]];
      everywhere = std::any_of(c.terms.begin(), c.terms.end(),
                               [&](const JoinTerm& u) {
                                 return SameTermEither(t, u);
                               });
    }
    if (everywhere) candidates.push_back(t);
  }
  if (candidates.empty()) return {};

  for (size_t idx : referencing) {
    Conjunction& c = sf->matrix.disjuncts[idx];
    c.terms.erase(std::remove_if(c.terms.begin(), c.terms.end(),
                                 [&](const JoinTerm& u) {
                                   return std::any_of(
                                       candidates.begin(), candidates.end(),
                                       [&](const JoinTerm& t) {
                                         return SameTermEither(t, u);
                                       });
                                 }),
                  c.terms.end());
  }
  for (const JoinTerm& t : candidates) AddToRestriction(&qv->range, t);
  return candidates;
}

/// Universal extension: negate single-monadic-term disjuncts into the
/// range. Returns the (negated) terms; counts removed disjuncts.
std::vector<JoinTerm> ExtendUniversal(StandardForm* sf, QuantifiedVar* qv,
                                      size_t* disjuncts_removed) {
  std::vector<JoinTerm> moved;
  std::vector<Conjunction> kept;
  for (Conjunction& c : sf->matrix.disjuncts) {
    if (c.terms.size() == 1 && c.terms[0].IsMonadicOver(qv->var)) {
      JoinTerm negated = c.terms[0].Negated();
      AddToRestriction(&qv->range, negated);
      moved.push_back(negated);
      ++(*disjuncts_removed);
    } else {
      kept.push_back(std::move(c));
    }
  }
  sf->matrix.disjuncts = std::move(kept);
  return moved;
}

void AddFormulaToRestriction(RangeExpr* range, FormulaPtr f) {
  if (range->restriction == nullptr) {
    range->restriction = std::move(f);
  } else {
    range->restriction =
        Formula::And(std::move(range->restriction), std::move(f));
  }
}

/// CNF extension, existential/free case: if every disjunct referencing the
/// variable still carries monadic terms over it, their per-disjunct
/// conjunctions form an implied disjunctive restriction on the range. The
/// matrix is left untouched — only the range shrinks.
bool CnfExtendExistential(StandardForm* sf, QuantifiedVar* qv) {
  const bool is_free = qv->quantifier == Quantifier::kFree;
  std::vector<FormulaPtr> groups;
  bool any_referencing = false;
  for (const Conjunction& c : sf->matrix.disjuncts) {
    if (!c.References(qv->var)) {
      if (is_free) return false;  // see ExtendExistential
      continue;
    }
    any_referencing = true;
    std::vector<FormulaPtr> monadics;
    for (const JoinTerm& t : c.terms) {
      if (t.IsMonadicOver(qv->var)) monadics.push_back(Formula::Compare(t));
    }
    if (monadics.empty()) return false;  // this disjunct admits any element
    groups.push_back(Formula::And(std::move(monadics)));
  }
  if (!any_referencing || groups.empty()) return false;
  // Deduplicate structurally identical groups.
  std::vector<FormulaPtr> unique;
  for (FormulaPtr& g : groups) {
    bool seen = false;
    for (const FormulaPtr& u : unique) seen = seen || u->Equals(*g);
    if (!seen) unique.push_back(std::move(g));
  }
  // A single group would duplicate what conjunctive extension already
  // handles (and with >1 referencing disjunct it would be wrong to
  // conjoin); only a genuine disjunction is new information.
  if (unique.size() < 2) return false;
  AddFormulaToRestriction(&qv->range, Formula::Or(std::move(unique)));
  return true;
}

/// CNF extension, universal case: a *multi-term* disjunct consisting only
/// of monadic terms over the variable is absorbed as the negated
/// conjunction (the single-term case is the classic §4.3 rule).
bool CnfExtendUniversal(StandardForm* sf, QuantifiedVar* qv,
                        size_t* disjuncts_removed) {
  bool extended = false;
  std::vector<Conjunction> kept;
  for (Conjunction& c : sf->matrix.disjuncts) {
    bool pure_monadic =
        c.terms.size() >= 2 &&
        std::all_of(c.terms.begin(), c.terms.end(), [&](const JoinTerm& t) {
          return t.IsMonadicOver(qv->var);
        });
    if (pure_monadic) {
      // NOT (m1 AND ... AND mk) == (NOT m1) OR ... OR (NOT mk).
      std::vector<FormulaPtr> negs;
      for (const JoinTerm& t : c.terms) {
        negs.push_back(Formula::Compare(t.Negated()));
      }
      AddFormulaToRestriction(&qv->range, Formula::Or(std::move(negs)));
      ++(*disjuncts_removed);
      extended = true;
    } else {
      kept.push_back(std::move(c));
    }
  }
  sf->matrix.disjuncts = std::move(kept);
  return extended;
}

}  // namespace

RangeExtensionReport ApplyRangeExtension(StandardForm* sf, bool use_cnf) {
  RangeExtensionReport report;
  // Free and existential variables first (their extensions can leave a
  // universal variable alone in a disjunct, enabling the universal rule —
  // Example 4.5's `prof` factoring precedes the `pyear` absorption).
  for (QuantifiedVar& qv : sf->prefix) {
    if (qv.quantifier == Quantifier::kAll) continue;
    for (JoinTerm& t : ExtendExistential(sf, &qv)) {
      report.extensions.push_back({qv.var, t, false});
    }
  }
  for (QuantifiedVar& qv : sf->prefix) {
    if (qv.quantifier != Quantifier::kAll) continue;
    for (JoinTerm& t :
         ExtendUniversal(sf, &qv, &report.disjuncts_removed)) {
      report.extensions.push_back({qv.var, t, true});
    }
  }
  if (use_cnf) {
    for (QuantifiedVar& qv : sf->prefix) {
      bool extended =
          qv.quantifier == Quantifier::kAll
              ? CnfExtendUniversal(sf, &qv, &report.disjuncts_removed)
              : CnfExtendExistential(sf, &qv);
      if (extended) report.cnf_extended.push_back(qv.var);
    }
  }
  // A disjunct emptied by existential extension means TRUE.
  for (const Conjunction& c : sf->matrix.disjuncts) {
    if (c.terms.empty()) {
      sf->matrix.disjuncts.clear();
      sf->matrix.disjuncts.push_back(Conjunction{});
      break;
    }
  }
  return report;
}

std::string RangeExtensionReport::ToString() const {
  std::string out;
  for (const Entry& e : extensions) {
    out += StrFormat("  range of %s extended with %s%s\n", e.var.c_str(),
                     e.term.ToString().c_str(),
                     e.from_universal_disjunct
                         ? " (negated universal disjunct)"
                         : "");
  }
  if (disjuncts_removed > 0) {
    out += StrFormat("  %zu disjunct(s) removed\n", disjuncts_removed);
  }
  for (const std::string& v : cnf_extended) {
    out += "  range of " + v + " gained a disjunctive (CNF) restriction\n";
  }
  if (out.empty()) out = "  (no extensions)\n";
  return out;
}

}  // namespace pascalr
