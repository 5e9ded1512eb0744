#include "opt/quant_pushdown.h"

#include <algorithm>
#include <set>

#include "base/str_util.h"

namespace pascalr {

namespace {

/// The elimination recipe for one conjunction.
struct ConjElimination {
  size_t conj = 0;
  JoinTerm dyadic;              ///< oriented vm-side first
  std::string vm;
  std::vector<JoinTerm> vn_gates;
  std::vector<size_t> consumed_derived;  ///< indices into `pending`
};

/// Plans the elimination of `vn` (entry `qv`) across the matrix; returns
/// false if the paper's preconditions do not hold.
bool PlanElimination(const StandardForm& sf, const QuantifiedVar& qv,
                     const std::vector<DerivedPredicate>& pending,
                     const std::set<std::string>& eliminated,
                     std::vector<ConjElimination>* out) {
  const std::string& vn = qv.var;
  const VarBinding& vn_binding = sf.vars.at(vn);

  std::vector<size_t> referencing;
  for (size_t c = 0; c < sf.matrix.disjuncts.size(); ++c) {
    bool refs = sf.matrix.disjuncts[c].References(vn);
    for (size_t p = 0; p < pending.size() && !refs; ++p) {
      refs = pending[p].conj == c && pending[p].vm == vn;
    }
    if (refs) referencing.push_back(c);
  }
  if (referencing.empty()) return true;  // trivial elimination
  if (qv.quantifier == Quantifier::kAll && referencing.size() > 1) {
    return false;  // Lemma 1: universal splitting needs a single disjunct
  }

  for (size_t c : referencing) {
    const Conjunction& conj = sf.matrix.disjuncts[c];
    ConjElimination elim;
    elim.conj = c;
    int dyadic_count = 0;
    for (const JoinTerm& t : conj.terms) {
      if (!t.References(vn)) continue;
      if (t.IsMonadicOver(vn)) {
        elim.vn_gates.push_back(t);
        continue;
      }
      ++dyadic_count;
      // Orient vm-side first.
      elim.dyadic = (t.lhs.is_component() && t.lhs.var == vn) ? t.Mirrored() : t;
      elim.vm = elim.dyadic.lhs.var;
    }
    if (dyadic_count != 1) return false;  // need exactly one link to one vm
    if (eliminated.count(elim.vm) > 0) return false;
    const VarBinding& vm_binding = sf.vars.at(elim.vm);
    if (vm_binding.relation_name == vn_binding.relation_name) {
      return false;  // value list and probe would share one scan
    }
    // The dyadic term must compare vm's component with vn's component (no
    // literals can appear in a dyadic term by definition).
    for (size_t p = 0; p < pending.size(); ++p) {
      if (pending[p].conj == c && pending[p].vm == vn) {
        elim.consumed_derived.push_back(p);
      }
    }
    // Gates and cascaded probes filter vn's value list; ALL needs it whole.
    if (qv.quantifier == Quantifier::kAll &&
        !(elim.vn_gates.empty() && elim.consumed_derived.empty())) {
      return false;
    }
    out->push_back(std::move(elim));
  }
  return true;
}

}  // namespace

QuantPushdownResult ApplyQuantPushdown(StandardForm* sf) {
  QuantPushdownResult result;
  std::vector<DerivedPredicate> pending;
  std::set<std::string> eliminated;

  bool progress = true;
  while (progress) {
    progress = false;
    // Active quantified entries, rightmost first.
    std::vector<size_t> active;
    for (size_t i = 0; i < sf->prefix.size(); ++i) {
      const QuantifiedVar& qv = sf->prefix[i];
      if (qv.quantifier != Quantifier::kFree && eliminated.count(qv.var) == 0) {
        active.push_back(i);
      }
    }
    for (size_t a = active.size(); a-- > 0 && !progress;) {
      const QuantifiedVar& qv = sf->prefix[active[a]];
      // Swap legality: bubbling to the innermost position passes only
      // quantifiers equal to qv's (equal quantifiers commute).
      bool can_bubble = true;
      for (size_t b = a + 1; b < active.size(); ++b) {
        if (sf->prefix[active[b]].quantifier != qv.quantifier) {
          can_bubble = false;
          break;
        }
      }
      if (!can_bubble) continue;

      std::vector<ConjElimination> plan;
      if (!PlanElimination(*sf, qv, pending, eliminated, &plan)) continue;

      // Commit: value lists, derived predicates, matrix surgery.
      const std::string vn = qv.var;
      for (ConjElimination& elim : plan) {
        ValueListSpec spec;
        spec.id = result.value_lists.size();
        spec.var = vn;
        // vn's side is the rhs of the oriented dyadic term.
        spec.component_pos = elim.dyadic.rhs.component_pos;
        spec.mode = ValueList::ModeFor(elim.dyadic.op, qv.quantifier);
        spec.gates = elim.vn_gates;
        spec.debug_name = "vl_" + vn + "_" + elim.dyadic.rhs.component;
        // Cascaded gates: derived predicates that targeted vn.
        for (size_t p : elim.consumed_derived) {
          spec.probe_gates.push_back(pending[p].probe);
        }
        result.value_lists.push_back(spec);

        DerivedPredicate derived;
        derived.conj = elim.conj;
        derived.vm = elim.vm;
        derived.vn = vn;
        derived.probe.value_list_id = spec.id;
        derived.probe.quantifier = qv.quantifier;
        derived.probe.op = elim.dyadic.op;
        derived.probe.probe_component_pos = elim.dyadic.lhs.component_pos;
        pending.push_back(derived);

        // Remove vn's terms from the conjunction.
        Conjunction& conj = sf->matrix.disjuncts[elim.conj];
        conj.terms.erase(
            std::remove_if(conj.terms.begin(), conj.terms.end(),
                           [&](const JoinTerm& t) { return t.References(vn); }),
            conj.terms.end());
      }
      // Drop consumed derived predicates (descending index order).
      std::vector<size_t> consumed;
      for (const ConjElimination& elim : plan) {
        consumed.insert(consumed.end(), elim.consumed_derived.begin(),
                        elim.consumed_derived.end());
      }
      std::sort(consumed.rbegin(), consumed.rend());
      consumed.erase(std::unique(consumed.begin(), consumed.end()),
                     consumed.end());
      for (size_t p : consumed) {
        pending.erase(pending.begin() + static_cast<long>(p));
      }

      eliminated.insert(vn);
      result.eliminated.push_back(vn);
      progress = true;
    }
  }

  result.derived = std::move(pending);
  return result;
}

std::string QuantPushdownResult::ToString() const {
  std::string out;
  for (const std::string& v : eliminated) {
    out += "  quantifier of " + v + " evaluated in the collection phase\n";
  }
  for (const DerivedPredicate& d : derived) {
    out += StrFormat(
        "  conjunction %zu: derived single list on %s (probe of %s's value "
        "list)\n",
        d.conj, d.vm.c_str(), d.vn.c_str());
  }
  if (out.empty()) out = "  (no quantifier push-down)\n";
  return out;
}

}  // namespace pascalr
