#include "cost/plan_search.h"

#include <optional>
#include <vector>

#include "base/counters.h"
#include "base/str_util.h"
#include "cost/cost_model.h"
#include "normalize/standard_form.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "opt/scan_plan.h"

namespace pascalr {

namespace {

std::string LabelFor(const PlannerOptions& o) {
  return StrFormat("O%d%s", static_cast<int>(o.level),
                   o.use_permanent_indexes ? "/perm" : "");
}

/// True when the catalog holds a fresh permanent index over a component
/// of a relation the query ranges over — otherwise the permanent-index
/// knob cannot change any plan. One pass over the catalog's indexes; with
/// none declared, that is the whole answer.
bool AnyFreshPermanentIndex(const Database& db, const BoundQuery& query) {
  for (const Database::IndexDescription& index : db.ListIndexes()) {
    bool ranged_over = false;
    for (const auto& [var, binding] : query.vars) {
      ranged_over = ranged_over || binding.relation_name == index.relation;
    }
    if (!ranged_over) continue;
    const Relation* rel = db.FindRelation(index.relation);
    if (rel == nullptr || rel->schema().FindComponent(index.component) < 0) {
      continue;
    }
    if (db.FindFreshIndex(index.relation, index.component) != nullptr) {
      return true;
    }
  }
  return false;
}

/// Cardinality as the cost model sees it: fresh statistics, else the live
/// relation.
double CardinalityFor(const Database& db, const std::string& relation) {
  if (const RelationStats* stats = db.FindFreshStats(relation)) {
    return static_cast<double>(stats->cardinality);
  }
  const Relation* rel = db.FindRelation(relation);
  return rel == nullptr ? 0.0 : static_cast<double>(rel->cardinality());
}

/// A lower bound on any *naive* (O0) candidate's estimated cost: the
/// elements the per-term scans must visit. Naive compilation gives every
/// unique single-list term one scan of its variable's relation and every
/// unique indirect-join term an index-build scan plus a probe pass, so
/// summing those cardinalities never exceeds the cost model's
/// elements_scanned for the compiled plan — and elements_scanned is one
/// addend of the weighted cost. Returns 0 (no pruning) whenever the bound
/// cannot be guaranteed: extended ranges (restricted post-scan passes) and
/// empty or missing relations, including any range rule 1 folded away.
double NaiveScanLowerBound(const Database& db, const LevelForm& folded,
                           const PlanIds& ids, const MatrixTermIds& terms) {
  if (folded.replans > 0) return 0.0;
  const StandardForm& sf = folded.sf;
  for (const auto& [var, binding] : sf.vars) {
    const Relation* rel = db.FindRelation(binding.relation_name);
    if (rel == nullptr || rel->empty()) return 0.0;
  }
  for (const QuantifiedVar& qv : sf.prefix) {
    if (qv.range.IsExtended()) return 0.0;
  }
  auto cardinality = [&](VarId v) {
    return CardinalityFor(db, ids.RelationName(ids.RelationOf(v)));
  };
  double bound = 0.0;
  std::vector<bool> seen;  // by term id, as AssembleNaive interns
  for (const std::vector<TermId>& conj : terms) {
    for (TermId term : conj) {
      const TermFacts& f = ids.term(term);
      if (f.a == kNoVar) continue;
      if (term >= seen.size()) seen.resize(term + 1, false);
      if (seen[term]) continue;
      seen[term] = true;
      bound += cardinality(f.a);
      if (f.dyadic()) bound += cardinality(f.b);
    }
  }
  return bound;
}

}  // namespace

Result<PlannedQuery> SearchBestPlan(const Database& db, BoundQuery query,
                                    const PlannerOptions& base) {
  ++GlobalCompileCounters().plan_searches;
  TraceSpanGuard trace_span(spans::kPlanSearch);
  // Permanent indexes only matter when the catalog has one.
  std::vector<bool> perm_choices = {false};
  if (AnyFreshPermanentIndex(db, query)) perm_choices.push_back(true);

  // Normalize once. Levels 0-2 compile the folded form itself, level 3 a
  // copy raised by range extension (and rule 2), level 4 a copy of that
  // with quantifiers pushed, so range extension and rule 2 run once. A
  // level whose own step changed nothing has the plan of the level below,
  // which wins the equal-cost tie (plan.level is display-only): it is not
  // compiled.
  PASCALR_ASSIGN_OR_RETURN(LevelForm folded,
                           StandardFormWithFolding(db, std::move(query)));
  PlanIds ids(folded.sf, db);
  const MatrixTermIds folded_terms = ids.Intern(folded.sf.matrix);
  LevelForm extended = LevelFormFor(db, folded, OptLevel::kRangeExt);
  LevelForm pushed;
  std::string same_as_below[5];
  if (extended.level < OptLevel::kRangeExt) {
    same_as_below[3] = same_as_below[4] =
        "extended range empty; strategies 3/4 abandoned";
  } else {
    const RangeExtensionReport& ext = extended.range_extension;
    if (ext.extensions.empty() && ext.cnf_extended.empty() &&
        extended.sf.matrix.disjuncts.size() ==
            folded.sf.matrix.disjuncts.size()) {
      same_as_below[3] = "no range extended";
    }
    pushed = extended.Clone();
    pushed.level = OptLevel::kQuantPush;
    pushed.pushdown = ApplyQuantPushdown(&pushed.sf);
    if (pushed.pushdown.eliminated.empty()) {
      same_as_below[4] = "no quantifier pushed";
    }
  }
  LevelForm* const forms[5] = {&folded, &folded, &folded, &extended,
                               &pushed};
  // Each compiled form's terms are interned once, however many candidates
  // compile it.
  MatrixTermIds extended_terms, pushed_terms;
  if (same_as_below[3].empty()) extended_terms = ids.Intern(extended.sf.matrix);
  if (same_as_below[4].empty()) pushed_terms = ids.Intern(pushed.sf.matrix);
  const MatrixTermIds* const terms[5] = {&folded_terms, &folded_terms,
                                         &folded_terms, &extended_terms,
                                         &pushed_terms};

  std::optional<PlannedQuery> best;
  PlannerOptions best_options;
  LevelForm* best_form = nullptr;
  Status last_error = Status::OK();
  std::string table;

  // Search-space pruning: levels are visited from the strongest strategy
  // down, carrying the best weighted cost so far; a candidate whose scan
  // lower bound already exceeds it cannot win, so its compilation is
  // skipped. Only the naive level has a per-candidate bound worth having
  // (its per-term scans dwarf everything once a grouped plan is costed).
  const double naive_bound =
      NaiveScanLowerBound(db, folded, ids, folded_terms);
  size_t pruned = 0;

  for (int level = 4; level >= 0; --level) {
    if (!same_as_below[level].empty()) {
      table += StrFormat("  O%d: same plan as O%d (%s)\n", level, level - 1,
                         same_as_below[level].c_str());
      continue;
    }
    LevelForm& form = *forms[level];
    form.level = static_cast<OptLevel>(level);
    for (bool perm : perm_choices) {
      PlannerOptions options = base;
      options.level = static_cast<OptLevel>(level);
      options.use_permanent_indexes = perm;

      // Sound: the bound is a lower bound on elements_scanned, an addend
      // of the weighted cost.
      if (level == 0 && naive_bound > 0.0 && best.has_value() &&
          naive_bound >= best->estimate.weighted_cost) {
        ++pruned;
        continue;
      }

      Result<PlannedQuery> planned =
          PlanLevelForm(form, options, ids, *terms[level]);
      if (!planned.ok()) {
        last_error = planned.status();
        table += "  " + LabelFor(options) +
                 ": failed: " + planned.status().ToString() + "\n";
        continue;
      }
      // The candidate borrows the form's standard form to be priced; only
      // the winner keeps it, once the search is over.
      planned->plan.sf = std::move(form.sf);
      planned->estimate = EstimatePlanCost(planned->plan, db);
      form.sf = std::move(planned->plan.sf);
      // Levels run 4 -> 0 but exact ties still choose the lowest level.
      const double cost = planned->estimate.weighted_cost;
      bool better = !best.has_value() || cost < best->estimate.weighted_cost ||
                    (cost == best->estimate.weighted_cost &&
                     options.level < best_options.level);
      table += StrFormat(
          "  %-22s estimated work %llu (weighted %.0f)\n",
          LabelFor(options).c_str(),
          static_cast<unsigned long long>(
              planned->estimate.predicted.TotalWork()),
          cost);
      if (better) {
        best = std::move(planned).value();
        best_options = options;
        best_form = &form;
      }
    }
  }

  if (!best.has_value()) {
    if (last_error.ok()) {
      return Status::Internal("plan search produced no candidate");
    }
    return last_error;
  }
  best->plan.sf = std::move(best_form->sf);
  best->cost_based = true;
  if (pruned > 0) {
    table += StrFormat(
        "  pruned %zu candidate(s): O0 scan lower bound %.0f exceeds the "
        "best cost\n",
        pruned, naive_bound);
  }
  best->cost_candidates =
      table + "  chosen: " + LabelFor(best_options) + "\n";
  return std::move(best).value();
}

}  // namespace pascalr
