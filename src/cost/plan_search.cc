#include "cost/plan_search.h"

#include <optional>
#include <set>
#include <vector>

#include "base/counters.h"
#include "base/str_util.h"
#include "cost/cost_model.h"
#include "normalize/standard_form.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace pascalr {

namespace {

std::string LabelFor(const PlannerOptions& o) {
  return StrFormat("O%d%s", static_cast<int>(o.level),
                   o.use_permanent_indexes ? "/perm" : "");
}

/// True when the catalog holds a fresh permanent index over any component
/// of a relation the query ranges over — otherwise the permanent-index
/// knob cannot change any plan.
bool AnyFreshPermanentIndex(const Database& db, const BoundQuery& query) {
  for (const auto& [var, binding] : query.vars) {
    const Relation* rel = db.FindRelation(binding.relation_name);
    if (rel == nullptr) continue;
    for (size_t i = 0; i < rel->schema().num_components(); ++i) {
      if (db.FindFreshIndex(binding.relation_name,
                            rel->schema().component(i).name) != nullptr) {
        return true;
      }
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
double NaiveScanLowerBound(const Database& db, const LevelForm& folded) {
  if (folded.replans > 0) return 0.0;
  const StandardForm& sf = folded.sf;
  for (const auto& [var, binding] : sf.vars) {
    const Relation* rel = db.FindRelation(binding.relation_name);
    if (rel == nullptr || rel->empty()) return 0.0;
  }
  for (const QuantifiedVar& qv : sf.prefix) {
    if (qv.range.IsExtended()) return 0.0;
  }
  double bound = 0.0;
  std::set<std::string> seen;  // the keys AssembleNaive interns by
  for (const Conjunction& conj : sf.matrix.disjuncts) {
    for (const JoinTerm& t : conj.terms) {
      std::vector<std::string> vars = t.Variables();
      if (vars.empty()) continue;
      if (vars.size() == 1) {
        if (!seen.insert("sl#" + vars[0] + "#" + t.ToString()).second) {
          continue;
        }
        bound += CardinalityFor(db, sf.vars.at(vars[0]).relation_name);
        continue;
      }
      if (!seen.insert("ij#" + t.ToString()).second) continue;
      bound += CardinalityFor(db, sf.vars.at(t.lhs.var).relation_name);
      bound += CardinalityFor(db, sf.vars.at(t.rhs.var).relation_name);
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

  // Normalize once. Each level plans from a copy of the folded form, level
  // 4 from level 3's, so range extension and rule 2 run once. A level whose
  // own step changed nothing has the plan of the level below, which wins
  // the equal-cost tie (plan.level is display-only): it is not compiled.
  PASCALR_ASSIGN_OR_RETURN(LevelForm folded,
                           StandardFormWithFolding(db, std::move(query)));
  std::vector<LevelForm> forms;
  for (int level = 0; level <= 3; ++level) {
    forms.push_back(LevelFormFor(db, folded, static_cast<OptLevel>(level)));
  }
  forms.push_back(forms[3].Clone());
  std::string same_as_below[5];
  if (forms[3].level < OptLevel::kRangeExt) {
    same_as_below[3] = same_as_below[4] =
        "extended range empty; strategies 3/4 abandoned";
  } else {
    const RangeExtensionReport& ext = forms[3].range_extension;
    if (ext.extensions.empty() && ext.cnf_extended.empty() &&
        forms[3].sf.matrix.disjuncts.size() ==
            folded.sf.matrix.disjuncts.size()) {
      same_as_below[3] = "no range extended";
    }
    forms[4].level = OptLevel::kQuantPush;
    forms[4].pushdown = ApplyQuantPushdown(&forms[4].sf);
    if (forms[4].pushdown.eliminated.empty()) {
      same_as_below[4] = "no quantifier pushed";
    }
  }

  std::optional<PlannedQuery> best;
  PlannerOptions best_options;
  Status last_error = Status::OK();
  std::string table;

  // Search-space pruning: levels are visited from the strongest strategy
  // down, carrying the best weighted cost so far; a candidate whose scan
  // lower bound already exceeds it cannot win, so its compilation is
  // skipped. Only the naive level has a per-candidate bound worth having
  // (its per-term scans dwarf everything once a grouped plan is costed).
  const double naive_bound = NaiveScanLowerBound(db, folded);
  size_t pruned = 0;

  for (int level = 4; level >= 0; --level) {
    if (!same_as_below[level].empty()) {
      table += StrFormat("  O%d: same plan as O%d (%s)\n", level, level - 1,
                         same_as_below[level].c_str());
      continue;
    }
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

      Result<PlannedQuery> planned = PlanLevelForm(
          db, perm == perm_choices.back() ? std::move(forms[level])
                                          : forms[level].Clone(),
          options);
      if (!planned.ok()) {
        last_error = planned.status();
        table += "  " + LabelFor(options) +
                 ": failed: " + planned.status().ToString() + "\n";
        continue;
      }
      planned->estimate = EstimatePlanCost(planned->plan, db);
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
      }
    }
  }

  if (!best.has_value()) {
    if (last_error.ok()) {
      return Status::Internal("plan search produced no candidate");
    }
    return last_error;
  }
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
