#include "opt/planner.h"

#include <memory>

#include "base/counters.h"
#include "cost/plan_search.h"
#include "exec/cursor.h"
#include "exec/eval_util.h"
#include "normalize/fold_empty.h"
#include "normalize/standard_form.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "opt/params.h"
#include "opt/scan_plan.h"

namespace pascalr {

bool RangeIsEmpty(const Database& db, const RangeExpr& range) {
  const Relation* rel = db.FindRelation(range.relation);
  if (rel == nullptr || rel->empty()) return true;
  if (!range.IsExtended()) return false;
  bool found = false;
  rel->Scan([&](const Ref&, const Tuple& tuple) {
    if (EvalRestriction(*range.restriction, tuple, nullptr)) {
      found = true;
      return false;
    }
    return true;
  });
  return !found;
}

BoundQuery CloneBoundQuery(const BoundQuery& query) {
  BoundQuery out;
  out.selection = query.selection.Clone();
  out.vars = query.vars;
  out.output_schema = query.output_schema;
  out.params = query.params;
  return out;
}

QueryPlan CloneQueryPlan(const QueryPlan& plan) {
  QueryPlan out;
  out.sf = plan.sf.Clone();
  out.level = plan.level;
  out.scans = plan.scans;
  out.indexes = plan.indexes;
  out.value_lists = plan.value_lists;
  out.structures = plan.structures;
  out.post_probes = plan.post_probes;
  out.conj_inputs = plan.conj_inputs;
  out.eliminated_vars = plan.eliminated_vars;
  out.division = plan.division;
  out.batch_size = plan.batch_size;
  return out;
}

PlannedQuery ClonePlannedQuery(const PlannedQuery& planned) {
  PlannedQuery out;
  out.plan = CloneQueryPlan(planned.plan);
  out.range_extension = planned.range_extension;
  out.quant_pushdown_summary = planned.quant_pushdown_summary;
  out.adaptation_notes = planned.adaptation_notes;
  out.replans = planned.replans;
  out.cost_based = planned.cost_based;
  out.estimate = planned.estimate;
  out.cost_candidates = planned.cost_candidates;
  return out;
}

LevelForm LevelForm::Clone() const {
  return {level, sf.Clone(), range_extension, pushdown, notes, replans};
}

Result<LevelForm> StandardFormWithFolding(const Database& db,
                                          BoundQuery query) {
  TraceSpanGuard trace_span(spans::kNormalize);
  LevelForm out;
  PASCALR_ASSIGN_OR_RETURN(out.sf, BuildStandardForm(std::move(query)));
  bool any_empty = false;
  for (const QuantifiedVar& qv : out.sf.prefix) {
    if (qv.quantifier == Quantifier::kFree) continue;
    if (RangeIsEmpty(db, qv.range)) {
      any_empty = true;
      out.notes += "  adapted: range of " + qv.var + " is empty (Lemma 1)\n";
    }
  }
  if (!any_empty) return out;
  ++out.replans;
  FormulaPtr folded = FoldEmptyRanges(
      out.sf.original_nnf->Clone(),
      [&](const RangeExpr& range) { return RangeIsEmpty(db, range); });
  PASCALR_ASSIGN_OR_RETURN(out.sf,
                           RebuildStandardForm(out.sf, std::move(folded)));
  return out;
}

LevelForm LevelFormFor(const Database& db, const LevelForm& folded,
                       OptLevel level) {
  LevelForm form = folded.Clone();
  form.level = level;
  if (level >= OptLevel::kRangeExt) {
    form.range_extension = ApplyRangeExtension(&form.sf, /*use_cnf=*/true);
    // Adaptation rule 2: a strategy-3 extension denoting an empty range
    // invalidates the factoring; abandon the extensions.
    bool extension_empty = false;
    for (const QuantifiedVar& qv : form.sf.prefix) {
      if (qv.range.IsExtended() && RangeIsEmpty(db, qv.range)) {
        extension_empty = true;
        form.notes += "  adapted: extended range of " + qv.var +
                      " is empty; strategies 3/4 abandoned\n";
      }
    }
    if (extension_empty) {
      // The unextended form is rule 1's output again, trail included.
      form.level = OptLevel::kOneStep;
      form.sf = folded.sf.Clone();
      form.range_extension = RangeExtensionReport();
      form.notes += folded.notes;
      form.replans += 1 + folded.replans;
    }
  }
  if (form.level >= OptLevel::kQuantPush) {
    form.pushdown = ApplyQuantPushdown(&form.sf);
  }
  return form;
}

Result<PlannedQuery> PlanLevelForm(const Database& db, LevelForm form,
                                   const PlannerOptions& options) {
  ++GlobalCompileCounters().plans;
  TraceSpanGuard trace_span(spans::kPlan, nullptr,
                            std::string(OptLevelToString(options.level)));
  PlannedQuery out;
  out.range_extension = std::move(form.range_extension);
  out.quant_pushdown_summary.eliminated = form.pushdown.eliminated;
  out.quant_pushdown_summary.derived = form.pushdown.derived;
  out.adaptation_notes = std::move(form.notes);
  out.replans = form.replans;

  Result<QueryPlan> plan = BuildScanPlan(std::move(form.sf), form.level,
                                         std::move(form.pushdown), db);
  if (!plan.ok()) return plan.status();
  out.plan = std::move(plan).value();
  out.plan.division = options.division;
  out.plan.batch_size = options.batch_size;
  if (options.use_permanent_indexes) {
    for (IndexBuildSpec& spec : out.plan.indexes) {
      // A permanent index covers the whole relation; it can only stand in
      // for an ungated index over an *unextended* range.
      const QuantifiedVar* qv = out.plan.sf.FindVar(spec.var);
      spec.try_permanent = spec.gates.empty() && qv != nullptr &&
                           !qv->range.IsExtended();
    }
  }
  return out;
}

Result<PlannedQuery> PlanQuery(const Database& db, BoundQuery query,
                               const PlannerOptions& options) {
  if (SelectionHasUnboundParams(query.selection)) {
    return Status::InvalidArgument(
        "selection has unbound $parameters; prepare it with "
        "Session::Prepare and Execute it with parameter values");
  }
  if (options.level == OptLevel::kAuto) {
    // Cost-based selection: src/cost/plan_search.cc plans each concrete
    // level from one shared folded form and keeps the cheapest.
    return SearchBestPlan(db, std::move(query), options);
  }
  PASCALR_ASSIGN_OR_RETURN(LevelForm folded,
                           StandardFormWithFolding(db, std::move(query)));
  return PlanLevelForm(db, LevelFormFor(db, folded, options.level), options);
}

Result<QueryRun> RunPlanned(const Database& db, PlannedQuery planned) {
  QueryRun run;
  // The cursor shares the plan through an aliasing pointer; once it is
  // closed the PlannedQuery is ours again and moves into the run.
  auto shared = std::make_shared<PlannedQuery>(std::move(planned));
  {
    PASCALR_ASSIGN_OR_RETURN(
        Cursor cursor,
        Cursor::Open(std::shared_ptr<const QueryPlan>(shared, &shared->plan),
                     db));
    Tuple tuple;
    while (true) {
      PASCALR_ASSIGN_OR_RETURN(bool more, cursor.Next(&tuple));
      if (!more) break;
      run.tuples.push_back(std::move(tuple));
    }
    run.stats = cursor.stats();
    run.collection = cursor.ReleaseCollection();
  }
  run.planned = std::move(*shared);
  return run;
}

Result<QueryRun> RunQuery(const Database& db, BoundQuery query,
                          const PlannerOptions& options) {
  PASCALR_ASSIGN_OR_RETURN(PlannedQuery planned,
                           PlanQuery(db, std::move(query), options));
  PASCALR_ASSIGN_OR_RETURN(QueryRun run, RunPlanned(db, std::move(planned)));
  run.stats.replans = run.planned.replans;
  return run;
}

}  // namespace pascalr
