// Prepared queries: the Prepare / Bind / Execute lifecycle PASCAL/R's
// embedding implies (Jarke & Schmidt §2 — the same selection runs
// repeatedly inside host-program loops with changing host-variable
// values, so compilation is split from execution and the strategy choice
// is reused, not redone, per iteration).
//
//   auto pq = session.Prepare(
//       "[<e.ename> OF EACH e IN employees: e.enr <= $top]");
//   for (int64_t top : {5, 10, 50}) {
//     auto run = pq->Execute({{"top", Value::MakeInt(top)}});
//     ...
//   }
//
// Prepare parses and binds once ($params are typed by the binder against
// the components they are compared with) and collects the template's
// ranges, flagging the parameter-carrying ones. The first execution
// substitutes the bound values and runs cost-based planning —
// parameterized selectivity is estimated from the actual values, so
// OptLevel::kAuto can pick a different strategy level for a selective vs.
// a non-selective binding. The compiled plan is cached with the session's
// planner options and one PlanStamp (concurrency/plan_cache.h): the
// catalog stats epoch, the referenced relations' mod counts and plan-time
// cardinalities, and the plan-time emptiness of every template and
// plan-prefix range. While the options match and the stamp holds, further
// executions only re-patch the parameter slots in place — zero parse /
// normalize / plan-search work (asserted by tests against
// base/counters.h). ANALYZE breaks the stamp and the next execution
// transparently replans. A write to a referenced relation does not by
// itself: the plan is revalidated — the ranges over the written relation
// are re-probed and its cardinality must stay within the stamp's band —
// and only a flipped verdict or a breached band replans. Safety wrinkle:
// the emptiness of a range drives the planner's runtime-adaptation rules
// (Lemma 1, rule 2), so a range whose restriction holds a parameter is
// re-probed under the new values on every execution, and a flip forces a
// replan — a stale cache never returns wrong tuples. While concurrent
// serving is on, a private miss first consults the database's shared plan
// cache, whose entries carry the same stamp and pass the same check.
//
// Results stream through a pull-based Cursor (exec/cursor.h); Execute is
// OpenCursor + drain, and the cursor's close accounts the run (session
// totals, metrics, sys$statements) on either path. A PreparedQuery must
// not outlive its Session (or the Database).

#ifndef PASCALR_PASCALR_PREPARED_H_
#define PASCALR_PASCALR_PREPARED_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "concurrency/plan_cache.h"
#include "exec/cursor.h"
#include "opt/params.h"
#include "opt/planner.h"

namespace pascalr {

class Session;

/// Lifecycle counters of one prepared query.
struct PreparedStats {
  uint64_t executes = 0;         ///< Execute + OpenCursor calls
  uint64_t plan_cache_hits = 0;  ///< executions that reused the cached plan
  uint64_t plan_compiles = 0;    ///< plan (re)builds, including the first
  uint64_t rebinds = 0;          ///< template rebinds (relation re-created)
  /// Hits whose stamp had to be revalidated (a referenced relation was
  /// written since the plan or its last revalidation).
  uint64_t revalidations = 0;
};

/// One Execute's materialised result (the cursor drained).
struct PreparedExecution {
  std::vector<Tuple> tuples;
  ExecStats stats;
  CollectionResult collection;
  bool plan_cache_hit = false;
  /// The db_version this execution read at (0 while concurrent serving is
  /// off). The concurrency stress test keys its serial-oracle replay on
  /// this: the result must be bit-identical to replaying the committed
  /// write log up to exactly this version.
  uint64_t snapshot_version = 0;
};

class PreparedQuery {
 public:
  PreparedQuery() = default;  ///< empty shell; Session::Prepare makes real ones

  /// Runs the query with the given parameter values, materialising the
  /// whole result: OpenCursor, drain, ReleaseCollection, Close — so it is
  /// accounted exactly like a drained cursor.
  Result<PreparedExecution> Execute(const ParamBindings& params = {});

  /// Runs collection + combination and returns a streaming cursor over
  /// the result; construction work (dereference + projection + dedup)
  /// happens per Next() call, so a partially drained cursor never pays
  /// for tuples nobody asked for. Closing (or dropping) the cursor
  /// accounts the run once: session totals (with the plan's replans on a
  /// miss), session metrics and the sys$statements fold. The cursor keeps
  /// the executed plan alive even if a later Execute replans.
  Result<Cursor> OpenCursor(const ParamBindings& params = {});

  /// EXPLAIN text of the currently cached plan (plans with the given
  /// params first when no plan is cached yet).
  Result<std::string> Explain(const ParamBindings& params = {});

  /// Drops the cached plan; the next Execute replans from the template.
  void InvalidatePlan();

  const Schema& output_schema() const;
  /// Declared parameters in name order.
  std::vector<std::string> param_names() const;
  const std::map<std::string, Type>& param_types() const;
  const PreparedStats& stats() const;
  /// The cached plan's trail (estimate, adaptation notes, chosen level);
  /// nullptr before the first Execute.
  const PlannedQuery* planned() const;

 private:
  friend class Session;

  struct State {
    /// Pre-bind selection — the rebind source when a referenced relation
    /// is dropped and re-created (no re-parse needed, Prepare parsed it).
    SelectionExpr raw_selection;
    /// Normalized source text (FormatSelection of raw_selection), cached
    /// at Prepare: the shared-plan-cache key base.
    std::string source;
    /// Parsed + bound once, parameters marked and typed.
    BoundQuery template_query;
    std::map<std::string, Type> param_types;
    /// Referenced relations at bind time: (name, id). An id mismatch means
    /// drop + re-create — the template's schema resolutions are void.
    std::vector<std::pair<std::string, RelationId>> bound_relations;

    /// Every range of the template, flagged when parameter-carrying, in
    /// CollectTemplateRanges order (collected at bind and rebind); the
    /// stamp's template_range_empty is indexed like it.
    std::vector<TemplateRange> template_ranges;

    // ---- plan cache (null until the first execution) -----------------
    std::shared_ptr<PlannedQuery> planned;
    PlanStamp stamp;         ///< what `planned`'s validity rests on
    PlannerOptions options;  ///< the session options it was compiled under
    ParamBindings last_bindings;  ///< values currently patched into the plan

    PreparedStats stats;

    Status Rebind(const Database* db);
    /// Derives param_types, bound_relations and template_ranges from a
    /// freshly bound template_query.
    void RecordTemplate();
  };

  /// Validates bindings, revalidates template + plan cache, replans if
  /// needed, and leaves state_->planned holding an executable plan whose
  /// parameter slots carry `params`. Sets *cache_hit.
  Status EnsurePlan(const ParamBindings& params, bool* cache_hit);

  /// Counts a hit that revalidated its stamp (PreparedStats and the
  /// session's plan_cache.revalidations).
  void CountRevalidation();

  /// OpenCursor that also reports whether the cached plan was reused.
  Result<Cursor> OpenCursor(const ParamBindings& params, bool* cache_hit);

  /// Moves the planning trail out (Session::Query assembling a QueryRun
  /// from a throwaway prepared query).
  PlannedQuery TakePlanned();

  Session* session_ = nullptr;
  std::shared_ptr<State> state_;
};

}  // namespace pascalr

#endif  // PASCALR_PASCALR_PREPARED_H_
