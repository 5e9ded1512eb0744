#include "pascalr/prepared.h"

#include <chrono>
#include <utility>

#include "concurrency/snapshot.h"
#include "obs/span_names.h"
#include "obs/system_relations.h"
#include "obs/trace.h"
#include "opt/explain.h"
#include "pascalr/session.h"
#include "semantics/binder.h"

namespace pascalr {

namespace {

const Schema kEmptySchema;

/// Whether `range` denotes no element once `bound` is substituted into its
/// parameter slots (the range itself is left untouched).
Result<bool> ProbeEmpty(const Database& db, const RangeExpr& range,
                        bool has_params, const ParamBindings& bound) {
  if (!has_params) return RangeIsEmpty(db, range);
  RangeExpr probe = range.Clone();
  PASCALR_RETURN_IF_ERROR(BindFormulaParams(probe.restriction.get(), bound));
  return RangeIsEmpty(db, probe);
}

/// The stamp of `plan`, compiled just now from a template whose ranges are
/// `ranges`, under `bound`.
Result<PlanStamp> TakeStamp(
    const Database& db, const QueryPlan& plan,
    const std::vector<std::pair<std::string, RelationId>>& relations,
    const std::vector<TemplateRange>& ranges, const ParamBindings& bound) {
  PlanStamp stamp;
  stamp.stats_epoch = db.stats_epoch();
  for (const auto& [name, id] : relations) {
    (void)id;
    const Relation* rel = db.FindRelation(name);
    stamp.rel_mods.push_back({name, rel == nullptr ? 0 : rel->mod_count(),
                              rel == nullptr ? 0 : rel->cardinality()});
  }
  for (const TemplateRange& t : ranges) {
    PASCALR_ASSIGN_OR_RETURN(bool empty,
                             ProbeEmpty(db, t.range, t.has_params, bound));
    stamp.template_range_empty.push_back(empty);
  }
  for (const QuantifiedVar& qv : plan.sf.prefix) {
    PASCALR_ASSIGN_OR_RETURN(
        bool empty, ProbeEmpty(db, qv.range, RangeHasParams(qv.range), bound));
    stamp.prefix_range_empty.push_back(empty);
  }
  return stamp;
}

/// `now` is within PlanStamp::kCardinalityBand of the plan-time `was`.
bool WithinBand(size_t was, size_t now) {
  return now <= was * PlanStamp::kCardinalityBand &&
         was <= now * PlanStamp::kCardinalityBand;
}

enum class StampVerdict {
  kStale,        ///< replan
  kHolds,        ///< no mod count moved and every re-probe agrees
  kRevalidated,  ///< mod counts moved but nothing the plan rests on did
};

/// The one validity check of a cached plan, private or shared: does
/// `stamp` (taken when `plan` was compiled from a template with `ranges`)
/// still hold under the current snapshot and `bound`? The stats epoch must
/// match. Every parameter-carrying range is re-probed, as the bindings may
/// have changed. When a relation's mod count moved, its live cardinality
/// must be within the band of the plan-time one, and every literal range
/// over it is re-probed too. A flipped emptiness verdict means the
/// plan's Lemma-1 folding or rule-2 abandonment was decided under a state
/// that no longer holds, and the plan would return wrong tuples.
Result<StampVerdict> StampHolds(const Database& db, const PlanStamp& stamp,
                                const QueryPlan& plan,
                                const std::vector<TemplateRange>& ranges,
                                const ParamBindings& bound) {
  if (stamp.stats_epoch != db.stats_epoch() ||
      stamp.template_range_empty.size() != ranges.size() ||
      stamp.prefix_range_empty.size() != plan.sf.prefix.size()) {
    return StampVerdict::kStale;
  }
  std::vector<const std::string*> moved;
  for (const PlanStamp::RelationMark& mark : stamp.rel_mods) {
    const Relation* rel = db.FindRelation(mark.name);
    if (rel == nullptr) return StampVerdict::kStale;
    if (rel->mod_count() == mark.mod_count) continue;
    if (!WithinBand(mark.cardinality, rel->cardinality())) {
      return StampVerdict::kStale;
    }
    moved.push_back(&mark.name);
  }
  auto must_probe = [&](const RangeExpr& range, bool has_params) {
    if (has_params) return true;
    for (const std::string* name : moved) {
      if (*name == range.relation) return true;
    }
    return false;
  };
  for (size_t i = 0; i < ranges.size(); ++i) {
    const TemplateRange& t = ranges[i];
    if (!must_probe(t.range, t.has_params)) continue;
    PASCALR_ASSIGN_OR_RETURN(bool empty,
                             ProbeEmpty(db, t.range, t.has_params, bound));
    if (empty != stamp.template_range_empty[i]) return StampVerdict::kStale;
  }
  for (size_t i = 0; i < plan.sf.prefix.size(); ++i) {
    const RangeExpr& range = plan.sf.prefix[i].range;
    const bool has_params = RangeHasParams(range);
    if (!must_probe(range, has_params)) continue;
    PASCALR_ASSIGN_OR_RETURN(bool empty,
                             ProbeEmpty(db, range, has_params, bound));
    if (empty != stamp.prefix_range_empty[i]) return StampVerdict::kStale;
  }
  return moved.empty() ? StampVerdict::kHolds : StampVerdict::kRevalidated;
}

/// After a revalidation: `stamp`'s mod counts catch up with the current
/// snapshot, so the next check takes the fast path. The plan-time
/// cardinalities stay.
void RefreshMods(const Database& db, PlanStamp* stamp) {
  for (PlanStamp::RelationMark& mark : stamp->rel_mods) {
    mark.mod_count = db.FindRelation(mark.name)->mod_count();
  }
}

}  // namespace

void PreparedQuery::State::RecordTemplate() {
  param_types = template_query.params;
  bound_relations.clear();
  for (const auto& [var, binding] : template_query.vars) {
    (void)var;
    bool seen = false;
    for (const auto& [name, id] : bound_relations) {
      (void)id;
      if (name == binding.relation_name) {
        seen = true;
        break;
      }
    }
    if (!seen && binding.relation != nullptr) {
      bound_relations.emplace_back(binding.relation_name,
                                   binding.relation->id());
    }
  }
  template_ranges.clear();
  CollectTemplateRanges(template_query.selection, &template_ranges);
}

Status PreparedQuery::State::Rebind(const Database* db) {
  Binder binder(db);
  PASCALR_ASSIGN_OR_RETURN(BoundQuery rebound,
                           binder.Bind(raw_selection.Clone()));
  template_query = std::move(rebound);
  RecordTemplate();
  planned.reset();
  ++stats.rebinds;
  return Status::OK();
}

Status PreparedQuery::EnsurePlan(const ParamBindings& params,
                                 bool* cache_hit) {
  *cache_hit = false;
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  State& st = *state_;
  Database& db = *session_->db_;
  PASCALR_ASSIGN_OR_RETURN(ParamBindings bound,
                           CheckParamBindings(st.param_types, params));

  // 1. Template validity: every referenced relation must still be the
  // object the binder resolved. A re-created relation gets a fresh id;
  // rebind against it (one bind, no re-parse). A missing one is an error.
  bool template_ok = true;
  for (const auto& [name, id] : st.bound_relations) {
    Relation* rel = db.FindRelation(name);
    if (rel == nullptr) {
      return Status::NotFound("prepared query references dropped relation '" +
                              name + "'");
    }
    if (rel->id() != id) {
      template_ok = false;
      break;
    }
  }
  if (!template_ok) PASCALR_RETURN_IF_ERROR(st.Rebind(&db));

  // 2. The private plan: compiled under the same planner options, and its
  // stamp still holds. Then the whole fast path is re-patching the
  // parameter slots in place — no parse, no normalization, no plan search.
  StampVerdict verdict = StampVerdict::kStale;
  if (st.planned != nullptr && st.options == session_->options_) {
    PASCALR_ASSIGN_OR_RETURN(
        verdict, StampHolds(db, st.stamp, st.planned->plan,
                            st.template_ranges, bound));
  }
  if (verdict != StampVerdict::kStale) {
    if (verdict == StampVerdict::kRevalidated) {
      RefreshMods(db, &st.stamp);
      CountRevalidation();
    }
    if (bound != st.last_bindings) {
      PatchPlanParams(&st.planned->plan, bound);
      st.last_bindings = std::move(bound);
    }
    *cache_hit = true;
    ++st.stats.plan_cache_hits;
    session_->metrics_.counter("plan_cache.hits").Inc();
    return Status::OK();
  }

  // 2b. Shared plan cache (concurrent serving only): another session may
  // already have compiled this exact selection under these options. The
  // cache stores, the adopter judges: the entry's stamp passes the same
  // check under OUR snapshot and OUR bindings, and the plan is cloned
  // before parameter patching (sessions never share a mutable plan).
  const bool shared_cache_on = db.serving();
  std::string shared_key;
  if (shared_cache_on) {
    shared_key = st.source + "|" + EncodePlannerOptions(session_->options_);
    std::shared_ptr<const SharedPlanEntry> entry =
        db.shared_plans().Lookup(shared_key);
    if (entry != nullptr) {
      PASCALR_ASSIGN_OR_RETURN(
          verdict, StampHolds(db, entry->stamp, entry->planned->plan,
                              st.template_ranges, bound));
    }
    if (verdict != StampVerdict::kStale) {
      st.planned =
          std::make_shared<PlannedQuery>(ClonePlannedQuery(*entry->planned));
      PatchPlanParams(&st.planned->plan, bound);
      st.stamp = entry->stamp;
      st.options = session_->options_;
      st.last_bindings = std::move(bound);
      if (verdict == StampVerdict::kRevalidated) {
        // The entry stays immutable: publish a copy with the refreshed
        // stamp (the plan itself is shared, it is never patched), unless
        // the key has moved on to another entry meanwhile.
        RefreshMods(db, &st.stamp);
        auto refreshed = std::make_shared<SharedPlanEntry>();
        refreshed->planned = entry->planned;
        refreshed->stamp = st.stamp;
        db.shared_plans().ReplaceIf(shared_key, entry, std::move(refreshed));
        CountRevalidation();
      }
      db.shared_plans().RecordHit();
      *cache_hit = true;
      ++st.stats.plan_cache_hits;
      session_->metrics_.counter("plan_cache.shared_hits").Inc();
      return Status::OK();
    }
    db.shared_plans().RecordMiss();
  }
  session_->metrics_.counter("plan_cache.misses").Inc();

  // 3. (Re)plan under the current values: substitute them into a clone of
  // the template and run the full pipeline — under OptLevel::kAuto the
  // plan search estimates selectivity from these very values.
  BoundQuery query = CloneBoundQuery(st.template_query);
  PASCALR_RETURN_IF_ERROR(BindSelectionParams(&query.selection, bound));
  PASCALR_ASSIGN_OR_RETURN(
      PlannedQuery planned,
      PlanQuery(db, std::move(query), session_->options_));
  PASCALR_ASSIGN_OR_RETURN(
      st.stamp, TakeStamp(db, planned.plan, st.bound_relations,
                          st.template_ranges, bound));
  st.planned = std::make_shared<PlannedQuery>(std::move(planned));
  st.options = session_->options_;
  st.last_bindings = std::move(bound);
  ++st.stats.plan_compiles;

  // Publish an independent clone with the same stamp — our own copy keeps
  // being parameter-patched in place, the shared one stays frozen for
  // other sessions to clone from.
  if (shared_cache_on) {
    auto entry = std::make_shared<SharedPlanEntry>();
    entry->planned =
        std::make_shared<const PlannedQuery>(ClonePlannedQuery(*st.planned));
    entry->stamp = st.stamp;
    db.shared_plans().Insert(shared_key, std::move(entry));
  }
  return Status::OK();
}

void PreparedQuery::CountRevalidation() {
  ++state_->stats.revalidations;
  session_->metrics_.counter("plan_cache.revalidations").Inc();
}

Result<PreparedExecution> PreparedQuery::Execute(const ParamBindings& params) {
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  // Direct C++ entry point: install the session tracer (a no-op re-install
  // under the statement path) and open an "execute" trace — nested as a
  // span when Session::Query already opened the query's trace.
  PASCALR_RETURN_IF_ERROR(
      RefreshSystemViewsForSource(session_->db_, state_->source));
  ScopedSystemViewPin pin;
  ScopedTracerInstall install_tracer(session_->active_tracer());
  // One consistent read point for plan validation AND execution (reuses
  // the caller's when one is already installed; null while serving is
  // off). Captured before any catalog or relation read below.
  ScopedSnapshotInstall install_snapshot(session_->db_->SnapshotForRead());
  QueryTraceGuard query_guard(spans::kExecute, "");
  PreparedExecution out;
  PASCALR_ASSIGN_OR_RETURN(Cursor cursor,
                           OpenCursor(params, &out.plan_cache_hit));
  const Snapshot* snap = CurrentSnapshot();
  out.snapshot_version = snap == nullptr ? 0 : snap->db_version;
  PASCALR_RETURN_IF_ERROR(cursor.DrainInto(&out.tuples));
  out.stats = cursor.stats();
  if (!out.plan_cache_hit) out.stats.replans = state_->planned->replans;
  out.collection = cursor.ReleaseCollection();
  cursor.Close();
  return out;
}

Result<Cursor> PreparedQuery::OpenCursor(const ParamBindings& params) {
  bool cache_hit = false;
  return OpenCursor(params, &cache_hit);
}

Result<Cursor> PreparedQuery::OpenCursor(const ParamBindings& params,
                                         bool* cache_hit) {
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  PASCALR_RETURN_IF_ERROR(
      RefreshSystemViewsForSource(session_->db_, state_->source));
  ScopedSystemViewPin pin;
  ScopedTracerInstall install_tracer(session_->active_tracer());
  const auto t0 = std::chrono::steady_clock::now();
  // The cursor captures the ambient snapshot at Open and re-installs it
  // for every Next/Close, so a half-drained cursor keeps its read point
  // after this guard unwinds.
  ScopedSnapshotInstall install_snapshot(session_->db_->SnapshotForRead());
  // No QueryTraceGuard here: the cursor outlives this call, so its drain
  // is recorded as one complete span at Cursor::Close instead.
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, cache_hit));
  ++state_->stats.executes;
  return session_->OpenAccountedCursor(state_->planned, state_->source,
                                       *cache_hit, t0);
}

Result<std::string> PreparedQuery::Explain(const ParamBindings& params) {
  if (session_ == nullptr || state_ == nullptr) {
    return Status::InvalidArgument("prepared query is empty");
  }
  ScopedSnapshotInstall install_snapshot(session_->db_->SnapshotForRead());
  // With a plan already cached, explain it as-is — no bindings needed
  // (and none validated); otherwise plan with the given params first.
  if (state_->planned == nullptr) {
    bool cache_hit = false;
    PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  }
  return ExplainPlan(*state_->planned);
}

void PreparedQuery::InvalidatePlan() {
  if (state_ == nullptr) return;
  state_->planned.reset();
}

const Schema& PreparedQuery::output_schema() const {
  return state_ == nullptr ? kEmptySchema : state_->template_query.output_schema;
}

std::vector<std::string> PreparedQuery::param_names() const {
  std::vector<std::string> out;
  if (state_ != nullptr) {
    for (const auto& [name, type] : state_->param_types) {
      (void)type;
      out.push_back(name);
    }
  }
  return out;
}

const std::map<std::string, Type>& PreparedQuery::param_types() const {
  static const std::map<std::string, Type> kEmpty;
  return state_ == nullptr ? kEmpty : state_->param_types;
}

const PreparedStats& PreparedQuery::stats() const {
  static const PreparedStats kEmpty;
  return state_ == nullptr ? kEmpty : state_->stats;
}

const PlannedQuery* PreparedQuery::planned() const {
  return state_ == nullptr ? nullptr : state_->planned.get();
}

PlannedQuery PreparedQuery::TakePlanned() {
  if (state_ == nullptr || state_->planned == nullptr) return PlannedQuery();
  PlannedQuery out = std::move(*state_->planned);
  state_->planned.reset();
  return out;
}

}  // namespace pascalr
