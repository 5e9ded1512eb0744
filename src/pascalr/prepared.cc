#include "pascalr/prepared.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/str_util.h"
#include "concurrency/plan_cache.h"
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

/// One line for the slow-query log: what kind of plan ran this.
std::string PlanSummary(const QueryPlan& plan, bool cache_hit) {
  return StrFormat("level=%s cache=%s",
                   std::string(OptLevelToString(plan.level)).c_str(),
                   cache_hit ? "hit" : "miss");
}

}  // namespace

void PreparedQuery::State::RecordBoundRelations() {
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
}

Status PreparedQuery::State::Rebind(const Database* db) {
  Binder binder(db);
  PASCALR_ASSIGN_OR_RETURN(BoundQuery rebound,
                           binder.Bind(raw_selection.Clone()));
  template_query = std::move(rebound);
  param_types = template_query.params;
  RecordBoundRelations();
  planned.reset();
  last_bindings.clear();
  template_probes.clear();
  plan_probes.clear();
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

  // 2. Plan-cache validity: same catalog-stats epoch, same relation
  // mod_counts, same planner options.
  bool valid = st.planned != nullptr &&
               db.stats_epoch() == st.stamp_epoch &&
               session_->options_ == st.stamp_options;
  if (valid) {
    for (const auto& [name, mod] : st.stamp_mods) {
      Relation* rel = db.FindRelation(name);
      if (rel == nullptr || rel->mod_count() != mod) {
        valid = false;
        break;
      }
    }
  }
  if (valid) {
    // Re-patch the parameter slots of the cached plan in place — this is
    // the whole fast path: no parse, no normalization, no plan search.
    if (bound != st.last_bindings) {
      PatchPlanParams(&st.planned->plan, bound);
      st.last_bindings = bound;
    }
    // Safety: adaptation decisions (Lemma 1 folding, rule-2 extension
    // abandonment) were taken under the plan-time values. If a parameter
    // inside an extended range now flips that range's emptiness, the
    // cached plan could return wrong tuples — replan instead.
    for (const auto& [range, was_empty] : st.template_probes) {
      RangeExpr probe = range.Clone();
      if (probe.IsExtended()) {
        PASCALR_RETURN_IF_ERROR(
            BindFormulaParams(probe.restriction.get(), bound));
      }
      if (RangeIsEmpty(db, probe) != was_empty) {
        valid = false;
        break;
      }
    }
    if (valid) {
      for (const auto& [idx, was_empty] : st.plan_probes) {
        if (idx >= st.planned->plan.sf.prefix.size() ||
            RangeIsEmpty(db, st.planned->plan.sf.prefix[idx].range) !=
                was_empty) {
          valid = false;
          break;
        }
      }
    }
  }
  if (valid) {
    *cache_hit = true;
    ++st.stats.plan_cache_hits;
    session_->metrics_.counter("plan_cache.hits").Inc();
    return Status::OK();
  }

  // 2b. Shared plan cache (concurrent serving only): another session may
  // already have compiled this exact selection under these options. The
  // cache stores, the adopter judges: every stamp and probe verdict is
  // re-validated here under OUR snapshot and OUR bindings, and the plan
  // is cloned before parameter patching (sessions never share a mutable
  // plan object).
  const bool shared_cache_on = db.serving();
  std::string shared_key;
  if (shared_cache_on) {
    shared_key = st.source + "|" + EncodePlannerOptions(session_->options_);
    SharedPlanEntry entry;
    bool adoptable = db.shared_plans().Lookup(shared_key, &entry) &&
                     entry.planned != nullptr &&
                     entry.stats_epoch == db.stats_epoch();
    if (adoptable) {
      for (const auto& [name, mod] : entry.rel_mods) {
        Relation* rel = db.FindRelation(name);
        if (rel == nullptr || rel->mod_count() != mod) {
          adoptable = false;
          break;
        }
      }
    }
    std::vector<std::pair<RangeExpr, bool>> fresh_probes;
    if (adoptable) {
      // Lemma-1 safety under our values: every parameter-carrying template
      // range must be empty-vs-nonempty exactly as it was at plan time.
      std::vector<RangeExpr> param_ranges;
      CollectParamRanges(st.template_query.selection, &param_ranges);
      adoptable = param_ranges.size() == entry.template_range_empty.size();
      for (size_t i = 0; adoptable && i < param_ranges.size(); ++i) {
        RangeExpr probe = param_ranges[i].Clone();
        PASCALR_RETURN_IF_ERROR(
            BindFormulaParams(probe.restriction.get(), bound));
        const bool is_empty = RangeIsEmpty(db, probe);
        if (is_empty != entry.template_range_empty[i]) {
          adoptable = false;
        } else {
          fresh_probes.emplace_back(std::move(param_ranges[i]), is_empty);
        }
      }
    }
    if (adoptable) {
      auto adopted =
          std::make_shared<PlannedQuery>(ClonePlannedQuery(*entry.planned));
      PatchPlanParams(&adopted->plan, bound);
      // Rule-2 safety: strategy-3 extended prefix ranges must keep their
      // plan-time emptiness verdict under our bindings.
      for (const auto& [idx, was_empty] : entry.plan_probes) {
        if (idx >= adopted->plan.sf.prefix.size() ||
            RangeIsEmpty(db, adopted->plan.sf.prefix[idx].range) !=
                was_empty) {
          adoptable = false;
          break;
        }
      }
      if (adoptable) {
        st.planned = std::move(adopted);
        st.last_bindings = std::move(bound);
        st.stamp_epoch = entry.stats_epoch;
        st.stamp_options = session_->options_;
        st.stamp_mods = std::move(entry.rel_mods);
        st.template_probes = std::move(fresh_probes);
        st.plan_probes = std::move(entry.plan_probes);
        db.shared_plans().RecordHit();
        *cache_hit = true;
        ++st.stats.plan_cache_hits;
        session_->metrics_.counter("plan_cache.shared_hits").Inc();
        return Status::OK();
      }
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
  st.planned = std::make_shared<PlannedQuery>(std::move(planned));
  ++st.stats.plan_compiles;
  st.last_bindings = std::move(bound);

  st.stamp_epoch = db.stats_epoch();
  st.stamp_options = session_->options_;
  st.stamp_mods.clear();
  for (const auto& [name, id] : st.bound_relations) {
    (void)id;
    Relation* rel = db.FindRelation(name);
    st.stamp_mods.emplace_back(name, rel == nullptr ? 0 : rel->mod_count());
  }

  st.template_probes.clear();
  std::vector<RangeExpr> param_ranges;
  CollectParamRanges(st.template_query.selection, &param_ranges);
  for (RangeExpr& range : param_ranges) {
    RangeExpr probe = range.Clone();
    PASCALR_RETURN_IF_ERROR(
        BindFormulaParams(probe.restriction.get(), st.last_bindings));
    st.template_probes.emplace_back(std::move(range), RangeIsEmpty(db, probe));
  }
  st.plan_probes.clear();
  const std::vector<QuantifiedVar>& prefix = st.planned->plan.sf.prefix;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (RangeHasParams(prefix[i].range)) {
      st.plan_probes.emplace_back(i, RangeIsEmpty(db, prefix[i].range));
    }
  }

  // Publish the fresh plan to the shared cache as an independent clone —
  // our own copy keeps being parameter-patched in place, the shared one
  // must stay frozen for other sessions to clone from.
  if (shared_cache_on) {
    SharedPlanEntry entry;
    entry.planned =
        std::make_shared<const PlannedQuery>(ClonePlannedQuery(*st.planned));
    entry.stats_epoch = st.stamp_epoch;
    entry.rel_mods = st.stamp_mods;
    entry.template_range_empty.reserve(st.template_probes.size());
    for (const auto& [range, was_empty] : st.template_probes) {
      (void)range;
      entry.template_range_empty.push_back(was_empty);
    }
    entry.plan_probes = st.plan_probes;
    db.shared_plans().Insert(shared_key, std::move(entry));
  }
  return Status::OK();
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
  const auto t0 = std::chrono::steady_clock::now();
  bool cache_hit = false;
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  ++state_->stats.executes;
  std::shared_ptr<const QueryPlan> plan(state_->planned,
                                        &state_->planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor, Cursor::Open(std::move(plan), *session_->db_, nullptr));
  PreparedExecution out;
  out.plan_cache_hit = cache_hit;
  const Snapshot* snap = CurrentSnapshot();
  out.snapshot_version = snap == nullptr ? 0 : snap->db_version;
  Tuple tuple;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, cursor.Next(&tuple));
    if (!more) break;
    out.tuples.push_back(std::move(tuple));
  }
  out.stats = cursor.stats();
  if (!cache_hit) out.stats.replans = state_->planned->replans;
  out.collection = cursor.ReleaseCollection();
  cursor.Close();
  session_->total_stats_.Merge(out.stats);
  // Metrics feed: every executed query records its latency; the
  // collection's built-element count rides along so METRICS shows it
  // without a trace.
  MetricsRegistry& metrics = session_->metrics_;
  metrics.counter("query.count").Inc();
  const uint64_t latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  metrics.histogram("query.latency_us").Record(latency_us);
  // Server-wide fold: this run's whole story — latency, rows, counters,
  // cache verdict — becomes one observation on the statement's
  // sys$statements row (and the slow log, when armed).
  session_->FoldStatementStats(state_->source, latency_us,
                               out.tuples.size(), out.stats, cache_hit,
                               /*max_qerror=*/0.0,
                               PlanSummary(state_->planned->plan, cache_hit));
  if (out.stats.replans > 0) {
    metrics.counter("query.replans").Inc(out.stats.replans);
  }
  if (out.stats.structure_elements_built > 0) {
    metrics.counter("collection.elements_built")
        .Inc(out.stats.structure_elements_built);
  }
  return out;
}

Result<Cursor> PreparedQuery::OpenCursor(const ParamBindings& params) {
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
  bool cache_hit = false;
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  ++state_->stats.executes;
  session_->metrics_.counter("query.count").Inc();
  std::shared_ptr<const QueryPlan> plan(state_->planned,
                                        &state_->planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor,
      Cursor::Open(std::move(plan), *session_->db_,
                   &session_->total_stats_));
  // The fold happens when the cursor closes — also for a half-drained
  // cursor the client abandons — so open-cursor latency covers plan +
  // drain, and rows are whatever was actually emitted. The hook must not
  // outlive the session (the cursor already must not, see class docs).
  Session* session = session_;
  std::shared_ptr<State> state = state_;
  std::string summary = PlanSummary(state_->planned->plan, cache_hit);
  cursor.set_close_hook(
      [session, state = std::move(state), t0, cache_hit,
       summary = std::move(summary)](const ExecStats& stats, uint64_t rows) {
        const uint64_t latency_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        session->FoldStatementStats(state->source, latency_us, rows, stats,
                                    cache_hit, /*max_qerror=*/0.0, summary);
      });
  return cursor;
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
  state_->last_bindings.clear();
  state_->template_probes.clear();
  state_->plan_probes.clear();
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
