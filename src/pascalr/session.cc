#include "pascalr/session.h"

#include <chrono>

#include "base/str_util.h"
#include "calculus/printer.h"
#include "obs/profile.h"
#include "obs/span_names.h"
#include "obs/system_relations.h"
#include "opt/explain.h"
#include "semantics/binder.h"

namespace pascalr {

void Session::Emit(const std::string& text) {
  if (out_ != nullptr) *out_ << text;
}

Status Session::ExecuteScript(std::string_view source) {
  Parser parser(source);
  PASCALR_ASSIGN_OR_RETURN(Script script, parser.ParseScript());
  for (const Statement& stmt : script.statements) {
    PASCALR_RETURN_IF_ERROR(ExecuteStatement(stmt));
  }
  return Status::OK();
}

Result<Type> Session::ResolveType(const RawType& raw,
                                  const std::string& owner) {
  switch (raw.kind) {
    case RawType::Kind::kInt:
      return Type::Int();
    case RawType::Kind::kIntRange:
      return Type::IntRange(raw.lo, raw.hi);
    case RawType::Kind::kString:
      return Type::String(raw.max_len);
    case RawType::Kind::kBool:
      return Type::Bool();
    case RawType::Kind::kInlineEnum: {
      std::string name =
          StrFormat("%s_enum_%d", owner.c_str(), anon_enum_counter_++);
      auto info = MakeEnum(name, raw.labels);
      PASCALR_RETURN_IF_ERROR(db_->RegisterEnum(info));
      return Type::Enum(std::move(info));
    }
    case RawType::Kind::kNamed: {
      auto info = db_->FindEnum(raw.name);
      if (info == nullptr) {
        return Status::NotFound("no type named '" + raw.name + "'");
      }
      return Type::Enum(std::move(info));
    }
  }
  return Status::Internal("unknown raw type kind");
}

Result<Value> Session::ResolveLiteral(const RawLiteral& raw,
                                      const Type& type) {
  switch (raw.kind) {
    case RawLiteral::Kind::kInt:
      if (type.kind() != TypeKind::kInt) {
        return Status::TypeMismatch("integer literal for " + type.ToString());
      }
      return Value::MakeInt(raw.int_value);
    case RawLiteral::Kind::kString:
      if (type.kind() != TypeKind::kString) {
        return Status::TypeMismatch("string literal for " + type.ToString());
      }
      return Value::MakeString(raw.text);
    case RawLiteral::Kind::kBool:
      if (type.kind() != TypeKind::kBool) {
        return Status::TypeMismatch("boolean literal for " + type.ToString());
      }
      return Value::MakeBool(raw.bool_value);
    case RawLiteral::Kind::kIdent: {
      if (type.kind() != TypeKind::kEnum) {
        return Status::TypeMismatch("label '" + raw.text + "' for " +
                                    type.ToString());
      }
      int ordinal = type.enum_info()->OrdinalOf(raw.text);
      if (ordinal < 0) {
        return Status::NotFound("'" + raw.text + "' is not a label of " +
                                type.enum_info()->name);
      }
      return Value::MakeEnum(ordinal);
    }
  }
  return Status::Internal("unknown raw literal kind");
}

Status Session::ApplyOption(const std::string& name,
                            const std::string& value) {
  if (name == "optlevel") {
    if (value == "auto") {
      options_.level = OptLevel::kAuto;
      return Status::OK();
    }
    if (value.size() == 1 && value[0] >= '0' && value[0] <= '4') {
      options_.level = static_cast<OptLevel>(value[0] - '0');
      return Status::OK();
    }
    return Status::InvalidArgument("SET OPTLEVEL expects 0..4 or AUTO, got '" +
                                   value + "'");
  }
  if (name == "permindexes") {
    if (value == "on" || value == "off") {
      options_.use_permanent_indexes = value == "on";
      return Status::OK();
    }
    return Status::InvalidArgument("SET PERMINDEXES expects ON or OFF, got '" +
                                   value + "'");
  }
  if (name == "trace") {
    // Session-level, NOT a PlannerOptions member: flipping tracing must
    // not invalidate cached plans or alter any planning decision.
    if (value == "on" || value == "off") {
      tracing_ = value == "on";
      return Status::OK();
    }
    return Status::InvalidArgument("SET TRACE expects ON or OFF, got '" +
                                   value + "'");
  }
  if (name == "slowlog") {
    // Database-wide, like the log itself: any session may arm or disarm
    // the flight recorder. Not a PlannerOptions member — observability
    // must not perturb plan choice or the plan-cache key.
    if (value == "off") {
      db_->slow_log().set_threshold_us(0);
      return Status::OK();
    }
    if (!value.empty() &&
        value.find_first_not_of("0123456789") == std::string::npos) {
      db_->slow_log().set_threshold_us(
          static_cast<uint64_t>(std::stoull(value)));
      return Status::OK();
    }
    return Status::InvalidArgument(
        "SET SLOWLOG expects a threshold in microseconds or OFF, got '" +
        value + "'");
  }
  if (name == "batch") {
    // Rows per pipeline chunk on the pipelined cursor drain (1: 1-row
    // chunks through the same operators).
    if (!value.empty() &&
        value.find_first_not_of("0123456789") == std::string::npos) {
      uint64_t n = std::stoull(value);
      if (n >= 1 && n <= 65536) {
        options_.batch_size = static_cast<size_t>(n);
        return Status::OK();
      }
    }
    return Status::InvalidArgument(
        "SET BATCH expects a chunk size in rows (1..65536), got '" + value +
        "'");
  }
  return Status::InvalidArgument("unknown option '" + name +
                                 "' (expected OPTLEVEL, PERMINDEXES, "
                                 "BATCH, TRACE, or SLOWLOG)");
}

Status Session::RunAssign(const AssignStmt& stmt) {
  Binder binder(db_);
  PASCALR_ASSIGN_OR_RETURN(BoundQuery bound,
                           binder.Bind(stmt.selection.Clone()));
  Schema output_schema = bound.output_schema;
  const auto t0 = std::chrono::steady_clock::now();
  PASCALR_ASSIGN_OR_RETURN(PlannedQuery planned,
                           PlanQuery(*db_, std::move(bound), options_));
  std::vector<Tuple> tuples;
  {
    PASCALR_ASSIGN_OR_RETURN(
        Cursor cursor,
        OpenAccountedCursor(std::make_shared<PlannedQuery>(std::move(planned)),
                            FormatSelection(stmt.selection),
                            /*plan_cache_hit=*/false, t0));
    PASCALR_RETURN_IF_ERROR(cursor.DrainInto(&tuples));
  }

  // Create or replace the target relation. The cursor above was drained
  // and closed, so a selection over the target itself has read the old
  // contents before they are dropped.
  if (db_->FindRelation(stmt.target) != nullptr) {
    PASCALR_RETURN_IF_ERROR(db_->DropRelation(stmt.target));
  }
  PASCALR_ASSIGN_OR_RETURN(Relation * target,
                           db_->CreateRelation(stmt.target, output_schema));
  for (Tuple& t : tuples) {
    PASCALR_ASSIGN_OR_RETURN(Ref ignored, target->Insert(std::move(t)));
    (void)ignored;
  }
  return Status::OK();
}

Status Session::RunStatsSeed(const StatsStmt& stmt) {
  Relation* rel = db_->FindRelation(stmt.relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + stmt.relation + "'");
  }
  const Schema& schema = rel->schema();
  RelationStats stats;
  stats.relation = stmt.relation;
  stats.cardinality = stmt.cardinality;
  stats.columns.resize(schema.num_components());
  for (size_t i = 0; i < schema.num_components(); ++i) {
    stats.columns[i].name = schema.component(i).name;
  }
  for (const StatsColumnClause& clause : stmt.columns) {
    int pos = -1;
    for (size_t i = 0; i < schema.num_components(); ++i) {
      if (schema.component(i).name == clause.component) {
        pos = static_cast<int>(i);
        break;
      }
    }
    if (pos < 0) {
      return Status::NotFound("no component named '" + clause.component +
                              "' in " + stmt.relation);
    }
    const Type& type = schema.component(static_cast<size_t>(pos)).type;
    ColumnStats& col = stats.columns[static_cast<size_t>(pos)];
    col.distinct = clause.distinct;
    if (clause.has_min_max) {
      PASCALR_ASSIGN_OR_RETURN(col.min, ResolveLiteral(clause.min, type));
      PASCALR_ASSIGN_OR_RETURN(col.max, ResolveLiteral(clause.max, type));
      col.has_min_max = true;
    }
    if (clause.has_histogram) {
      if (clause.buckets.empty() ||
          clause.histogram_lo > clause.histogram_hi) {
        return Status::InvalidArgument("malformed histogram for '" +
                                       clause.component + "'");
      }
      // Keep the ANALYZE invariants: histograms only exist on numeric
      // domains and always come with min/max (whose out-of-range guards
      // Selectivity relies on before indexing a bucket).
      if (type.kind() == TypeKind::kString) {
        return Status::InvalidArgument(
            "HISTOGRAM on string component '" + clause.component + "'");
      }
      if (!clause.has_min_max) {
        return Status::InvalidArgument("HISTOGRAM for '" + clause.component +
                                       "' requires MIN and MAX");
      }
      col.numeric = true;
      col.histogram.lo = clause.histogram_lo;
      col.histogram.hi = clause.histogram_hi;
      col.histogram.buckets = clause.buckets;
      col.histogram.total = 0;
      for (uint64_t b : clause.buckets) col.histogram.total += b;
    }
  }
  return db_->SeedStats(std::move(stats));
}

namespace {

/// Statements that mutate the database (relations, catalog, or
/// statistics) and therefore run under the write-statement guard.
bool IsWriteStatement(const Statement& stmt) {
  return std::holds_alternative<TypeDeclStmt>(stmt) ||
         std::holds_alternative<RelationDeclStmt>(stmt) ||
         std::holds_alternative<AssignStmt>(stmt) ||
         std::holds_alternative<InsertStmt>(stmt) ||
         std::holds_alternative<DeleteStmt>(stmt) ||
         std::holds_alternative<AnalyzeStmt>(stmt) ||
         std::holds_alternative<StatsStmt>(stmt) ||
         std::holds_alternative<IndexStmt>(stmt);
}

}  // namespace

std::string Session::StatementSourceForRefresh(const Statement& stmt) {
  if (const auto* print = std::get_if<PrintStmt>(&stmt)) {
    return print->relation;
  }
  if (const auto* assign = std::get_if<AssignStmt>(&stmt)) {
    return FormatSelection(assign->selection);
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    return FormatSelection(explain->selection);
  }
  if (const auto* prepare = std::get_if<PrepareStmt>(&stmt)) {
    return FormatSelection(prepare->selection);
  }
  if (const auto* execute = std::get_if<ExecuteStmt>(&stmt)) {
    PreparedQuery* prepared = FindPrepared(execute->name);
    if (prepared != nullptr && prepared->state_ != nullptr) {
      return prepared->state_->source;
    }
    return {};
  }
  if (const auto* analyze = std::get_if<AnalyzeStmt>(&stmt)) {
    return analyze->relation;
  }
  return {};
}

Status Session::ExecuteStatement(const Statement& stmt) {
  // System views referenced by this statement materialize NOW, before the
  // write guard / read snapshot below — the refresh is its own write
  // statement, and a snapshot taken after it sees one consistent
  // materialization. The pin keeps nested entry points (RunExecute →
  // PreparedQuery::Execute, EXPLAIN ANALYZE → ExplainAnalyzeSelection)
  // from re-materializing mid-statement.
  PASCALR_RETURN_IF_ERROR(
      RefreshSystemViewsForSource(db_, StatementSourceForRefresh(stmt)));
  ScopedSystemViewPin pin;
  // While tracing is on, the session tracer is thread-current for the
  // whole statement; every deeper span guard attaches to it. While off
  // this installs nullptr and every guard below is a no-op.
  ScopedTracerInstall install_tracer(active_tracer());
  if (IsWriteStatement(stmt)) {
    Status status;
    {
      Database::WriteStatementGuard guard = db_->BeginWriteStatement();
      status = ExecuteStatementImpl(stmt);
      last_commit_version_ = guard.Commit();
    }
    // Outside the guard (the write mutex is not recursive): reclaim dead
    // versions opportunistically once enough have accumulated.
    db_->MaybeCompact();
    if (status.ok()) {
      db_->session_registry().RecordWrite(session_id_);
      db_->server_metrics().counter("server.write.count").Inc();
    }
    return status;
  }
  // Read statements share one consistent read point end to end.
  ScopedSnapshotInstall install_snapshot(db_->SnapshotForRead());
  return ExecuteStatementImpl(stmt);
}

Status Session::ExecuteStatementImpl(const Statement& stmt) {
  if (const auto* type_decl = std::get_if<TypeDeclStmt>(&stmt)) {
    switch (type_decl->type.kind) {
      case RawType::Kind::kInlineEnum: {
        auto info = MakeEnum(type_decl->name, type_decl->type.labels);
        return db_->RegisterEnum(std::move(info));
      }
      default:
        // Non-enum aliases (subranges, strings) are resolved structurally
        // at each use; declaring them is allowed but needs no catalog
        // entry beyond the enum registry in this implementation.
        return Status::Unsupported(
            "only enumeration TYPE declarations are registered; inline the "
            "subrange/string type in the RECORD");
    }
  }
  if (const auto* rel_decl = std::get_if<RelationDeclStmt>(&stmt)) {
    std::vector<Component> components;
    for (const auto& [name, raw] : rel_decl->components) {
      PASCALR_ASSIGN_OR_RETURN(Type type, ResolveType(raw, rel_decl->name));
      components.push_back({name, std::move(type)});
    }
    PASCALR_ASSIGN_OR_RETURN(
        Schema schema,
        Schema::Make(std::move(components), rel_decl->key_components));
    PASCALR_ASSIGN_OR_RETURN(Relation * rel,
                             db_->CreateRelation(rel_decl->name, schema));
    (void)rel;
    return Status::OK();
  }
  if (const auto* assign = std::get_if<AssignStmt>(&stmt)) {
    return RunAssign(*assign);
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    Relation* rel = db_->FindRelation(insert->target);
    if (rel == nullptr) {
      return Status::NotFound("no relation named '" + insert->target + "'");
    }
    if (insert->values.size() != rel->schema().num_components()) {
      return Status::InvalidArgument(StrFormat(
          "insert arity %zu does not match schema arity %zu",
          insert->values.size(), rel->schema().num_components()));
    }
    Tuple tuple;
    for (size_t i = 0; i < insert->values.size(); ++i) {
      PASCALR_ASSIGN_OR_RETURN(
          Value v, ResolveLiteral(insert->values[i],
                                  rel->schema().component(i).type));
      tuple.Append(std::move(v));
    }
    PASCALR_ASSIGN_OR_RETURN(Ref ignored, rel->Insert(std::move(tuple)));
    (void)ignored;
    return Status::OK();
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    Relation* rel = db_->FindRelation(del->target);
    if (rel == nullptr) {
      return Status::NotFound("no relation named '" + del->target + "'");
    }
    const auto& key_positions = rel->schema().key_positions();
    if (del->key.size() != key_positions.size()) {
      return Status::InvalidArgument(StrFormat(
          "delete key arity %zu does not match key arity %zu",
          del->key.size(), key_positions.size()));
    }
    Tuple key;
    for (size_t i = 0; i < del->key.size(); ++i) {
      PASCALR_ASSIGN_OR_RETURN(
          Value v,
          ResolveLiteral(del->key[i],
                         rel->schema().component(key_positions[i]).type));
      key.Append(std::move(v));
    }
    return rel->EraseByKey(key);
  }
  if (const auto* print = std::get_if<PrintStmt>(&stmt)) {
    Relation* rel = db_->FindRelation(print->relation);
    if (rel == nullptr) {
      return Status::NotFound("no relation named '" + print->relation + "'");
    }
    Emit(rel->DebugString(/*max_elements=*/64) + "\n");
    return Status::OK();
  }
  if (const auto* explain = std::get_if<ExplainStmt>(&stmt)) {
    if (explain->analyze) {
      PASCALR_ASSIGN_OR_RETURN(
          std::string report,
          ExplainAnalyzeSelection(explain->selection.Clone()));
      Emit(report);
      return Status::OK();
    }
    Binder binder(db_);
    PASCALR_ASSIGN_OR_RETURN(BoundQuery bound,
                             binder.Bind(explain->selection.Clone()));
    PASCALR_ASSIGN_OR_RETURN(PlannedQuery planned,
                             PlanQuery(*db_, std::move(bound), options_));
    Emit(ExplainPlan(planned));
    if (planned.cost_based) {
      // EXPLAIN under cost-based mode also drains the chosen plan, so the
      // estimated counters can be judged against reality.
      auto shared = std::make_shared<const PlannedQuery>(std::move(planned));
      PASCALR_ASSIGN_OR_RETURN(
          Cursor cursor,
          OpenAccountedCursor(shared, FormatSelection(explain->selection),
                              /*plan_cache_hit=*/false,
                              std::chrono::steady_clock::now()));
      std::vector<Tuple> discarded;
      PASCALR_RETURN_IF_ERROR(cursor.DrainInto(&discarded));
      const ExecStats actual = cursor.stats();
      cursor.Close();
      Emit(ExplainEstimatedVsActual(*shared, actual));
    }
    return Status::OK();
  }
  if (const auto* analyze = std::get_if<AnalyzeStmt>(&stmt)) {
    if (analyze->relation.empty()) {
      PASCALR_RETURN_IF_ERROR(db_->AnalyzeAll());
      Emit(StrFormat("analyzed %zu relations\n",
                     db_->RelationNames().size()));
      return Status::OK();
    }
    PASCALR_ASSIGN_OR_RETURN(const RelationStats* stats,
                             db_->Analyze(analyze->relation));
    Emit(stats->ToString());
    return Status::OK();
  }
  if (const auto* set = std::get_if<SetStmt>(&stmt)) {
    return ApplyOption(set->name, set->value);
  }
  if (const auto* stats = std::get_if<StatsStmt>(&stmt)) {
    return RunStatsSeed(*stats);
  }
  if (const auto* prepare = std::get_if<PrepareStmt>(&stmt)) {
    return RunPrepare(*prepare);
  }
  if (const auto* execute = std::get_if<ExecuteStmt>(&stmt)) {
    return RunExecute(*execute);
  }
  if (std::get_if<MetricsStmt>(&stmt) != nullptr) {
    Emit(metrics_.Dump());
    return Status::OK();
  }
  if (const auto* index = std::get_if<IndexStmt>(&stmt)) {
    PASCALR_ASSIGN_OR_RETURN(
        ComponentIndex * built,
        db_->EnsureIndex(index->relation, index->component, index->ordered));
    (void)built;
    Emit(StrFormat("index %s.%s (%s)\n", index->relation.c_str(),
                   index->component.c_str(),
                   index->ordered ? "ordered" : "hash"));
    return Status::OK();
  }
  return Status::Internal("unknown statement kind");
}

Result<Cursor> Session::OpenAccountedCursor(
    std::shared_ptr<const PlannedQuery> planned, std::string fingerprint,
    bool plan_cache_hit, std::chrono::steady_clock::time_point t0,
    PipelineProfile* profile) {
  // A reused plan's replans were accounted by the run that compiled it.
  const uint64_t replans = plan_cache_hit ? 0 : planned->replans;
  std::string summary = StrFormat(
      "level=%s cache=%s",
      std::string(OptLevelToString(planned->plan.level)).c_str(),
      plan_cache_hit ? "hit" : "miss");
  std::shared_ptr<const QueryPlan> plan(planned, &planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor,
      Cursor::Open(std::move(plan), *db_, profile));
  // The accounting runs when the cursor closes — also for a half-drained
  // cursor the client abandons — so latency covers plan + drain, and rows
  // are whatever was actually emitted.
  cursor.set_close_hook([this, fingerprint = std::move(fingerprint),
                         summary = std::move(summary), plan_cache_hit,
                         replans, t0, profile](const ExecStats& run,
                                               uint64_t rows) {
    ExecStats stats = run;
    stats.replans = replans;
    total_stats_.Merge(stats);
    const uint64_t latency_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    metrics_.counter("query.count").Inc();
    metrics_.histogram("query.latency_us").Record(latency_us);
    if (replans > 0) metrics_.counter("query.replans").Inc(replans);
    if (stats.structure_elements_built > 0) {
      metrics_.counter("collection.elements_built")
          .Inc(stats.structure_elements_built);
    }
    FoldStatementStats(fingerprint, latency_us, rows, stats, plan_cache_hit,
                       profile == nullptr ? 0.0 : MaxQError(*profile),
                       summary);
  });
  return cursor;
}

void Session::FoldStatementStats(const std::string& fingerprint,
                                 uint64_t latency_us, uint64_t rows,
                                 const ExecStats& stats, bool plan_cache_hit,
                                 double max_qerror,
                                 const std::string& plan_summary) {
  StmtObservation obs;
  obs.latency_us = latency_us;
  obs.rows = rows;
  obs.plan_cache_hit = plan_cache_hit;
  obs.max_qerror = max_qerror;
  obs.stats = &stats;
  db_->stmt_stats().Fold(fingerprint, obs);
  db_->session_registry().RecordQuery(session_id_);
  MetricsRegistry& server = db_->server_metrics();
  server.counter("server.query.count").Inc();
  server.histogram("server.query.latency_us").Record(latency_us);
  SlowQueryLog& slow = db_->slow_log();
  if (slow.ShouldRecord(latency_us)) {
    SlowQueryRecord record;
    record.source = fingerprint;
    record.plan_summary = plan_summary;
    record.latency_us = latency_us;
    record.rows = rows;
    record.total_work = stats.TotalWork();
    slow.Record(std::move(record));
  }
}

Result<BoundQuery> Session::Bind(std::string_view selection_source) {
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, selection_source));
  ScopedSystemViewPin pin;
  Parser parser(selection_source);
  PASCALR_ASSIGN_OR_RETURN(SelectionExpr sel, parser.ParseSelectionOnly());
  Binder binder(db_);
  return binder.Bind(std::move(sel));
}

Result<PreparedQuery> Session::Prepare(std::string_view selection_source) {
  // Any referenced system views materialize before PrepareSelection
  // captures the bind snapshot (no-op when an outer entry point pinned).
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, selection_source));
  ScopedSystemViewPin pin;
  // Direct C++ entry point: install the tracer ourselves (the statement
  // path installed it already; re-installing the same tracer is benign).
  // Under an open query trace the guard nests as a "prepare" span;
  // standalone it opens its own trace.
  ScopedTracerInstall install_tracer(active_tracer());
  QueryTraceGuard query_guard(spans::kPrepare, std::string(selection_source));
  Parser parser(selection_source);
  SelectionExpr sel;
  {
    TraceSpanGuard span(spans::kParse);
    PASCALR_ASSIGN_OR_RETURN(sel, parser.ParseSelectionOnly());
  }
  return PrepareSelection(std::move(sel));
}

Result<PreparedQuery> Session::PrepareSelection(SelectionExpr selection) {
  ScopedTracerInstall install_tracer(active_tracer());
  auto state = std::make_shared<PreparedQuery::State>();
  state->raw_selection = selection.Clone();
  state->source = FormatSelection(state->raw_selection);
  // The DSL path enters here directly (no source text upstream): the
  // normalized source is the reference scan. Must precede the snapshot —
  // a refresh after capture would be invisible to this bind.
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, state->source));
  ScopedSystemViewPin pin;
  ScopedSnapshotInstall install_snapshot(db_->SnapshotForRead());
  Binder binder(db_);
  {
    TraceSpanGuard span(spans::kBind);
    PASCALR_ASSIGN_OR_RETURN(state->template_query,
                             binder.Bind(std::move(selection)));
  }
  state->RecordTemplate();
  PreparedQuery prepared;
  prepared.session_ = this;
  prepared.state_ = std::move(state);
  return prepared;
}

Result<QueryRun> Session::Query(std::string_view selection_source) {
  // Thin compatibility wrapper: Prepare + Execute (no parameters) + drain.
  // Execute's cursor accounts the run when it closes.
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, selection_source));
  ScopedSystemViewPin pin;
  ScopedTracerInstall install_tracer(active_tracer());
  // One snapshot covers parse, bind, plan, and execution (Prepare and
  // Execute below reuse it instead of capturing their own).
  ScopedSnapshotInstall install_snapshot(db_->SnapshotForRead());
  QueryTraceGuard query_guard(spans::kQuery, std::string(selection_source),
                              &total_stats_);
  PASCALR_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(selection_source));
  PASCALR_ASSIGN_OR_RETURN(PreparedExecution exec, prepared.Execute());
  QueryRun run;
  run.tuples = std::move(exec.tuples);
  run.stats = exec.stats;
  run.collection = std::move(exec.collection);
  run.planned = prepared.TakePlanned();
  return run;
}

PreparedQuery* Session::FindPrepared(const std::string& name) {
  auto it = named_prepared_.find(name);
  return it == named_prepared_.end() ? nullptr : &it->second;
}

Status Session::RunPrepare(const PrepareStmt& stmt) {
  // ExecuteStatement installed the tracer; this opens the statement's
  // query trace so the bind span below it has a home.
  QueryTraceGuard query_guard(spans::kPrepare, stmt.name);
  PASCALR_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           PrepareSelection(stmt.selection.Clone()));
  std::vector<std::string> params = prepared.param_names();
  named_prepared_[stmt.name] = std::move(prepared);
  std::string note = "prepared " + stmt.name;
  if (!params.empty()) {
    note += " (";
    for (size_t i = 0; i < params.size(); ++i) {
      note += (i > 0 ? ", $" : "$") + params[i];
    }
    note += ")";
  }
  Emit(note + "\n");
  return Status::OK();
}

Status Session::RunExecute(const ExecuteStmt& stmt) {
  PreparedQuery* prepared = FindPrepared(stmt.name);
  if (prepared == nullptr) {
    return Status::NotFound("no prepared query named '" + stmt.name +
                            "' (PREPARE it first)");
  }
  const std::map<std::string, Type>& types = prepared->param_types();
  ParamBindings bindings;
  for (const auto& [name, raw] : stmt.params) {
    auto it = types.find(name);
    if (it == types.end()) {
      return Status::InvalidArgument("prepared query '" + stmt.name +
                                     "' declares no parameter $" + name);
    }
    PASCALR_ASSIGN_OR_RETURN(Value value, ResolveLiteral(raw, it->second));
    if (!bindings.emplace(name, std::move(value)).second) {
      return Status::InvalidArgument("parameter $" + name +
                                     " is bound twice in WITH");
    }
  }
  PASCALR_ASSIGN_OR_RETURN(PreparedExecution exec,
                           prepared->Execute(bindings));
  Emit(StrFormat("%s: %zu tuple(s)%s\n", stmt.name.c_str(),
                 exec.tuples.size(),
                 exec.plan_cache_hit ? " (cached plan)" : ""));
  const Schema& schema = prepared->output_schema();
  for (const Tuple& tuple : exec.tuples) {
    std::string row = "  <";
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) row += ", ";
      row += i < schema.num_components()
                 ? tuple.at(i).ToStringTyped(schema.component(i).type)
                 : tuple.at(i).ToString();
    }
    Emit(row + ">\n");
  }
  return Status::OK();
}

Result<std::string> Session::Explain(std::string_view selection_source) {
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, selection_source));
  ScopedSystemViewPin pin;
  ScopedSnapshotInstall install_snapshot(db_->SnapshotForRead());
  PASCALR_ASSIGN_OR_RETURN(BoundQuery bound, Bind(selection_source));
  PASCALR_ASSIGN_OR_RETURN(PlannedQuery planned,
                           PlanQuery(*db_, std::move(bound), options_));
  return ExplainPlan(planned);
}

Result<std::string> Session::ExplainAnalyze(std::string_view selection_source) {
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, selection_source));
  ScopedSystemViewPin pin;
  ScopedTracerInstall install_tracer(active_tracer());
  QueryTraceGuard query_guard(spans::kExplainAnalyze,
                              std::string(selection_source));
  Parser parser(selection_source);
  SelectionExpr sel;
  {
    TraceSpanGuard span(spans::kParse);
    PASCALR_ASSIGN_OR_RETURN(sel, parser.ParseSelectionOnly());
  }
  return ExplainAnalyzeSelection(std::move(sel));
}

Result<std::string> Session::ExplainAnalyzeSelection(SelectionExpr selection) {
  ScopedTracerInstall install_tracer(active_tracer());
  // The normalized source doubles as the stmt-stats fingerprint: an
  // EXPLAIN ANALYZE run folds into the same sys$statements row as the
  // statement it analyzes, contributing the row's q-error column.
  const std::string fingerprint = FormatSelection(selection);
  PASCALR_RETURN_IF_ERROR(RefreshSystemViewsForSource(db_, fingerprint));
  ScopedSystemViewPin pin;
  ScopedSnapshotInstall install_snapshot(db_->SnapshotForRead());
  QueryTraceGuard query_guard(spans::kExplainAnalyze, "");
  Binder binder(db_);
  BoundQuery bound;
  {
    TraceSpanGuard span(spans::kBind);
    PASCALR_ASSIGN_OR_RETURN(bound, binder.Bind(std::move(selection)));
  }
  PASCALR_ASSIGN_OR_RETURN(PlannedQuery planned,
                           PlanQuery(*db_, std::move(bound), options_));
  auto shared = std::make_shared<const PlannedQuery>(std::move(planned));

  // Execute with profiling on. The result tuples are drained and
  // discarded — EXPLAIN ANALYZE reports about the run, it does not return
  // rows — but the run is a real one, accounted like any other query.
  PipelineProfile profile;
  const auto t0 = std::chrono::steady_clock::now();
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor, OpenAccountedCursor(shared, fingerprint,
                                         /*plan_cache_hit=*/false, t0,
                                         &profile));
  size_t result_tuples = 0;
  Tuple tuple;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, cursor.Next(&tuple));
    if (!more) break;
    ++result_tuples;
  }
  ExecStats stats = cursor.stats();
  stats.replans = shared->replans;
  cursor.Close();
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  std::string report = ExplainPlan(*shared);
  report +=
      ExplainAnalyzeReport(*shared, profile, stats, result_tuples, wall_ns);
  return report;
}

}  // namespace pascalr
