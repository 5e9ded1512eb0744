// Session: executes scripts of the PASCAL/R query language against a
// Database — type and relation declarations, `:+` inserts, `:-` deletes,
// `:=` selection assignments, PRINT, EXPLAIN, ANALYZE, SET, STATS,
// INDEX, and the prepared-query statements PREPARE / EXECUTE.
//
// The C++ query surface is the prepared-statement lifecycle
// (pascalr/prepared.h): Prepare once, Execute (or OpenCursor) many times
// with changing $parameter values; the compiled plan is cached and
// invalidated by catalog changes. Query() remains as a one-shot
// convenience wrapper over Prepare + Execute + drain.

#ifndef PASCALR_PASCALR_SESSION_H_
#define PASCALR_PASCALR_SESSION_H_

#include <map>
#include <ostream>
#include <string>

#include "base/status.h"
#include "catalog/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "pascalr/prepared.h"

namespace pascalr {

class Session {
 public:
  /// `out` receives PRINT/EXPLAIN output; pass nullptr to discard.
  explicit Session(Database* db, std::ostream* out = nullptr)
      : db_(db),
        out_(out),
        session_id_(db == nullptr ? 0 : db->session_registry().Register()) {}
  ~Session() {
    if (db_ != nullptr && session_id_ != 0) {
      db_->session_registry().Unregister(session_id_);
    }
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  PlannerOptions& options() { return options_; }
  Database* db() const { return db_; }

  /// This session's id in the database's SessionRegistry (the sys$sessions
  /// row key); ids start at 1 and are never reused.
  uint64_t session_id() const { return session_id_; }

  /// Parses and executes a whole script.
  Status ExecuteScript(std::string_view source);

  /// Executes one statement. Mutating statements (declarations, :+ / :-,
  /// :=, ANALYZE, STATS, INDEX) run under the database's write-statement
  /// guard — serialised against other writers, published atomically at
  /// commit; everything else runs under a read snapshot (no-ops while
  /// concurrent serving is off).
  Status ExecuteStatement(const Statement& stmt);

  /// The db_version the most recent write statement committed as (0 before
  /// any, and always 0 while concurrent serving is off). The concurrency
  /// stress test logs each writer's statements keyed on this.
  uint64_t last_commit_version() const { return last_commit_version_; }

  /// Parses and binds `selection_source` once, returning a reusable
  /// prepared query. `$name` parameter markers are typed by the binder;
  /// values are supplied per Execute. The handle must not outlive this
  /// session.
  Result<PreparedQuery> Prepare(std::string_view selection_source);

  /// Prepare for an already-built AST (the DSL / generator path).
  Result<PreparedQuery> PrepareSelection(SelectionExpr selection);

  /// One-shot convenience: Prepare + Execute (no parameters) + drain.
  Result<QueryRun> Query(std::string_view selection_source);

  /// Parses and binds a selection without running it.
  Result<BoundQuery> Bind(std::string_view selection_source);

  /// Returns the EXPLAIN text for a selection.
  Result<std::string> Explain(std::string_view selection_source);

  /// EXPLAIN ANALYZE: plans AND executes the selection, returning the
  /// plan rendering plus the operator tree annotated with actual rows,
  /// per-operator self-time, and estimated-vs-actual q-error. The
  /// instrumented run feeds total_stats() and the metrics registry like
  /// any other query; its result tuples are discarded (tests prove they
  /// are identical to an uninstrumented run's).
  Result<std::string> ExplainAnalyze(std::string_view selection_source);
  /// EXPLAIN ANALYZE for an already-parsed selection (the statement path).
  Result<std::string> ExplainAnalyzeSelection(SelectionExpr selection);

  /// The prepared query a `PREPARE name AS ...;` statement registered, or
  /// nullptr. (EXECUTE statements look names up here.)
  PreparedQuery* FindPrepared(const std::string& name);

  /// Cumulative statistics across all queries run by this session.
  const ExecStats& total_stats() const { return total_stats_; }

  /// Session metrics (query latency, plan-cache hits/misses, collection
  /// elements built); dumped by the `METRICS;` statement and the shell's
  /// `.metrics`.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Query tracing (`SET TRACE ON;`). While on, every statement / query
  /// entry point installs the session tracer for its scope and the engine
  /// records a QueryTrace span tree per query; while off (the default)
  /// no tracer is installed anywhere and execution is bit-identical to an
  /// untraced build. Traces accumulate until ClearTraces (the shell's
  /// `.trace <file>` exports and clears).
  void set_tracing(bool on) { tracing_ = on; }
  bool tracing() const { return tracing_; }
  const std::vector<QueryTrace>& traces() const { return tracer_.traces(); }
  void ClearTraces() { tracer_.Clear(); }

 private:
  friend class PreparedQuery;

  /// The tracer to install for the current statement: the session tracer
  /// while tracing is on, nullptr (a no-op install) while off.
  Tracer* active_tracer() { return tracing_ ? &tracer_ : nullptr; }

  /// Statement dispatch body; ExecuteStatement wraps it in the write
  /// guard / read snapshot.
  Status ExecuteStatementImpl(const Statement& stmt);

  Result<Type> ResolveType(const RawType& raw, const std::string& owner);
  Result<Value> ResolveLiteral(const RawLiteral& raw, const Type& type);
  Status RunAssign(const AssignStmt& stmt);
  Status RunPrepare(const PrepareStmt& stmt);
  Status RunExecute(const ExecuteStmt& stmt);
  /// `STATS rel ...;` — installs serialised catalog statistics
  /// (Database::SeedStats) without a relation scan.
  Status RunStatsSeed(const StatsStmt& stmt);
  /// `SET name value;` — planner option assignment: OPTLEVEL 0-4 | AUTO,
  /// DIVISION HASH | SORT, PERMINDEXES ON | OFF, BATCH <rows 1..65536> —
  /// plus the session-level TRACE ON | OFF and
  /// the database-wide SLOWLOG <us> | OFF (deliberately NOT
  /// PlannerOptions members: observability must not perturb the
  /// plan-cache key or any planning decision). Any other name is
  /// kInvalidArgument.
  Status ApplyOption(const std::string& name, const std::string& value);
  void Emit(const std::string& text);

  /// The statement text to scan for sys$ references before the statement
  /// captures its snapshot (empty when the statement kind cannot read a
  /// relation by name).
  std::string StatementSourceForRefresh(const Statement& stmt);

  /// Folds one completed query run into the database-wide observability
  /// surfaces: the statement-statistics store, the session registry, the
  /// server metrics, and — when armed and over threshold — the slow-query
  /// log. Called once per statement, after the run's cursor has closed.
  void FoldStatementStats(const std::string& fingerprint, uint64_t latency_us,
                          uint64_t rows, const ExecStats& stats,
                          bool plan_cache_hit, double max_qerror,
                          const std::string& plan_summary);

  Database* db_;
  std::ostream* out_;
  PlannerOptions options_;
  ExecStats total_stats_;
  std::map<std::string, PreparedQuery> named_prepared_;
  int anon_enum_counter_ = 0;
  uint64_t last_commit_version_ = 0;
  uint64_t session_id_ = 0;

  bool tracing_ = false;
  Tracer tracer_;
  MetricsRegistry metrics_;
};

}  // namespace pascalr

#endif  // PASCALR_PASCALR_SESSION_H_
