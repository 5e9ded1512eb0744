// Queryable system relations: the engine's own telemetry exposed through
// its own query language, PASCAL/R's "statistics drive strategy choice"
// discipline turned on the engine itself.
//
//   sys$statements  one row per normalized statement fingerprint — calls,
//                   latency quantiles, rows, the full ExecStats counter
//                   sums, plan-cache verdicts, worst per-operator q-error
//   sys$metrics     the server-wide MetricsRegistry plus the concurrency
//                   and shared-plan-cache counters, one row per metric
//   sys$relations   the user catalog: cardinality, mod_count, arity,
//                   statistics freshness, permanent-index count
//   sys$plan_cache  the shared prepared-plan cache, one row per entry:
//                   cache_key, stats_epoch, relations (mod-count marks)
//                   and param_probes — the range emptiness verdicts the
//                   stamp carries (every template and plan-prefix range;
//                   parameter-carrying ones are re-probed on every check,
//                   the rest when their relation was written)
//   sys$sessions    live sessions with per-session query/write tallies
//
// Mechanism: these are real catalog relations, lazily created and
// re-materialized by RefreshSystemViews *before* a referencing statement
// captures its read snapshot. The refresh runs as an ordinary write
// statement — serialised on the database write mutex, published
// atomically — so under concurrent serving MVCC gives every scan a
// snapshot-consistent view for free: all sys$ scans inside one query see
// one coherent materialization, and concurrent writers never expose a
// half-refreshed row set. Statement entry points (Session / Prepared-
// Query) detect sys$ references textually in the normalized source and
// pin the views for the statement's scope so nested entry points do not
// re-materialize.
//
// The views get trivial catalog statistics (cardinality + per-column
// distinct counts) seeded WITHOUT bumping the stats epoch — the planner
// costs sys$ scans like any analyzed relation, while cached plans for
// ordinary queries stay valid across refreshes.

#ifndef PASCALR_OBS_SYSTEM_RELATIONS_H_
#define PASCALR_OBS_SYSTEM_RELATIONS_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace pascalr {

class Database;

namespace sysrel {
inline constexpr char kPrefix[] = "sys$";
inline constexpr char kStatements[] = "sys$statements";
inline constexpr char kMetrics[] = "sys$metrics";
inline constexpr char kRelations[] = "sys$relations";
inline constexpr char kPlanCache[] = "sys$plan_cache";
inline constexpr char kSessions[] = "sys$sessions";
}  // namespace sysrel

/// True for names in the reserved "sys$" namespace.
bool IsSystemRelationName(std::string_view name);

/// The known system-relation names referenced by `text` (an identifier
/// scan over source or normalized-source text), deduplicated. Unknown
/// sys$ identifiers are ignored — the binder reports those as missing
/// relations like any other typo.
std::vector<std::string> SystemRelationNamesIn(std::string_view text);

/// Statement-scope pin: while one is alive on this thread, Refresh calls
/// are suppressed — the outermost entry point materialized already and
/// nested Prepare/Execute must reuse that state (under serving their
/// shared snapshot could not see a re-refresh anyway).
class ScopedSystemViewPin {
 public:
  ScopedSystemViewPin();
  ~ScopedSystemViewPin();
  ScopedSystemViewPin(const ScopedSystemViewPin&) = delete;
  ScopedSystemViewPin& operator=(const ScopedSystemViewPin&) = delete;
};

/// True while any ScopedSystemViewPin is alive on this thread.
bool SystemViewsPinned();

/// Materializes the named system views as one atomic write statement and
/// quietly refreshes their trivial statistics. Call before capturing the
/// statement's read snapshot.
Status RefreshSystemViews(Database* db, const std::vector<std::string>& names);

/// Entry-point helper: scans `text` for system-relation references and
/// refreshes them unless this thread pinned the views already or is
/// inside an ambient snapshot (which could not observe the refresh).
Status RefreshSystemViewsForSource(Database* db, std::string_view text);

}  // namespace pascalr

#endif  // PASCALR_OBS_SYSTEM_RELATIONS_H_
