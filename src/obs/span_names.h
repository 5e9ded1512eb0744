// The registered trace-span vocabulary. Every span name the engine emits
// — top-level trace kinds (QueryTraceGuard) and stage spans
// (TraceSpanGuard / Tracer::AddCompleteSpan) — is declared here, and
// call sites reference these constants instead of string literals.
//
// Why a registry: span names are load-bearing across file boundaries —
// the Chrome-trace CI smoke greps for "query"/"plan"/"drain", tests
// assert span-tree shapes by name, and dashboards built on the exported
// traces key on them. A typo'd literal at one call site silently forks
// the vocabulary. tools/lint_invariants.py therefore bans string-literal
// span names in engine code (rule span-name-literal); adding a new stage
// means adding its constant here first.

#ifndef PASCALR_OBS_SPAN_NAMES_H_
#define PASCALR_OBS_SPAN_NAMES_H_

namespace pascalr {
namespace spans {

// ---- top-level trace kinds (QueryTraceGuard / Tracer::BeginQuery) ----
inline constexpr char kQuery[] = "query";
inline constexpr char kPrepare[] = "prepare";
inline constexpr char kExecute[] = "execute";
inline constexpr char kExplainAnalyze[] = "explain-analyze";

// ---- compile-time stages ---------------------------------------------
inline constexpr char kParse[] = "parse";
inline constexpr char kBind[] = "bind";
inline constexpr char kNormalize[] = "normalize";
inline constexpr char kPlan[] = "plan";
inline constexpr char kPlanSearch[] = "plan-search";

// ---- run-time stages --------------------------------------------------
inline constexpr char kCollection[] = "collection";
inline constexpr char kCombination[] = "combination";
inline constexpr char kScan[] = "scan";
inline constexpr char kDrain[] = "drain";

/// Every registered name, for validation code that wants to iterate the
/// vocabulary (the linter parses this header textually instead).
inline constexpr const char* kAllSpanNames[] = {
    kQuery,      kPrepare,    kExecute,     kExplainAnalyze,
    kParse,      kBind,       kNormalize,   kPlan,
    kPlanSearch, kCollection, kCombination, kScan,
    kDrain,
};

}  // namespace spans
}  // namespace pascalr

#endif  // PASCALR_OBS_SPAN_NAMES_H_
