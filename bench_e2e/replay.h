// Traced replay for bench_e2e: after a statement has run through its public
// entry point, the traced run replays it through the engine's layer
// functions — parse, bind, standard form, plan, collection, pipeline
// compile, combination, construction — timing each call from the
// benchmark's own code. Spans are kept in memory and written as Chrome
// trace-event JSON at exit. Nothing here reaches inside the engine: spans
// inside the program are a later change.

#ifndef PASCALR_BENCH_E2E_REPLAY_H_
#define PASCALR_BENCH_E2E_REPLAY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "exec/plan.h"
#include "opt/params.h"
#include "opt/planner.h"
#include "semantics/binder.h"
#include "value/tuple.h"

namespace e2e {

uint64_t NowNs();

/// The layer calls a statement is replayed through, plus the entry
/// point's own Cursor::Close (timed inside the entry point).
enum Layer {
  kParse,         ///< Parser::ParseSelectionOnly
  kBind,          ///< Binder::Bind
  kStandardForm,  ///< BuildStandardForm (PlanQuery repeats it internally)
  kPlan,          ///< PlanQuery: normalize, strategy, cost search, join order
  kCollection,    ///< CollectionBuilders::EnsureAll
  kCompile,       ///< CompilePipeline
  kCombination,   ///< root NextBatch drain, or ExecuteCombination
  kConstruction,  ///< ResolveProjectionColumns + ConstructRow + dedup
  kCursorClose,   ///< Cursor::Close of a browsing or draining entry point
  kLayerCount,
};

/// Span / metric stem of a layer, e.g. "parser.parse".
const char* LayerName(int layer);

/// True for layers whose time the entry point also spent once; false for
/// kStandardForm, which PlanQuery already contains.
bool LayerInClosure(int layer);

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t id;
  int64_t parent;  ///< -1 for a root span
  uint64_t stmt;   ///< statement id shared by all spans of one statement
};

/// In-memory span store of one client thread.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}
  int64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t stmt);
  /// Closes a span opened with Add(name, start, start, ...) before its
  /// children were recorded.
  void SetEnd(int64_t id, uint64_t end_ns) { spans_[id].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  int tid_;
  std::vector<Span> spans_;
};

/// Writes every log's spans as Chrome trace events ("X" phase, µs).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

/// One statement's replay: where its spans go and the per-layer time.
struct Replay {
  SpanLog* log = nullptr;
  int64_t parent = -1;
  uint64_t stmt = 0;
  std::array<uint64_t, kLayerCount> ns{};
};

/// Parses and binds `source`, charging both calls to their layers. With a
/// null `replay` the calls are untimed: they only rebuild the query a
/// prepared replan starts from (the entry point parsed it at Prepare).
pascalr::Result<pascalr::BoundQuery> ReplayFrontEnd(const pascalr::Database& db,
                                                    const std::string& source,
                                                    Replay* replay);

/// Substitutes `params` into `bound` as a prepared replan does, then
/// replays BuildStandardForm and PlanQuery.
pascalr::Status ReplayPlan(const pascalr::Database& db,
                           pascalr::BoundQuery bound,
                           const pascalr::ParamBindings& params,
                           const pascalr::PlannerOptions& options,
                           Replay* replay);

/// Replays collection, pipeline compile, combination and construction of
/// `plan` the way Cursor::Open and its batched Next do, stopping after
/// `limit` distinct tuples. Returns the tuples in cursor order.
pascalr::Result<std::vector<pascalr::Tuple>> ReplayExecute(
    const pascalr::QueryPlan& plan, const pascalr::Database& db, size_t limit,
    Replay* replay);

}  // namespace e2e

#endif  // PASCALR_BENCH_E2E_REPLAY_H_
