#include "replay.h"

#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "exec/collection.h"
#include "exec/combination.h"
#include "exec/construction.h"
#include "normalize/standard_form.h"
#include "parser/parser.h"
#include "pipeline/chunk.h"
#include "pipeline/compile.h"
#include "semantics/binder.h"

namespace e2e {

using pascalr::Result;
using pascalr::Status;
using pascalr::Tuple;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* LayerName(int layer) {
  static const char* const kNames[kLayerCount] = {
      "parser.parse",       "semantics.bind",          "normalize.standard_form",
      "opt.plan",           "exec.collection",         "pipeline.compile",
      "pipeline.combination", "exec.construction",     "exec.cursor_close",
  };
  return kNames[layer];
}

bool LayerInClosure(int layer) { return layer != kStandardForm; }

int64_t SpanLog::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                     int64_t parent, uint64_t stmt) {
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({name, start_ns, end_ns, id, parent, stmt});
  return id;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"stmt\":%llu}}",
                   first ? "" : ",", s.name, log->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.stmt));
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

namespace {

/// Runs `fn`, charging its wall time to `layer` and recording a span
/// (just runs it when `r` is null).
template <typename Fn>
auto Timed(Replay* r, int layer, Fn&& fn) {
  if (r == nullptr) return fn();
  const uint64_t t0 = NowNs();
  auto result = fn();
  const uint64_t t1 = NowNs();
  r->ns[layer] += t1 - t0;
  r->log->Add(LayerName(layer), t0, t1, r->parent, r->stmt);
  return result;
}

}  // namespace

Result<pascalr::BoundQuery> ReplayFrontEnd(const pascalr::Database& db,
                                           const std::string& source,
                                           Replay* replay) {
  pascalr::Parser parser(source);
  PASCALR_ASSIGN_OR_RETURN(
      pascalr::SelectionExpr sel,
      Timed(replay, kParse, [&] { return parser.ParseSelectionOnly(); }));
  pascalr::Binder binder(&db);
  return Timed(replay, kBind, [&] { return binder.Bind(std::move(sel)); });
}

Status ReplayPlan(const pascalr::Database& db, pascalr::BoundQuery bound,
                  const pascalr::ParamBindings& params,
                  const pascalr::PlannerOptions& options, Replay* replay) {
  if (!params.empty()) {
    PASCALR_ASSIGN_OR_RETURN(pascalr::ParamBindings checked,
                             pascalr::CheckParamBindings(bound.params, params));
    PASCALR_RETURN_IF_ERROR(
        pascalr::BindSelectionParams(&bound.selection, checked));
  }
  pascalr::BoundQuery copy = pascalr::CloneBoundQuery(bound);
  PASCALR_RETURN_IF_ERROR(Timed(replay, kStandardForm, [&] {
                            return pascalr::BuildStandardForm(std::move(copy));
                          }).status());
  return Timed(replay, kPlan, [&] {
           return pascalr::PlanQuery(db, std::move(bound), options);
         }).status();
}

Result<std::vector<Tuple>> ReplayExecute(const pascalr::QueryPlan& plan,
                                         const pascalr::Database& db,
                                         size_t limit, Replay* replay) {
  pascalr::ExecStats stats;
  pascalr::PeakTracker tracker(&stats);
  pascalr::CollectionBuilders builders(plan, db, &stats);
  const bool lazy =
      plan.pipeline && plan.collection == pascalr::CollectionPolicy::kLazy;
  if (!lazy) {
    PASCALR_RETURN_IF_ERROR(
        Timed(replay, kCollection, [&] { return builders.EnsureAll(); }));
  }
  pascalr::CompiledPipeline pipeline;
  if (plan.pipeline) {
    Result<pascalr::CompiledPipeline> compiled = Timed(replay, kCompile, [&] {
      return pascalr::CompilePipeline(plan, &builders, &stats, &tracker);
    });
    if (compiled.ok() && compiled->ok()) pipeline = std::move(compiled).value();
  }

  std::vector<Tuple> out;
  std::unordered_set<Tuple, pascalr::TupleHash> seen;
  std::vector<int> column_of_var;
  pascalr::RefRow scratch;
  // Dereference + projection + dedup of rows [begin, end) of a
  // combination result, as Cursor::NextImpl does per row.
  auto construct = [&](auto&& row_at, size_t count) -> Status {
    for (size_t i = 0; i < count && out.size() < limit; ++i) {
      PASCALR_ASSIGN_OR_RETURN(
          Tuple tuple, pascalr::ConstructRow(plan, row_at(i), column_of_var,
                                             db, &stats));
      if (seen.insert(tuple).second) out.push_back(std::move(tuple));
    }
    return Status::OK();
  };

  if (pipeline.ok()) {
    // The cursor's batched drain (BATCH > 1, the default): pull a chunk
    // from the sink, construct its rows, repeat until `limit` tuples.
    PASCALR_ASSIGN_OR_RETURN(column_of_var, Timed(replay, kConstruction, [&] {
      return pascalr::ResolveProjectionColumns(plan, pipeline.columns);
    }));
    pascalr::Chunk chunk;
    while (out.size() < limit) {
      chunk.capacity = plan.batch_size;
      PASCALR_ASSIGN_OR_RETURN(bool more, Timed(replay, kCombination, [&] {
        return pipeline.root->NextBatch(&chunk);
      }));
      if (!more) break;
      PASCALR_RETURN_IF_ERROR(Timed(replay, kConstruction, [&] {
        return construct(
            [&](size_t i) -> const pascalr::RefRow& {
              chunk.RowAt(i, &scratch);
              return scratch;
            },
            chunk.rows);
      }));
    }
    pipeline.root.reset();
    return out;
  }

  // Materializing fallback, as Cursor::Open takes it.
  if (lazy) PASCALR_RETURN_IF_ERROR(builders.EnsureAll());
  PASCALR_ASSIGN_OR_RETURN(
      pascalr::RefRelation combined, Timed(replay, kCombination, [&] {
        return pascalr::ExecuteCombination(plan, builders.result(), &stats);
      }));
  PASCALR_RETURN_IF_ERROR(Timed(replay, kConstruction, [&]() -> Status {
    PASCALR_ASSIGN_OR_RETURN(column_of_var,
                             pascalr::ResolveProjectionColumns(plan, combined));
    return construct(
        [&](size_t i) -> const pascalr::RefRow& { return combined.row(i); },
        combined.rows().size());
  }));
  return out;
}

}  // namespace e2e
