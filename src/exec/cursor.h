// Pull-based result cursor over a compiled plan: the one way the engine
// executes a statement.
//
// Open compiles the combination phase into a join-iterator tree
// (src/pipeline/). Next constructs one tuple at a time — dereference +
// projection + duplicate elimination on demand — out of a chunk of
// combination rows, pulling the next chunk (QueryPlan::batch_size rows)
// through the tree only when the current one is used up. Open runs the
// whole collection phase (paper §3.3 step 1) first, in one eager pass. No
// combination intermediate is materialised (blocking buffers — division
// input, dedup sinks — excepted), and closing (or dropping) a partially
// drained cursor skips the remaining join work and the remaining
// dereferences. A collection or compile failure fails the Open. The emitted tuple order is
// deterministic.

#ifndef PASCALR_EXEC_CURSOR_H_
#define PASCALR_EXEC_CURSOR_H_

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "catalog/database.h"
#include "exec/collection.h"
#include "exec/plan.h"
#include "exec/stats.h"
#include "pipeline/compile.h"
#include "refstruct/ref_relation.h"

namespace pascalr {

class PipelineProfile;  // obs/profile.h
class Tracer;           // obs/trace.h

class Cursor {
 public:
  Cursor() = default;  ///< closed cursor
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  Cursor(Cursor&& other) noexcept { *this = std::move(other); }
  Cursor& operator=(Cursor&& other) noexcept;
  ~Cursor() { Close(); }

  /// Runs the collection phase and compiles the pipeline over its
  /// structures. The cursor shares ownership of the plan, so it stays valid even if the
  /// caller's plan cache replans meanwhile.
  /// `sink` (optional) receives this run's ExecStats exactly once, when
  /// the cursor is closed or destroyed; it must outlive the cursor.
  /// `profile` (optional, EXPLAIN ANALYZE) receives one profiled node per
  /// pipeline operator plus a construction/dedup root. It must outlive
  /// the cursor. When null (every normal query) no instrumentation is
  /// inserted.
  static Result<Cursor> Open(std::shared_ptr<const QueryPlan> plan,
                             const Database& db, ExecStats* sink = nullptr,
                             PipelineProfile* profile = nullptr);

  /// Produces the next result tuple into `*out`. Returns false when the
  /// result set is exhausted (or the cursor is closed).
  Result<bool> Next(Tuple* out);

  /// Flushes stats to the sink, tears down the iterator tree (skipping
  /// unperformed join work) and releases the plan.
  /// Idempotent.
  void Close();

  bool is_open() const { return open_; }

  /// Registers a hook invoked exactly once, at Close (or destruction),
  /// with this run's final ExecStats and the number of result tuples the
  /// cursor emitted. The statement-statistics layer uses this to fold a
  /// partially drained cursor's run when the client abandons it — the
  /// fold happens at teardown, never on the row hot path.
  void set_close_hook(std::function<void(const ExecStats&, uint64_t)> hook) {
    close_hook_ = std::move(hook);
  }

  /// Work counters of this cursor's run so far (collection at Open, then
  /// join/construction work as Next is called).
  const ExecStats& stats() const;

  /// Collection-phase structures, complete once Open succeeded (Figure 2
  /// exhibits).
  const CollectionResult& collection() const;

  /// Moves the collection structures out (e.g. into a QueryRun after the
  /// cursor has been drained). The cursor must not be advanced afterwards.
  CollectionResult ReleaseCollection();

 private:
  /// Next minus the instrumentation shell (Next itself times the pull
  /// when a tracer or profile is attached).
  Result<bool> NextImpl(Tuple* out);

  /// Heap-held so the iterators' back-pointers (stats, tracker, the
  /// collection builders) survive Cursor moves.
  struct RunState {
    /// The ambient snapshot at Open (null while concurrent serving is
    /// off). Next/Close re-install it, so a half-drained cursor keeps
    /// reading its capture-time state even after the session has moved
    /// on — and holds the strong refs that keep dropped relations and
    /// unreclaimed versions alive.
    SnapshotRef snapshot;
    ExecStats stats;
    PeakTracker tracker{&stats};
    std::unique_ptr<CollectionBuilders> builders;
    CompiledPipeline pipeline;
    Chunk chunk;           ///< current sink chunk
    size_t chunk_pos = 0;  ///< next unconstructed row of `chunk`
    RefRow scratch;        ///< reused per-row construction input
    std::vector<int> column_of_var;
    std::unordered_set<Tuple, TupleHash> seen;

    // ---- observability (null/-1 on every untraced, unprofiled run) ----
    /// Thread-current tracer captured at Open; when set, Next accumulates
    /// drain time and Close emits one complete "drain" span (per-Next
    /// spans would dwarf the trace).
    Tracer* tracer = nullptr;
    ExecStats stats_at_open;  ///< baseline for the drain span's counters
    uint64_t drain_start_ns = 0;
    uint64_t drain_ns = 0;
    uint64_t rows_emitted = 0;
    PipelineProfile* profile = nullptr;
    int root_prof = -1;  ///< construct/dedup node
  };

  std::shared_ptr<const QueryPlan> plan_;
  const Database* db_ = nullptr;
  ExecStats* sink_ = nullptr;
  std::function<void(const ExecStats&, uint64_t)> close_hook_;
  std::unique_ptr<RunState> run_;
  bool open_ = false;
};

}  // namespace pascalr

#endif  // PASCALR_EXEC_CURSOR_H_
