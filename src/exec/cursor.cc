#include "exec/cursor.h"

#include <chrono>

#include "exec/construction.h"
#include "obs/profile.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace pascalr {

namespace {

const ExecStats kEmptyStats;
const CollectionResult kEmptyCollection;

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Cursor& Cursor::operator=(Cursor&& other) noexcept {
  if (this == &other) return *this;
  Close();
  plan_ = std::move(other.plan_);
  db_ = other.db_;
  sink_ = other.sink_;
  close_hook_ = std::move(other.close_hook_);
  run_ = std::move(other.run_);
  open_ = other.open_;
  // The moved-from cursor must not flush the sink (or fire the close
  // hook) again on destruction.
  other.open_ = false;
  other.sink_ = nullptr;
  other.close_hook_ = nullptr;
  other.plan_.reset();
  return *this;
}

Result<Cursor> Cursor::Open(std::shared_ptr<const QueryPlan> plan,
                            const Database& db, ExecStats* sink,
                            PipelineProfile* profile) {
  if (plan == nullptr) return Status::InvalidArgument("cursor needs a plan");
  Cursor c;
  c.plan_ = std::move(plan);
  c.db_ = &db;
  c.sink_ = sink;
  c.run_ = std::make_unique<RunState>();
  RunState& run = *c.run_;
  run.snapshot = CurrentSnapshotRef();
  run.tracer = Tracer::Current();
  run.profile = profile;
  run.builders =
      std::make_unique<CollectionBuilders>(*c.plan_, db, &run.stats);
  {
    TraceSpanGuard span(spans::kCollection, &run.stats);
    PASCALR_RETURN_IF_ERROR(run.builders->EnsureAll());
  }
  // Compile the iterator tree now, join later — Next pulls rows on
  // demand. A compile failure is an engine bug and fails the Open.
  PASCALR_ASSIGN_OR_RETURN(
      run.pipeline, CompilePipeline(*c.plan_, run.builders.get(), &run.stats,
                                    &run.tracker, profile));
  PASCALR_ASSIGN_OR_RETURN(
      run.column_of_var,
      ResolveProjectionColumns(*c.plan_, run.pipeline.columns));
  if (profile != nullptr) {
    // Construction (dereference + projection + dedup) runs in the cursor
    // above the pipeline sink; a node of its own lets EXPLAIN ANALYZE
    // attribute that per-tuple time too.
    run.root_prof = profile->Add("construct", -1.0, {profile->root()});
    profile->SetRoot(run.root_prof);
  }
  run.stats_at_open = run.stats;
  c.open_ = true;
  return c;
}

Result<bool> Cursor::Next(Tuple* out) {
  if (!open_) return false;
  RunState& run = *run_;
  // Re-install the Open-time snapshot: the cursor reads at its own
  // capture point no matter what the calling thread has current now.
  ScopedSnapshotInstall install_snapshot(run.snapshot);
  // The untraced, unprofiled path (every normal query) takes zero
  // instrumentation: no clock read, no counter touched.
  const bool timed = run.tracer != nullptr || run.root_prof >= 0;
  if (!timed) return NextImpl(out);
  const uint64_t t0 = MonotonicNowNs();
  if (run.tracer != nullptr && run.drain_ns == 0 && run.rows_emitted == 0) {
    run.drain_start_ns = run.tracer->NowNs();
  }
  Result<bool> result = NextImpl(out);
  const uint64_t dt = MonotonicNowNs() - t0;
  run.drain_ns += dt;
  const bool produced = result.ok() && result.value();
  if (produced) ++run.rows_emitted;
  if (run.root_prof >= 0) {
    OpProfile* p = run.profile->prof(run.root_prof);
    p->open_calls = 1;
    ++p->next_calls;
    p->time_ns += dt;
    if (produced) ++p->rows_out;
  }
  return result;
}

Result<bool> Cursor::NextImpl(Tuple* out) {
  RunState& run = *run_;
  // Refill a column-major chunk from the sink, then construct tuples
  // row-by-row out of it. The sink accumulates full chunks, so
  // batches_emitted is ceil(rows / batch) for a full drain regardless of
  // upstream chunking.
  while (true) {
    if (run.chunk_pos >= run.chunk.rows) {
      run.chunk.capacity = plan_->batch_size;
      PASCALR_ASSIGN_OR_RETURN(bool more,
                               run.pipeline.root->NextBatch(&run.chunk));
      if (!more) return false;
      run.chunk_pos = 0;
      ++run.stats.batches_emitted;
    }
    run.chunk.RowAt(run.chunk_pos++, &run.scratch);
    PASCALR_ASSIGN_OR_RETURN(
        Tuple tuple, ConstructRow(*plan_, run.scratch, run.column_of_var,
                                  *db_, &run.stats));
    if (!run.seen.insert(tuple).second) continue;  // duplicate row
    *out = std::move(tuple);
    return true;
  }
}

void Cursor::Close() {
  if (!open_) return;
  open_ = false;
  if (run_ != nullptr) {
    ScopedSnapshotInstall install_snapshot(run_->snapshot);
    // One complete span for the whole drain (per-Next spans would dwarf
    // the trace), carrying the run-time counter deltas.
    if (run_->tracer != nullptr && run_->drain_ns > 0) {
      auto counters = ExecStatsDelta(run_->stats_at_open, run_->stats);
      counters.emplace_back("rows_emitted", run_->rows_emitted);
      run_->tracer->AddCompleteSpan(spans::kDrain, "", run_->drain_start_ns,
                                    run_->drain_ns, std::move(counters));
    }
    // Tear down the iterator tree first: its operators hold pointers into
    // the plan and the collection builders.
    run_->pipeline.root.reset();
    if (sink_ != nullptr) sink_->Merge(run_->stats);
    if (close_hook_) {
      // seen's size is exactly the emitted-tuple count (every emitted
      // tuple passes dedup), unlike rows_emitted which only counts when a
      // tracer is attached.
      close_hook_(run_->stats, run_->seen.size());
    }
  }
  close_hook_ = nullptr;
  sink_ = nullptr;
  plan_.reset();
}

const ExecStats& Cursor::stats() const {
  return run_ == nullptr ? kEmptyStats : run_->stats;
}

const CollectionResult& Cursor::collection() const {
  return run_ == nullptr || run_->builders == nullptr ? kEmptyCollection
                                                      : run_->builders->result();
}

CollectionResult Cursor::ReleaseCollection() {
  if (run_ == nullptr || run_->builders == nullptr) return CollectionResult();
  // The iterators probe the structures in place; a released collection
  // must not be touched again.
  run_->pipeline.root.reset();
  return run_->builders->Release();
}

}  // namespace pascalr
