#include "exec/cursor.h"

#include <chrono>

#include "base/str_util.h"
#include "exec/construction.h"
#include "obs/profile.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "storage/relation.h"

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
  close_hook_ = std::move(other.close_hook_);
  run_ = std::move(other.run_);
  open_ = other.open_;
  // The moved-from cursor must not fire the close hook again on
  // destruction.
  other.open_ = false;
  other.close_hook_ = nullptr;
  other.plan_.reset();
  return *this;
}

Result<Cursor> Cursor::Open(std::shared_ptr<const QueryPlan> plan,
                            const Database& db, PipelineProfile* profile) {
  if (plan == nullptr) return Status::InvalidArgument("cursor needs a plan");
  Cursor c;
  c.plan_ = std::move(plan);
  c.db_ = &db;
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
  const size_t arity = run.column_of_var.size();
  run.relation_of_var.resize(arity);
  run.values.resize(arity);
  run.seen = ProjectedRowSet(arity);
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

Status Cursor::DrainInto(std::vector<Tuple>* out) {
  Tuple tuple;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, Next(&tuple));
    if (!more) return Status::OK();
    out->push_back(std::move(tuple));
  }
}

Result<bool> Cursor::NextImpl(Tuple* out) {
  RunState& run = *run_;
  const std::vector<OutputComponent>& projection = plan_->sf.projection;
  const size_t arity = run.column_of_var.size();
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
      if (run.chunk.rows == 0) continue;
      run.seen.ReserveChunk(run.chunk.rows);
      // A column binds one variable, so all its refs point into that
      // variable's relation: one catalog lookup per column per chunk.
      for (size_t i = 0; i < arity; ++i) {
        const Ref& first =
            run.chunk.cols[static_cast<size_t>(run.column_of_var[i])][0];
        run.relation_of_var[i] = db_->ShareRelation(first.relation);
        if (run.relation_of_var[i] == nullptr) {
          return Status::NotFound(StrFormat(
              "reference into unknown relation %u", first.relation));
        }
      }
    }
    // Dereference only the row Next consumes (lazy construction).
    const size_t r = run.chunk_pos++;
    for (size_t i = 0; i < arity; ++i) {
      const Ref& ref =
          run.chunk.cols[static_cast<size_t>(run.column_of_var[i])][r];
      PASCALR_ASSIGN_OR_RETURN(const Tuple* tuple,
                               run.relation_of_var[i]->Deref(ref));
      ++run.stats.dereferences;
      run.values[i] =
          &tuple->at(static_cast<size_t>(projection[i].component_pos));
    }
    if (!run.seen.Insert(run.values.data())) continue;  // duplicate row
    const Value* kept = run.seen.row(run.seen.size() - 1);
    *out = Tuple(std::vector<Value>(kept, kept + arity));
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
    if (close_hook_) {
      // seen's size is exactly the emitted-tuple count (every emitted
      // tuple passes dedup), unlike rows_emitted which only counts when a
      // tracer is attached.
      close_hook_(run_->stats, run_->seen.size());
    }
  }
  close_hook_ = nullptr;
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
