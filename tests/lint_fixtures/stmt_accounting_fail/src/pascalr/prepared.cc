// Execute re-implementing OpenCursor with its own inline accounting: a
// second FoldStatementStats call site and a second copy of the session
// metrics, free to drift from the cursor path.

namespace pascalr {

Result<PreparedExecution> PreparedQuery::Execute(const ParamBindings& params) {
  const auto t0 = std::chrono::steady_clock::now();
  bool cache_hit = false;
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, &cache_hit));
  std::shared_ptr<const QueryPlan> plan(state_->planned,
                                        &state_->planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor, Cursor::Open(std::move(plan), *session_->db_, nullptr));
  PreparedExecution out;
  Tuple tuple;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, cursor.Next(&tuple));
    if (!more) break;
    out.tuples.push_back(std::move(tuple));
  }
  out.stats = cursor.stats();
  if (!cache_hit) out.stats.replans = state_->planned->replans;
  cursor.Close();
  session_->total_stats_.Merge(out.stats);
  MetricsRegistry& metrics = session_->metrics_;
  metrics.counter("query.count").Inc();
  const uint64_t latency_us = ElapsedUs(t0);
  metrics.histogram("query.latency_us").Record(latency_us);
  session_->FoldStatementStats(state_->source, latency_us,
                               out.tuples.size(), out.stats, cache_hit,
                               /*max_qerror=*/0.0, "");
  return out;
}

}  // namespace pascalr
