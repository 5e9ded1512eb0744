// One accounting path: the cursor helper's close hook records the
// session metrics and is the only caller of FoldStatementStats.
// (A "query.count" in a comment is not a metric.)

namespace pascalr {

Result<Cursor> Session::OpenAccountedCursor(
    std::shared_ptr<const PlannedQuery> planned, std::string fingerprint,
    bool plan_cache_hit, std::chrono::steady_clock::time_point t0,
    PipelineProfile* profile) {
  const uint64_t replans = plan_cache_hit ? 0 : planned->replans;
  std::shared_ptr<const QueryPlan> plan(planned, &planned->plan);
  PASCALR_ASSIGN_OR_RETURN(
      Cursor cursor,
      Cursor::Open(std::move(plan), *db_, /*sink=*/nullptr, profile));
  cursor.set_close_hook([this, fingerprint = std::move(fingerprint),
                         plan_cache_hit, replans, t0](const ExecStats& run,
                                                      uint64_t rows) {
    ExecStats stats = run;
    stats.replans = replans;
    total_stats_.Merge(stats);
    const uint64_t latency_us = ElapsedUs(t0);
    metrics_.counter("query.count").Inc();
    metrics_.histogram("query.latency_us").Record(latency_us);
    FoldStatementStats(fingerprint, latency_us, rows, stats, plan_cache_hit,
                       0.0, "");
  });
  return cursor;
}

void Session::FoldStatementStats(const std::string& fingerprint,
                                 uint64_t latency_us, uint64_t rows,
                                 const ExecStats& stats, bool plan_cache_hit,
                                 double max_qerror,
                                 const std::string& plan_summary) {
  MetricsRegistry& server = db_->server_metrics();
  server.counter("server.query.count").Inc();
  server.histogram("server.query.latency_us").Record(latency_us);
}

}  // namespace pascalr
