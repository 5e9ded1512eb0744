// Execute drains a cursor from OpenCursor; the cursor accounts the run.

namespace pascalr {

Result<PreparedExecution> PreparedQuery::Execute(const ParamBindings& params) {
  PreparedExecution out;
  PASCALR_ASSIGN_OR_RETURN(Cursor cursor,
                           OpenCursor(params, &out.plan_cache_hit));
  PASCALR_RETURN_IF_ERROR(cursor.DrainInto(&out.tuples));
  out.stats = cursor.stats();
  out.collection = cursor.ReleaseCollection();
  cursor.Close();
  return out;
}

Result<Cursor> PreparedQuery::OpenCursor(const ParamBindings& params,
                                         bool* cache_hit) {
  const auto t0 = std::chrono::steady_clock::now();
  PASCALR_RETURN_IF_ERROR(EnsurePlan(params, cache_hit));
  return session_->OpenAccountedCursor(state_->planned, state_->source,
                                       *cache_hit, t0);
}

}  // namespace pascalr
