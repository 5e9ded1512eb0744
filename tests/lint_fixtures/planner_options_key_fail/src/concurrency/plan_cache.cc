// Fixture: the key omits batch_size, so a session with SET BATCH 1 adopts
// another session's 1024-row plan.

std::string EncodePlannerOptions(const PlannerOptions& o) {
  return StrFormat("level=%d div=%d permidx=%d dp=%d bushy=%d coll=%d",
                   static_cast<int>(o.level), static_cast<int>(o.division),
                   o.use_permanent_indexes ? 1 : 0, o.join_order_dp ? 1 : 0,
                   o.join_dp_bushy ? 1 : 0, static_cast<int>(o.collection));
}
