// Fixture: the cache key encodes all five PlannerOptions fields.

std::string EncodePlannerOptions(const PlannerOptions& o) {
  return StrFormat("level=%d div=%d permidx=%d coll=%d batch=%zu",
                   static_cast<int>(o.level), static_cast<int>(o.division),
                   o.use_permanent_indexes ? 1 : 0,
                   static_cast<int>(o.collection), o.batch_size);
}
