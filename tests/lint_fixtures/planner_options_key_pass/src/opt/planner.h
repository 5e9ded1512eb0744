// Fixture: every PlannerOptions field is compared and encoded.

struct PlannerOptions {
  OptLevel level = OptLevel::kQuantPush;
  DivisionAlgorithm division = DivisionAlgorithm::kHash;
  /// Doc comments and `a.unrelated` mentions here are ignored.
  bool use_permanent_indexes = false;
  CollectionPolicy collection = CollectionPolicy::kEager;
  size_t batch_size = 1024;
};

inline bool operator==(const PlannerOptions& a, const PlannerOptions& b) {
  return a.level == b.level && a.division == b.division &&
         a.use_permanent_indexes == b.use_permanent_indexes &&
         a.collection == b.collection && a.batch_size == b.batch_size;
}
