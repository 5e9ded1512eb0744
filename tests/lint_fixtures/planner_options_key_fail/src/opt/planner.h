// Fixture: the options of the join-order DP era, all compared.

struct PlannerOptions {
  OptLevel level = OptLevel::kQuantPush;
  DivisionAlgorithm division = DivisionAlgorithm::kHash;
  bool use_permanent_indexes = false;
  bool join_order_dp = true;
  bool join_dp_bushy = false;
  CollectionPolicy collection = CollectionPolicy::kEager;
  size_t batch_size = 1024;
};

inline bool operator==(const PlannerOptions& a, const PlannerOptions& b) {
  return a.level == b.level && a.division == b.division &&
         a.use_permanent_indexes == b.use_permanent_indexes &&
         a.join_order_dp == b.join_order_dp &&
         a.join_dp_bushy == b.join_dp_bushy &&
         a.collection == b.collection && a.batch_size == b.batch_size;
}
