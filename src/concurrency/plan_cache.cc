#include "concurrency/plan_cache.h"

#include "base/atomic_util.h"
#include "base/str_util.h"
#include "opt/planner.h"

namespace pascalr {

std::string EncodePlannerOptions(const PlannerOptions& o) {
  return StrFormat("level=%d permidx=%d batch=%zu",
                   static_cast<int>(o.level), o.use_permanent_indexes ? 1 : 0,
                   o.batch_size);
}

std::shared_ptr<const SharedPlanEntry> SharedPlanCache::Lookup(
    const std::string& key) const {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

void SharedPlanCache::Insert(const std::string& key,
                             std::shared_ptr<const SharedPlanEntry> entry) {
  MutexLock lock(mu_);
  auto [it, inserted] = entries_.insert_or_assign(key, std::move(entry));
  (void)it;
  if (!inserted) return;  // replaced in place; keeps its FIFO position
  insertion_order_.push_back(key);
  while (entries_.size() > kCapacity) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

bool SharedPlanCache::ReplaceIf(
    const std::string& key,
    const std::shared_ptr<const SharedPlanEntry>& expected,
    std::shared_ptr<const SharedPlanEntry> entry) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second != expected) return false;
  it->second = std::move(entry);
  return true;
}

void SharedPlanCache::RecordHit() {
  if (counters_ != nullptr) RelaxedFetchAdd(counters_->shared_plan_hits, 1);
}

void SharedPlanCache::RecordMiss() {
  if (counters_ != nullptr) RelaxedFetchAdd(counters_->shared_plan_misses, 1);
}

std::vector<SharedPlanCache::Description> SharedPlanCache::Describe() const {
  MutexLock lock(mu_);
  std::vector<Description> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Description d;
    d.key = key;
    d.stats_epoch = entry->stamp.stats_epoch;
    d.relations = entry->stamp.rel_mods.size();
    d.param_probes = entry->stamp.template_range_empty.size() +
                     entry->stamp.prefix_range_empty.size();
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace pascalr
