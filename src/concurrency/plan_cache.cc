#include "concurrency/plan_cache.h"

#include <algorithm>

#include "base/atomic_util.h"
#include "base/str_util.h"
#include "opt/planner.h"

namespace pascalr {

std::string EncodePlannerOptions(const PlannerOptions& o) {
  return StrFormat("level=%d div=%d permidx=%d batch=%zu",
                   static_cast<int>(o.level), static_cast<int>(o.division),
                   o.use_permanent_indexes ? 1 : 0, o.batch_size);
}

bool SharedPlanCache::Lookup(const std::string& key,
                             SharedPlanEntry* out) const {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void SharedPlanCache::Insert(const std::string& key, SharedPlanEntry entry) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = std::move(entry);  // replace in place; keeps FIFO position
    return;
  }
  entries_.emplace(key, std::move(entry));
  insertion_order_.push_back(key);
  EvictIfNeededLocked();
}

void SharedPlanCache::EvictIfNeededLocked() {
  while (entries_.size() > capacity_ && !insertion_order_.empty()) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

void SharedPlanCache::RecordHit() {
  {
    MutexLock lock(mu_);
    ++hits_;
  }
  if (counters_ != nullptr) {
    RelaxedFetchAdd(counters_->shared_plan_hits, 1);
  }
}

void SharedPlanCache::RecordMiss() {
  {
    MutexLock lock(mu_);
    ++misses_;
  }
  if (counters_ != nullptr) {
    RelaxedFetchAdd(counters_->shared_plan_misses, 1);
  }
}

uint64_t SharedPlanCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t SharedPlanCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

size_t SharedPlanCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void SharedPlanCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  insertion_order_.clear();
}

std::vector<SharedPlanCache::Description> SharedPlanCache::Describe() const {
  MutexLock lock(mu_);
  std::vector<Description> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Description d;
    d.key = key;
    d.stats_epoch = entry.stats_epoch;
    d.relations = entry.rel_mods.size();
    d.param_probes = entry.template_range_empty.size() + entry.plan_probes.size();
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace pascalr
