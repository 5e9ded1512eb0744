// SharedPlanCache: the process-wide prepared-plan cache living inside
// Database, so N sessions preparing the same selection share ONE plan
// search instead of each paying for its own. Keyed on the normalized
// selection source (calculus/printer.h FormatSelection) plus an encoding
// of the session's PlannerOptions; each entry carries the validity stamps
// the per-PreparedQuery cache already uses — catalog stats epoch,
// per-relation (name, mod_count) watermarks, and the plan-time emptiness
// verdicts of every parameter-dependent range (Lemma-1 / rule-2 safety).
//
// The cache stores plans, it does not judge them: Lookup returns the raw
// entry and the prepared layer (pascalr/prepared.cc) validates the stamps
// under ITS snapshot and bindings, clones the plan (plans are patched in
// place per execution, so sessions must never share one mutable plan
// object), and reports the outcome back through RecordHit/RecordMiss —
// which feed ConcurrencyCounters::shared_plan_{hits,misses}.
//
// Entries are immutable once inserted; a newer plan for the same key
// replaces the older one. Bounded FIFO eviction. All operations take one
// short mutex hop; nothing is held while planning.

#ifndef PASCALR_CONCURRENCY_PLAN_CACHE_H_
#define PASCALR_CONCURRENCY_PLAN_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "concurrency/snapshot.h"

namespace pascalr {

struct PlannedQuery;   // opt/planner.h
struct PlannerOptions;  // opt/planner.h

/// Stable textual encoding of every PlannerOptions field — the options
/// half of the cache key. A field left out lets sessions with different
/// options adopt each other's plans (tools/lint_invariants.py checks).
std::string EncodePlannerOptions(const PlannerOptions& options);

/// lint: thread-compatible(a value type — Lookup hands out copies made
/// under the cache mutex; entries are never shared by reference)
struct SharedPlanEntry {
  /// The plan as compiled (parameter slots carry the *compiling*
  /// session's bindings — adopters must clone and re-patch).
  std::shared_ptr<const PlannedQuery> planned;
  uint64_t stats_epoch = 0;
  /// Referenced relations' (name, mod_count) at plan time.
  std::vector<std::pair<std::string, uint64_t>> rel_mods;
  /// Plan-time emptiness of each parameter-carrying template range, in
  /// CollectParamRanges order (deterministic for one source string), and
  /// of each parameter-carrying plan-prefix range by prefix position. An
  /// adopter whose bindings flip any verdict must not use the plan.
  std::vector<bool> template_range_empty;
  std::vector<std::pair<size_t, bool>> plan_probes;
};

class SharedPlanCache {
 public:
  explicit SharedPlanCache(size_t capacity = 512) : capacity_(capacity) {}

  /// Copies the entry for `key` into *out. Returns false when absent.
  /// No validity judgement — the caller checks the stamps.
  bool Lookup(const std::string& key, SharedPlanEntry* out) const;

  /// Inserts (or replaces) the entry for `key`, evicting FIFO beyond
  /// capacity.
  void Insert(const std::string& key, SharedPlanEntry entry);

  /// Adoption outcome, reported by the prepared layer after validating a
  /// Lookup result (also feeds ConcurrencyCounters when attached).
  void RecordHit();
  void RecordMiss();

  void AttachCounters(ConcurrencyCounters* counters) { counters_ = counters; }

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;

  /// One row per cached entry, for the sys$plan_cache system relation:
  /// the cache key plus the entry's validity-stamp shape.
  /// lint: thread-compatible(a value type — Describe builds these copies
  /// under the cache mutex and hands them out by value)
  struct Description {
    std::string key;
    uint64_t stats_epoch = 0;
    size_t relations = 0;     // rel_mods watermarks carried
    size_t param_probes = 0;  // template + plan-prefix emptiness probes
  };
  std::vector<Description> Describe() const;

  void Clear();

 private:
  void EvictIfNeededLocked() REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  std::map<std::string, SharedPlanEntry> entries_ GUARDED_BY(mu_);
  std::deque<std::string> insertion_order_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  /// lint: unguarded(set once by AttachCounters before concurrent use,
  /// read-only afterwards; the pointed-to counters are atomics)
  ConcurrencyCounters* counters_ = nullptr;
};

}  // namespace pascalr

#endif  // PASCALR_CONCURRENCY_PLAN_CACHE_H_
