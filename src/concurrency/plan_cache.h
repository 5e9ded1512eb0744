// SharedPlanCache: the process-wide prepared-plan cache living inside
// Database, so N sessions preparing the same selection share ONE plan
// search instead of each paying for its own. Keyed on the normalized
// selection source (calculus/printer.h FormatSelection) plus an encoding
// of the session's PlannerOptions; each entry carries the PlanStamp the
// compiling session's private plan slot holds — the same struct, copied
// at publication.
//
// The cache stores plans, it does not judge them: Lookup hands out the
// entry and the prepared layer (pascalr/prepared.cc) checks its stamp
// with the same function that checks a private plan, under ITS snapshot
// and bindings, clones the plan (plans are patched in place per
// execution, so sessions must never share one mutable plan object), and
// reports the outcome back through RecordHit/RecordMiss — which feed
// ConcurrencyCounters::shared_plan_{hits,misses}.
//
// Entries are immutable once inserted and handed out as shared_ptr<const>;
// a newer plan for the same key replaces the older one, and a session
// that revalidated an entry after a write publishes a copy with the
// refreshed stamp through ReplaceIf — only over the very entry it looked
// up, so it never overwrites a newer compile. Bounded FIFO eviction. All
// operations take one short mutex hop; nothing is held while planning or
// validating.

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

/// What a compiled plan's validity rests on, taken when it was compiled.
/// Held by a prepared query's private plan slot and by every shared entry.
///
/// Correctness rests on the emptiness verdicts the planner's Lemma-1
/// folding and rule-2 abandonment were decided under, so the stamp records
/// the plan-time emptiness of every template range and every plan-prefix
/// range. The strategy choice rests on the catalog stats epoch and on the
/// relations' sizes, so it records the epoch and each referenced
/// relation's live cardinality. Each relation's mod count is the fast
/// path: while none moved, only parameter-carrying ranges are re-probed.
/// When one moved, the plan is revalidated rather than replanned: it still
/// holds if every range over a modified relation keeps its verdict and the
/// relation's cardinality stays within kCardinalityBand of its plan-time
/// value; then only the mod counts are refreshed (pascalr/prepared.cc
/// StampHolds, the one check for private and shared plans).
/// lint: thread-compatible(a value type — shared entries are immutable
/// once published and reached only through shared_ptr<const>)
struct PlanStamp {
  /// A revalidated plan keeps its relation's plan-time cardinality c while
  /// the live one stays within [c / 2, 2c]. Measured against the plan-time
  /// value, never the last refresh, so drift cannot accumulate.
  static constexpr size_t kCardinalityBand = 2;

  /// One referenced relation as the plan saw it.
  /// lint: thread-compatible(a value type, part of PlanStamp)
  struct RelationMark {
    std::string name;
    uint64_t mod_count = 0;  ///< refreshed by every revalidation
    size_t cardinality = 0;  ///< plan-time; the band's anchor
  };

  uint64_t stats_epoch = 0;
  std::vector<RelationMark> rel_mods;
  /// Plan-time emptiness of each template range, in CollectTemplateRanges
  /// order (deterministic for one source string).
  std::vector<bool> template_range_empty;
  /// Plan-time emptiness of each range of the plan's prefix, by position.
  std::vector<bool> prefix_range_empty;
};

/// lint: thread-compatible(immutable once published — Lookup hands out
/// shared_ptr<const SharedPlanEntry>)
struct SharedPlanEntry {
  /// The plan as compiled (parameter slots carry the *compiling*
  /// session's bindings — adopters must clone and re-patch).
  std::shared_ptr<const PlannedQuery> planned;
  PlanStamp stamp;
};

class SharedPlanCache {
 public:
  static constexpr size_t kCapacity = 512;

  /// The entry for `key`, or null. No validity judgement — the caller
  /// checks the stamp.
  std::shared_ptr<const SharedPlanEntry> Lookup(const std::string& key) const;

  /// Inserts (or replaces) the entry for `key`, evicting FIFO beyond
  /// kCapacity.
  void Insert(const std::string& key,
              std::shared_ptr<const SharedPlanEntry> entry);

  /// Replaces the entry for `key` with `entry` only while `expected` is
  /// still the cached one (not replaced, not evicted); returns whether it
  /// did.
  bool ReplaceIf(const std::string& key,
                 const std::shared_ptr<const SharedPlanEntry>& expected,
                 std::shared_ptr<const SharedPlanEntry> entry);

  /// Adoption outcome, reported by the prepared layer after checking a
  /// Lookup result; feeds ConcurrencyCounters when attached.
  void RecordHit();
  void RecordMiss();

  void AttachCounters(ConcurrencyCounters* counters) { counters_ = counters; }

  /// One row per cached entry, for the sys$plan_cache system relation:
  /// the cache key plus the entry's stamp shape.
  /// lint: thread-compatible(a value type — Describe builds these copies
  /// under the cache mutex and hands them out by value)
  struct Description {
    std::string key;
    uint64_t stats_epoch = 0;
    size_t relations = 0;  // rel_mods watermarks carried
    /// Emptiness verdicts the stamp carries: every template range plus
    /// every plan-prefix range. A check re-probes the parameter-carrying
    /// ones always, the rest only when their relation's mod count moved.
    size_t param_probes = 0;
  };
  std::vector<Description> Describe() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<const SharedPlanEntry>> entries_
      GUARDED_BY(mu_);
  std::deque<std::string> insertion_order_ GUARDED_BY(mu_);
  /// lint: unguarded(set once by AttachCounters before concurrent use,
  /// read-only afterwards; the pointed-to counters are atomics)
  ConcurrencyCounters* counters_ = nullptr;
};

}  // namespace pascalr

#endif  // PASCALR_CONCURRENCY_PLAN_CACHE_H_
