// Relation: a variable-size set of identically structured elements with a
// declared key (paper §2). Storage is an in-memory slotted heap: slots are
// stable across unrelated inserts/deletes, so Refs remain valid until their
// element is deleted. A built-in hash map from key to slot implements the
// key-oriented selector rel[keyval] (paper §3.1).
//
// Concurrency (src/concurrency/): every slot is a *version* stamped with
// the mod counts it was born at and died at, and readers resolve
// visibility against a watermark — the ambient Snapshot's captured mod
// count, or the relation's published mod count when no snapshot is
// installed. The slot heap is a StableVector (stable addresses, atomic
// published size), so Scan / AllRefs / Deref are entirely lock-free: a
// reader never blocks behind a writer, and a writer publishes a version
// only after it is fully constructed (born stamp is store-released last).
// Key lookups share the key-map latch with mutators — held per operation,
// never across a statement. The DeltaLayer tracks the slots appended or
// killed since the last compaction; Database::Compact reclaims dead
// versions under the SnapshotRegistry's exclusive quiesce.
//
// Two behavioural modes, switched by ConcurrencyState::serving:
//  - legacy (default, every single-threaded test): in-place Upsert keeps
//    existing Refs valid, deletes free their slot immediately, freed slots
//    are reused — byte-identical behaviour to the pre-concurrency engine.
//  - serving (SessionManager / EnableConcurrentServing): Upsert and
//    EraseByKey append/stamp versions instead of destroying state that a
//    concurrent snapshot may still read; publication of a statement's
//    stamps is deferred to its WriteBatch commit, so a snapshot observes
//    either all of a statement's effects or none.
//
// Column mirror. Beside the row store, every relation keeps one int64
// column per int, enum and bool component, indexed by slot: each cell is
// its value's Value::Code (ints as they are, enum ordinals, bools as
// 0/1). Strings get no column (no workload
// filters on them yet, so dictionary coding waits). The collection kernel
// (exec/collection.cc) reads it 64 slots at a time through ScanWords. The
// protocol:
//  - each column is a StableVector with the slot heap's block geometry,
//    appended before the slot itself, so a 64-slot word never straddles a
//    block and a reader that sees a slot also sees its column blocks;
//  - a slot's cells are written under the latch wherever its tuple is
//    (Insert, both Upsert paths, legacy in place included), and before
//    the `born` release store, so a reader whose acquire load of `born`
//    finds the version visible reads its cells, not a previous tenant's;
//  - cells are zero-initialised atomics read with relaxed loads: the
//    kernel reads whole words, cells of invisible slots included, and in
//    serving mode a writer may be filling a reused slot meanwhile. The
//    visibility word masks every such cell out;
//  - Clear resets the columns with the heap; compaction needs nothing
//    (a reclaimed slot is invisible, and reuse rewrites its cells).

#ifndef PASCALR_STORAGE_RELATION_H_
#define PASCALR_STORAGE_RELATION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/atomic_util.h"
#include "base/mutex.h"
#include "base/stable_vector.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "concurrency/delta.h"
#include "concurrency/snapshot.h"
#include "storage/ref.h"
#include "value/schema.h"
#include "value/tuple.h"

namespace pascalr {

class Relation {
 private:
  struct Slot;

 public:
  Relation(RelationId id, std::string name, Schema schema);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  RelationId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of elements visible at the caller's watermark: the ambient
  /// snapshot's captured count, or the published count otherwise (within
  /// a write statement, the statement's own pending mutations count).
  size_t cardinality() const;
  bool empty() const { return cardinality() == 0; }

  /// Monotonic counter bumped by every successful mutation; the catalog
  /// uses it to detect stale permanent indexes and it doubles as the
  /// version clock for snapshot visibility. Ambient-aware like
  /// cardinality(): under a snapshot it reports the captured watermark,
  /// inside a write statement the statement's own (unpublished) count.
  uint64_t mod_count() const;

  /// The last *published* mod count — what a snapshot captured now would
  /// record as this relation's watermark.
  uint64_t published_mod() const {
    return published_mod_.load(std::memory_order_acquire);
  }

  /// The published live-element count (pairs with published_mod()); what a
  /// snapshot captured now would record as this relation's cardinality.
  size_t published_live() const {
    return published_live_.load(std::memory_order_acquire);
  }

  /// PASCAL/R `:+` — inserts one element. Rejects schema violations and
  /// duplicate keys (relations are sets keyed by the declared key).
  Result<Ref> Insert(Tuple tuple);

  /// Inserts, replacing any existing element with the same key (PASCAL/R
  /// assignment-style update). Returns the ref of the stored element.
  /// Legacy mode replaces in place (existing refs stay valid); serving
  /// mode appends a new version, so refs to the old version dangle once
  /// the replacement publishes.
  Result<Ref> Upsert(Tuple tuple);

  /// PASCAL/R `:-` — deletes the element with the given key.
  Status EraseByKey(const Tuple& key);

  /// Deletes the element a ref points to (generation-checked).
  Status EraseByRef(const Ref& ref);

  /// @rel[keyval]: the reference to the element with key `key`.
  Result<Ref> RefByKey(const Tuple& key) const;

  /// rel[keyval]: the element with key `key`.
  Result<const Tuple*> SelectByKey(const Tuple& key) const;

  /// r@ — dereference. Fails with NotFound on dangling refs (deleted or
  /// reused slot) and InvalidArgument on refs of other relations.
  Result<const Tuple*> Deref(const Ref& ref) const;

  /// True if `ref` currently names a visible element of this relation.
  bool IsLive(const Ref& ref) const;

  /// One-element-at-a-time scan (paper §4.1's "reading the relation") of
  /// the versions visible at the caller's watermark, in slot order (base
  /// region, then the delta region — see concurrency/delta.h). The
  /// visitor receives each visible element and its ref; returning false
  /// stops the scan early. Lock-free.
  void Scan(const std::function<bool(const Ref&, const Tuple&)>& visit) const;

  /// All visible refs in slot order.
  std::vector<Ref> AllRefs() const;

  // ---- column mirror (see the file comment) ----------------------------

  /// Slots per word of ScanWords: one bit of a uint64_t selection each.
  static constexpr size_t kWordSlots = 64;

  /// The mirror column of component `pos`, or -1 for a string component.
  int MirrorColumn(size_t pos) const { return mirror_column_of_[pos]; }

  /// 64 consecutive slots, as ScanWords hands them to its visitor.
  class SlotWord {
   public:
    /// Slot index of bit 0; a multiple of kWordSlots.
    size_t base() const { return base_; }
    /// Bit j is set iff slot base()+j is visible at the scan's watermark.
    uint64_t visible() const { return visible_; }
    /// The 64 cells of mirror column `column` over this word. Read them
    /// with relaxed loads only; a cell counts only under a visible bit.
    const std::atomic<int64_t>* Cells(int column) const {
      return rel_->mirror_[static_cast<size_t>(column)]->RunAt(base_);
    }
    /// Ref and tuple of slot base()+j; only for a visible bit j.
    inline Ref RefAt(unsigned j) const;
    inline const Tuple& TupleAt(unsigned j) const;

   private:
    friend class Relation;
    const Relation* rel_ = nullptr;
    const Slot* slots_ = nullptr;
    size_t base_ = 0;
    uint64_t visible_ = 0;
  };

  /// Scan a word at a time: the same versions in the same slot order,
  /// counting the same delta merge. `visit` receives every word of the
  /// published heap that holds a visible version; returning false stops
  /// the scan. Lock-free. The collection kernel's only way in.
  void ScanWords(const std::function<bool(const SlotWord&)>& visit) const;

  /// Removes every element. Legacy mode releases all storage; serving
  /// mode stamps every visible version dead (snapshots keep reading).
  void Clear();

  std::string DebugString(size_t max_elements = 16) const;

  // ---- concurrency plumbing (Database / WriteBatch / compaction) ------

  /// Attaches the owning Database's shared concurrency state. Relations
  /// constructed standalone (unit tests) stay unattached and permanently
  /// legacy-mode.
  void AttachConcurrency(ConcurrencyState* state) { concurrency_ = state; }

  /// Makes every stamp this relation's pending statement wrote visible to
  /// new watermarks. Called by WriteBatch::Commit under commit_mu.
  void PublishPendingVersions();

  /// Reclaims every version dead at the published watermark: payload
  /// freed, generation bumped (stale refs detect), slot returned to the
  /// free list; surviving versions' chains are cut and the delta folds
  /// into the base. Caller must hold the Database write mutex AND the
  /// registry quiesce (no concurrent readers or writers). Returns the
  /// number of versions retired.
  size_t CompactVersions();

  const DeltaLayer& delta() const { return delta_; }

 private:
  /// One version of one element. `born`/`died` are mod-count stamps:
  /// the version is visible at watermark w iff born <= w < died. `prev`
  /// chains to the previous version of the same key (kNoSlot when none),
  /// so key lookups under an old snapshot can walk back to the version
  /// that was current then.
  struct Slot {
    Tuple tuple;
    uint32_t generation = 0;
    uint32_t prev = kNoSlot;
    std::atomic<uint64_t> born{kNeverVisible};
    std::atomic<uint64_t> died{kNeverDies};
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Sentinel `born` of a free / mid-construction slot: no watermark
  /// reaches it, so lock-free readers skip the slot without touching its
  /// tuple or generation.
  static constexpr uint64_t kNeverVisible = UINT64_MAX;
  static constexpr uint64_t kNeverDies = UINT64_MAX;

  static bool VisibleAt(const Slot& slot, uint64_t watermark) {
    if (slot.born.load(std::memory_order_acquire) > watermark) return false;
    return slot.died.load(std::memory_order_acquire) > watermark;
  }

  bool serving() const {
    // Relaxed: the serving flip happens before concurrent sessions exist.
    return concurrency_ != nullptr && RelaxedLoad(concurrency_->serving);
  }

  /// The watermark this thread reads at (snapshot / write-statement /
  /// published) — the value mod_count() reports.
  uint64_t ReadWatermark() const;

  /// Pops a free slot or appends a fresh one (its mirror cells first).
  uint32_t AllocateSlot() REQUIRES(latch_);

  /// Writes the mirror cells of slot `slot_index` from `tuple`. Callers
  /// run it before the slot's `born` release store.
  void WriteMirror(uint32_t slot_index, const Tuple& tuple) REQUIRES(latch_);

  /// Mutation epilogue: hand the pending publication to the ambient
  /// WriteBatch (serving mode inside a statement) or publish immediately.
  void AfterMutation() REQUIRES(latch_);

  RelationId id_;
  std::string name_;
  Schema schema_;
  /// Deliberately unguarded: stable addresses + atomic published size +
  /// the born/died release protocol make slot reads lock-free (see file
  /// comment); mutators touch it only under latch_.
  StableVector<Slot> slots_;
  /// The column mirror, unguarded on the same terms as slots_: one column
  /// per int/enum/bool component, each as long as slots_ or longer.
  using MirrorCells = StableVector<std::atomic<int64_t>>;
  std::vector<std::unique_ptr<MirrorCells>> mirror_;
  /// By component position: its mirror column, or -1 for a string.
  std::vector<int> mirror_column_of_;
  /// By mirror column: its component position.
  std::vector<size_t> mirror_component_;
  std::vector<uint32_t> free_slots_ GUARDED_BY(latch_);
  /// Key -> head of its version chain (latest version, live or dead).
  /// Mutators exclusive, key lookups shared.
  std::unordered_map<Tuple, uint32_t, TupleHash> key_to_slot_
      GUARDED_BY(latch_);
  mutable SharedMutex latch_;

  /// Writer-side state (current, incl. unpublished). Guarded by latch_
  /// for mutators; ReadWatermark/cardinality also read them latch-free
  /// from inside the serialised write statement (see relation.cc).
  size_t live_count_ GUARDED_BY(latch_) = 0;
  uint64_t write_mod_ GUARDED_BY(latch_) = 0;
  std::atomic<size_t> published_live_{0};
  std::atomic<uint64_t> published_mod_{0};

  DeltaLayer delta_;
  ConcurrencyState* concurrency_ = nullptr;
};

Ref Relation::SlotWord::RefAt(unsigned j) const {
  return Ref{rel_->id_, static_cast<uint32_t>(base_ + j),
             slots_[j].generation};
}

const Tuple& Relation::SlotWord::TupleAt(unsigned j) const {
  return slots_[j].tuple;
}

}  // namespace pascalr

#endif  // PASCALR_STORAGE_RELATION_H_
