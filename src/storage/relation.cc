#include "storage/relation.h"

#include <algorithm>

#include "base/str_util.h"

namespace pascalr {

Relation::Relation(RelationId id, std::string name, Schema schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {
  mirror_column_of_.assign(schema_.num_components(), -1);
  for (size_t pos = 0; pos < schema_.num_components(); ++pos) {
    if (schema_.component(pos).type.kind() == TypeKind::kString) continue;
    mirror_column_of_[pos] = static_cast<int>(mirror_.size());
    mirror_component_.push_back(pos);
    mirror_.push_back(std::make_unique<MirrorCells>());
  }
}

// Unanalyzed: write_mod_ is read latch-free here, but only on the path
// where this thread IS the (serialised) write statement — no other thread
// can be mutating it, and the read is of this thread's own prior writes.
uint64_t Relation::ReadWatermark() const NO_THREAD_SAFETY_ANALYSIS {
  if (concurrency_ != nullptr) {
    // Inside a write statement, the statement reads its own (still
    // unpublished) mutations. Writers are serialised, so write_mod_ is
    // stable for the statement's duration.
    WriteBatch* batch = CurrentWriteBatch();
    if (batch != nullptr && batch->state() == concurrency_) return write_mod_;
    const Snapshot* snap = CurrentSnapshot();
    if (snap != nullptr && snap->origin == concurrency_) {
      return snap->WatermarkFor(id_);
    }
  }
  return published_mod_.load(std::memory_order_acquire);
}

uint64_t Relation::mod_count() const { return ReadWatermark(); }

// Unanalyzed for the same reason as ReadWatermark: live_count_ is read
// latch-free only from inside this thread's own serialised write statement.
size_t Relation::cardinality() const NO_THREAD_SAFETY_ANALYSIS {
  if (concurrency_ != nullptr) {
    WriteBatch* batch = CurrentWriteBatch();
    if (batch != nullptr && batch->state() == concurrency_) {
      return live_count_;
    }
    const Snapshot* snap = CurrentSnapshot();
    if (snap != nullptr && snap->origin == concurrency_) {
      return snap->LiveCountFor(id_);
    }
  }
  return published_live_.load(std::memory_order_acquire);
}

uint32_t Relation::AllocateSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot_index = free_slots_.back();
    free_slots_.pop_back();
    return slot_index;
  }
  // Cells before the slot: a reader that sees the slot published sees
  // the column blocks that cover it.
  for (const auto& column : mirror_) column->Append();
  return static_cast<uint32_t>(slots_.Append());
}

void Relation::WriteMirror(uint32_t slot_index, const Tuple& tuple) {
  for (size_t col = 0; col < mirror_.size(); ++col) {
    int64_t code = 0;
    tuple.at(mirror_component_[col]).Code(&code);
    // Relaxed: published by the caller's `born` release store (or, in
    // legacy mode, by there being no concurrent reader).
    RelaxedStore((*mirror_[col])[slot_index], code);
  }
}

void Relation::AfterMutation() {
  if (serving()) {
    WriteBatch* batch = CurrentWriteBatch();
    if (batch != nullptr && batch->state() == concurrency_) {
      batch->Touch(this);
      return;
    }
  }
  PublishPendingVersions();
}

// Unanalyzed: called either under latch_ (AfterMutation) or latch-free
// from WriteBatch::Commit under commit_mu — where the writer-side fields
// are quiescent because the owning statement has finished mutating and
// writers are serialised on the database write mutex.
void Relation::PublishPendingVersions() NO_THREAD_SAFETY_ANALYSIS {
  published_live_.store(live_count_, std::memory_order_release);
  published_mod_.store(write_mod_, std::memory_order_release);
}

Result<Ref> Relation::Insert(Tuple tuple) {
  PASCALR_RETURN_IF_ERROR(schema_.ValidateTuple(tuple));
  Tuple key = schema_.KeyOf(tuple);
  WriterMutexLock latch(latch_);
  auto it = key_to_slot_.find(key);
  uint32_t prev_head = kNoSlot;
  if (it != key_to_slot_.end()) {
    // A map entry may be a tombstone head (serving mode keeps dead chains
    // reachable for snapshot readers); only a version visible to this
    // writer makes the key a duplicate.
    if (VisibleAt(slots_[it->second], write_mod_)) {
      return Status::AlreadyExists("relation '" + name_ +
                                   "' already contains key " + key.ToString());
    }
    prev_head = it->second;
  }
  const uint64_t mod = write_mod_ + 1;
  const uint32_t slot_index = AllocateSlot();
  Slot& slot = slots_[slot_index];
  WriteMirror(slot_index, tuple);
  slot.tuple = std::move(tuple);
  ++slot.generation;
  slot.prev = prev_head;
  RelaxedStore(slot.died, kNeverDies);  // ordered by the born release below
  // The born stamp goes last: it is what makes the fully constructed
  // version reachable to lock-free scans.
  slot.born.store(mod, std::memory_order_release);
  if (it != key_to_slot_.end()) {
    it->second = slot_index;
  } else {
    key_to_slot_.emplace(std::move(key), slot_index);
  }
  write_mod_ = mod;
  ++live_count_;
  if (serving()) delta_.NoteAppend();
  AfterMutation();
  return Ref{id_, slot_index, slot.generation};
}

Result<Ref> Relation::Upsert(Tuple tuple) {
  PASCALR_RETURN_IF_ERROR(schema_.ValidateTuple(tuple));
  Tuple key = schema_.KeyOf(tuple);
  WriterMutexLock latch(latch_);
  auto it = key_to_slot_.find(key);
  if (it == key_to_slot_.end() ||
      !VisibleAt(slots_[it->second], write_mod_)) {
    latch.Release();
    return Insert(std::move(tuple));
  }
  const uint32_t old_index = it->second;
  if (!serving()) {
    // Legacy: replace in place. The element identity (key) is unchanged;
    // existing refs stay valid.
    Slot& slot = slots_[old_index];
    WriteMirror(old_index, tuple);
    slot.tuple = std::move(tuple);
    ++write_mod_;
    AfterMutation();
    return Ref{id_, old_index, slot.generation};
  }
  // Serving: retire the current version and chain a replacement, so any
  // snapshot captured before this statement commits keeps reading the old
  // tuple.
  const uint64_t mod = write_mod_ + 1;
  const uint32_t slot_index = AllocateSlot();
  Slot& slot = slots_[slot_index];
  WriteMirror(slot_index, tuple);
  slot.tuple = std::move(tuple);
  ++slot.generation;
  slot.prev = old_index;
  RelaxedStore(slot.died, kNeverDies);  // ordered by the born release below
  slot.born.store(mod, std::memory_order_release);
  slots_[old_index].died.store(mod, std::memory_order_release);
  if (old_index < delta_.base_size()) delta_.NoteBaseDelete();
  it->second = slot_index;
  write_mod_ = mod;
  delta_.NoteAppend();
  AfterMutation();
  return Ref{id_, slot_index, slot.generation};
}

Status Relation::EraseByKey(const Tuple& key) {
  WriterMutexLock latch(latch_);
  auto it = key_to_slot_.find(key);
  if (it == key_to_slot_.end() ||
      !VisibleAt(slots_[it->second], write_mod_)) {
    return Status::NotFound("relation '" + name_ + "' has no key " +
                            key.ToString());
  }
  const uint32_t slot_index = it->second;
  const uint64_t mod = write_mod_ + 1;
  Slot& slot = slots_[slot_index];
  slot.died.store(mod, std::memory_order_release);
  if (serving()) {
    // Keep the map entry as a tombstone head: snapshot readers walk the
    // chain from it, and a later insert of the same key links through it.
    if (slot_index < delta_.base_size()) delta_.NoteBaseDelete();
  } else {
    // Legacy: free the slot immediately for reuse. The free-slot `born`
    // sentinel keeps a later CompactVersions from freeing it twice.
    key_to_slot_.erase(it);
    slot.tuple = Tuple();
    slot.prev = kNoSlot;
    RelaxedStore(slot.born, kNeverVisible);
    free_slots_.push_back(slot_index);
  }
  write_mod_ = mod;
  --live_count_;
  AfterMutation();
  return Status::OK();
}

Status Relation::EraseByRef(const Ref& ref) {
  Tuple key;
  {
    ReaderMutexLock latch(latch_);
    if (ref.relation != id_ || ref.slot >= slots_.size()) {
      return Status::NotFound("dangling or foreign reference " +
                              ref.ToString());
    }
    const Slot& slot = slots_[ref.slot];
    if (!VisibleAt(slot, write_mod_) || slot.generation != ref.generation) {
      return Status::NotFound("dangling or foreign reference " +
                              ref.ToString());
    }
    key = schema_.KeyOf(slot.tuple);
  }
  return EraseByKey(key);
}

Result<Ref> Relation::RefByKey(const Tuple& key) const {
  const uint64_t watermark = ReadWatermark();
  ReaderMutexLock latch(latch_);
  auto it = key_to_slot_.find(key);
  uint32_t slot_index = it == key_to_slot_.end() ? kNoSlot : it->second;
  while (slot_index != kNoSlot) {
    const Slot& slot = slots_[slot_index];
    if (VisibleAt(slot, watermark)) {
      return Ref{id_, slot_index, slot.generation};
    }
    slot_index = slot.prev;
  }
  return Status::NotFound("relation '" + name_ + "' has no key " +
                          key.ToString());
}

Result<const Tuple*> Relation::SelectByKey(const Tuple& key) const {
  const uint64_t watermark = ReadWatermark();
  ReaderMutexLock latch(latch_);
  auto it = key_to_slot_.find(key);
  uint32_t slot_index = it == key_to_slot_.end() ? kNoSlot : it->second;
  while (slot_index != kNoSlot) {
    const Slot& slot = slots_[slot_index];
    if (VisibleAt(slot, watermark)) return &slot.tuple;
    slot_index = slot.prev;
  }
  return Status::NotFound("relation '" + name_ + "' has no key " +
                          key.ToString());
}

Result<const Tuple*> Relation::Deref(const Ref& ref) const {
  if (ref.relation != id_) {
    return Status::InvalidArgument(
        StrFormat("reference into relation %u dereferenced against '%s' (%u)",
                  ref.relation, name_.c_str(), id_));
  }
  const uint64_t watermark = ReadWatermark();
  if (ref.slot >= slots_.size()) {
    return Status::NotFound("dangling reference " + ref.ToString() +
                            " into relation '" + name_ + "'");
  }
  const Slot& slot = slots_[ref.slot];
  if (!VisibleAt(slot, watermark) || slot.generation != ref.generation) {
    return Status::NotFound("dangling reference " + ref.ToString() +
                            " into relation '" + name_ + "'");
  }
  return &slot.tuple;
}

bool Relation::IsLive(const Ref& ref) const {
  if (ref.relation != id_ || ref.slot >= slots_.size()) return false;
  const Slot& slot = slots_[ref.slot];
  return VisibleAt(slot, ReadWatermark()) && slot.generation == ref.generation;
}

void Relation::Scan(
    const std::function<bool(const Ref&, const Tuple&)>& visit) const {
  const uint64_t watermark = ReadWatermark();
  const size_t published_size = slots_.size();
  ConcurrencyCounters* counters =
      serving() ? &concurrency_->counters : nullptr;
  delta_.MergeScan(published_size, counters, [&](size_t i) {
    const Slot& slot = slots_[i];
    if (!VisibleAt(slot, watermark)) return true;
    return visit(Ref{id_, static_cast<uint32_t>(i), slot.generation},
                 slot.tuple);
  });
}

void Relation::ScanWords(
    const std::function<bool(const SlotWord&)>& visit) const {
  const uint64_t watermark = ReadWatermark();
  const size_t published_size = slots_.size();
  // Slot order is base region then delta (MergeScan), i.e. index order;
  // the delta merge is counted when the first word reaching it is read.
  const size_t boundary = std::min(delta_.base_size(), published_size);
  ConcurrencyCounters* counters =
      serving() && published_size > boundary ? &concurrency_->counters
                                             : nullptr;
  SlotWord word;
  word.rel_ = this;
  for (size_t base = 0; base < published_size; base += kWordSlots) {
    const size_t n = std::min(kWordSlots, published_size - base);
    if (counters != nullptr && base + n > boundary) {
      RelaxedFetchAdd(counters->delta_merges, 1);  // pure tally
      counters = nullptr;
    }
    const Slot* slots = slots_.RunAt(base);
    // The acquire loads of `born` order this word's cell and tuple reads
    // after the writes that made each version visible.
    uint64_t visible = 0;
    for (size_t j = 0; j < n; ++j) {
      visible |= static_cast<uint64_t>(VisibleAt(slots[j], watermark)) << j;
    }
    if (visible == 0) continue;
    word.slots_ = slots;
    word.base_ = base;
    word.visible_ = visible;
    if (!visit(word)) return;
  }
}

std::vector<Ref> Relation::AllRefs() const {
  std::vector<Ref> out;
  out.reserve(cardinality());
  Scan([&](const Ref& r, const Tuple&) {
    out.push_back(r);
    return true;
  });
  return out;
}

void Relation::Clear() {
  WriterMutexLock latch(latch_);
  if (!serving()) {
    slots_.Reset();
    for (const auto& column : mirror_) column->Reset();
    free_slots_.clear();
    key_to_slot_.clear();
    live_count_ = 0;
    ++write_mod_;
    AfterMutation();
    return;
  }
  // Serving: one mass delete — every currently visible version is stamped
  // dead at one mod; snapshots captured earlier keep reading everything.
  const uint64_t mod = write_mod_ + 1;
  for (const auto& [key, head] : key_to_slot_) {
    (void)key;
    Slot& slot = slots_[head];
    if (!VisibleAt(slot, write_mod_)) continue;
    slot.died.store(mod, std::memory_order_release);
    if (head < delta_.base_size()) delta_.NoteBaseDelete();
  }
  write_mod_ = mod;
  live_count_ = 0;
  AfterMutation();
}

size_t Relation::CompactVersions() {
  // Fully exclusive (Database write mutex + registry quiesce): plain
  // stores, no readers to race with.
  WriterMutexLock latch(latch_);
  const uint64_t published = RelaxedLoad(published_mod_);
  const size_t size = slots_.size();
  // Drop map heads whose whole chain is dead; cut surviving chains.
  for (auto it = key_to_slot_.begin(); it != key_to_slot_.end();) {
    if (RelaxedLoad(slots_[it->second].died) <= published) {
      it = key_to_slot_.erase(it);
    } else {
      ++it;
    }
  }
  size_t retired = 0;
  for (size_t i = 0; i < size; ++i) {
    Slot& slot = slots_[i];
    if (RelaxedLoad(slot.born) == kNeverVisible) {
      continue;  // already free
    }
    if (RelaxedLoad(slot.died) <= published) {
      slot.tuple = Tuple();
      ++slot.generation;  // stale refs detect the reclamation
      slot.prev = kNoSlot;
      RelaxedStore(slot.died, kNeverDies);
      RelaxedStore(slot.born, kNeverVisible);
      free_slots_.push_back(static_cast<uint32_t>(i));
      ++retired;
    } else {
      // Every predecessor version is dead by definition (prev is always
      // older); the chain is no longer needed.
      slot.prev = kNoSlot;
    }
  }
  delta_.Compacted(size, published);
  return retired;
}

std::string Relation::DebugString(size_t max_elements) const {
  std::string out =
      StrFormat("%s (%zu elements): ", name_.c_str(), cardinality());
  size_t shown = 0;
  Scan([&](const Ref&, const Tuple& t) {
    if (shown == max_elements) {
      out += "...";
      return false;
    }
    if (shown > 0) out += ", ";
    out += t.ToString();
    ++shown;
    return true;
  });
  return out;
}

}  // namespace pascalr
