// StableVector: an append-only sequence with stable element addresses and
// lock-free readers, the storage primitive under the versioned relation
// heap (storage/relation.h).
//
// Elements live in exponentially sized blocks (first block 256 elements,
// each next block twice as large) reached through a small fixed directory
// of atomic pointers, so
//  - existing elements NEVER move (Refs and concurrent readers stay
//    valid across appends, unlike std::vector growth), and
//  - readers need no lock: they bound iteration by the published size
//    (acquire) and the writer publishes a new element only after it is
//    fully constructed (release).
//
// Blocks start at multiples of 256 and hold multiples of 256 elements, so
// an aligned run of 64 elements never straddles two blocks (RunAt). Blocks
// are value-initialised: elements of a trivially constructible type (the
// relation's int64 column mirror) start zeroed, never indeterminate.
//
// Writers must be externally serialised (the owning Relation's latch); the
// reader side is wait-free. Reset() is single-threaded only.

#ifndef PASCALR_BASE_STABLE_VECTOR_H_
#define PASCALR_BASE_STABLE_VECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "base/logging.h"

namespace pascalr {

template <typename T>
class StableVector {
 public:
  static constexpr size_t kFirstBits = 8;  ///< first block: 256 elements
  static constexpr size_t kNumBlocks = 32;

  StableVector() = default;
  ~StableVector() { Reset(); }

  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;

  /// Published element count. Readers must not touch indexes >= size().
  size_t size() const { return size_.load(std::memory_order_acquire); }

  T& operator[](size_t i) { return *Locate(i); }
  const T& operator[](size_t i) const { return *Locate(i); }

  /// Element i as the start of a contiguous run: elements i .. i+63 are
  /// adjacent in memory when i is a multiple of 64, whether or not they
  /// are published yet (the block is allocated whole).
  const T* RunAt(size_t i) const { return Locate(i); }

  /// Writer-only: default-constructs one element (allocating its block if
  /// needed), publishes the new size with release ordering, and returns
  /// the element's index. The caller typically fills the element *before*
  /// flipping whatever visibility stamp readers check — the size
  /// publication alone only guarantees the element is constructed.
  size_t Append() {
    // Relaxed self-reads: writers are externally serialised, so this
    // thread is reading its own prior writes; the release stores below
    // are what publish to readers.
    size_t i = size_.load(std::memory_order_relaxed);
    size_t block, offset;
    Split(i, &block, &offset);
    PASCALR_CHECK_LT(block, kNumBlocks);
    T* base = blocks_[block].load(std::memory_order_relaxed);
    if (base == nullptr) {
      base = new T[BlockCapacity(block)]();
      blocks_[block].store(base, std::memory_order_release);
    }
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  /// Destroys everything. Single-threaded only (legacy Relation::Clear);
  /// never call while any reader may be active.
  void Reset() {
    // Relaxed: single-threaded by contract (see above) — no publication
    // to race with.
    for (size_t b = 0; b < kNumBlocks; ++b) {
      T* base = blocks_[b].load(std::memory_order_relaxed);
      if (base != nullptr) delete[] base;
      blocks_[b].store(nullptr, std::memory_order_relaxed);
    }
    size_.store(0, std::memory_order_release);
  }

 private:
  static constexpr size_t BlockCapacity(size_t block) {
    return static_cast<size_t>(1) << (kFirstBits + block);
  }

  /// Index i lives in block b = floor(log2(i/256 + 1)) at offset
  /// i - 256*(2^b - 1); block b holds 256*2^b elements.
  static void Split(size_t i, size_t* block, size_t* offset) {
    uint64_t x = (static_cast<uint64_t>(i) >> kFirstBits) + 1;
    size_t b = static_cast<size_t>(63 - __builtin_clzll(x));
    *block = b;
    *offset = i - ((((static_cast<uint64_t>(1) << b) - 1)) << kFirstBits);
  }

  T* Locate(size_t i) const {
    size_t block, offset;
    Split(i, &block, &offset);
    T* base = blocks_[block].load(std::memory_order_acquire);
    PASCALR_DCHECK(base != nullptr);
    return base + offset;
  }

  mutable std::atomic<T*> blocks_[kNumBlocks] = {};
  std::atomic<size_t> size_{0};
};

}  // namespace pascalr

#endif  // PASCALR_BASE_STABLE_VECTOR_H_
