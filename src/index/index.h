// ComponentIndex: an index from one component's value to the references of
// the elements holding that value (paper §3.2, Figure 2: ind_t_cnr etc.).
//
// Indexes are built either permanently (Example 3.1's enrindex) or
// transiently during the collection phase, and are probed with any of the
// six comparison operators: Probe(op, x) yields every ref whose *stored*
// value v satisfies `v op x`. Each is built in one step and then only
// probed: Add, Add, ..., Seal, then Probe. A probe needs a Seal after the
// last Add; both index kinds fail a CHECK on a probe of unsealed entries.
// A sealed index is read-only, so a permanent index is shared by
// concurrent readers without a lock.

#ifndef PASCALR_INDEX_INDEX_H_
#define PASCALR_INDEX_INDEX_H_

#include <functional>
#include <memory>
#include <string>

#include "storage/ref.h"
#include "value/value.h"

namespace pascalr {

class ComponentIndex {
 public:
  virtual ~ComponentIndex() = default;

  /// Registers `ref` under value `v`. Duplicate (v, ref) pairs collapse
  /// by the next Seal.
  virtual void Add(const Value& v, const Ref& ref) = 0;

  /// Ends a build: every Add since the last Seal becomes visible to
  /// probes. A build is one collection pass or one permanent (re)build;
  /// indexes that need no finishing step ignore it.
  virtual void Seal() {}

  /// Number of distinct (value, ref) entries; read it after a Seal.
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Visits every ref whose stored value v satisfies `v op probe`.
  /// Returning false from the visitor stops early.
  virtual void Probe(CompareOp op, const Value& probe,
                     const std::function<bool(const Ref&)>& visit) const = 0;

  /// True if some stored value v satisfies `v op probe` (semi-join test).
  /// Indexes with a cheaper direct answer override it.
  virtual bool ProbeAny(CompareOp op, const Value& probe) const {
    bool found = false;
    Probe(op, probe, [&](const Ref&) {
      found = true;
      return false;
    });
    return found;
  }

  virtual std::string name() const = 0;
};

struct ValueHash {
  uint64_t operator()(const Value& v) const { return v.Hash(); }
};

/// The key of `v` in the hashed structures (HashIndex, ValueList's full
/// mode): its Value::Code for an int, enum or bool, so one key is one
/// value and a key match needs no Compare; Value::Hash() for a string,
/// whose entries keep the value to tell colliding strings apart. Returns
/// whether `v` is coded.
inline bool HashKey(const Value& v, uint64_t* key) {
  int64_t code;
  if (v.Code(&code)) {
    *key = static_cast<uint64_t>(code);
    return true;
  }
  *key = v.Hash();
  return false;
}

}  // namespace pascalr

#endif  // PASCALR_INDEX_INDEX_H_
