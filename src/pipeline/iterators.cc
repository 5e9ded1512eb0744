#include "pipeline/iterators.h"

#include <algorithm>

#include "base/str_util.h"
#include "refstruct/division.h"
#include "refstruct/ops.h"

namespace pascalr {

namespace {

uint64_t HashKey(RowView row, const std::vector<int>& positions) {
  uint64_t h = 0x100001b3ULL;
  for (int p : positions) {
    h = HashCombine(h, row[static_cast<size_t>(p)].Hash());
  }
  return h;
}

uint64_t HashKeyChunk(const Chunk& chunk, size_t row,
                      const std::vector<int>& positions) {
  uint64_t h = 0x100001b3ULL;
  for (int p : positions) {
    h = HashCombine(h, chunk.cols[static_cast<size_t>(p)][row].Hash());
  }
  return h;
}

bool KeyEqualsChunk(const Chunk& chunk, size_t row,
                    const std::vector<int>& pa, RowView b,
                    const std::vector<int>& pb) {
  for (size_t i = 0; i < pa.size(); ++i) {
    if (chunk.cols[static_cast<size_t>(pa[i])][row] !=
        b[static_cast<size_t>(pb[i])]) {
      return false;
    }
  }
  return true;
}

/// Drains `source` to exhaustion into `*into` (set semantics) and
/// registers the distinct rows with `tracker`; returns how many there
/// were. The quantifier tail buffers its division input this way.
Result<uint64_t> DrainDistinct(RefIterator* source, RefRelation* into,
                               PeakTracker* tracker) {
  Chunk chunk;
  RefRow row;
  uint64_t added = 0;
  while (true) {
    PASCALR_ASSIGN_OR_RETURN(bool more, source->NextBatch(&chunk));
    if (!more) return added;
    uint64_t fresh = 0;
    for (size_t r = 0; r < chunk.rows; ++r) {
      chunk.RowAt(r, &row);
      if (into->Add(row)) ++fresh;
    }
    if (tracker != nullptr) tracker->Add(fresh);
    added += fresh;
  }
}

/// Writes rows [pos, pos + take) of `rows` into `out`'s columns (`out`
/// already Reset to the span's arity): one pass over the flat rows, each
/// source row read exactly once, no per-row allocation.
void GatherRows(RowSpan rows, size_t pos, size_t take, Chunk* out) {
  const size_t arity = rows.arity();
  for (size_t c = 0; c < arity; ++c) out->cols[c].resize(take);
  if (arity == 1) {
    Ref* dst = out->cols[0].data();
    for (size_t r = 0; r < take; ++r) dst[r] = rows[pos + r][0];
  } else {
    for (size_t r = 0; r < take; ++r) {
      const RowView row = rows[pos + r];
      for (size_t c = 0; c < arity; ++c) out->cols[c][r] = row[c];
    }
  }
  out->rows = take;
}

}  // namespace

Result<bool> UnitIter::NextBatch(Chunk* out) {
  out->Reset(0);
  if (done_) return false;
  done_ = true;
  out->rows = 1;
  return true;
}

Result<bool> ScanIter::NextBatch(Chunk* out) {
  out->Reset(rel_->arity());
  const size_t take = std::min(out->capacity, rel_->size() - pos_);
  if (take == 0) return false;
  GatherRows(rel_->rows(), pos_, take, out);
  pos_ += take;
  return true;
}

// ------------------------------------------------------------ ProbeJoinIter

ProbeJoinIter::ProbeJoinIter(RefIteratorPtr left, const RefRelation* right,
                             std::vector<int> left_key,
                             std::vector<int> right_key,
                             std::vector<int> right_extras, bool semi,
                             ExecStats* stats)
    : left_(std::move(left)),
      right_(right),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      right_extras_(std::move(right_extras)),
      semi_(semi),
      stats_(stats) {}

void ProbeJoinIter::Prepare() {
  if (!left_key_.empty()) {
    table_.Reserve(right_->size());
    for (const RowView row : right_->rows()) {
      table_.Insert(HashKey(row, right_key_));
    }
  }
  prepared_ = true;
}

void ProbeJoinIter::Emit(size_t l, RowView right_row, Chunk* out) {
  const size_t left_arity = left_chunk_.arity();
  for (size_t c = 0; c < left_arity; ++c) {
    out->cols[c].push_back(left_chunk_.cols[c][l]);
  }
  if (!semi_) {
    for (size_t e = 0; e < right_extras_.size(); ++e) {
      out->cols[left_arity + e].push_back(
          right_row[static_cast<size_t>(right_extras_[e])]);
    }
  }
  ++out->rows;
  if (stats_ != nullptr) ++stats_->combination_rows;
}

Result<bool> ProbeJoinIter::NextBatch(Chunk* out) {
  if (!prepared_) Prepare();
  const size_t extras = semi_ ? 0 : right_extras_.size();
  // The chunk contract requires a full overwrite on every pull: start
  // from an empty chunk so rows from the previous pull can never leak
  // into this one when the left child turns out to be exhausted.
  // `have_left_` marks a left row whose match chain is mid-emission
  // (the previous output chunk filled up); everything else restarts
  // from the left chunk cursor.
  bool sized = left_chunk_.rows > 0 || have_left_;
  out->Reset(sized ? left_chunk_.arity() + extras : out->arity());
  while (!out->full()) {
    if (!have_left_) {
      if (left_pos_ >= left_chunk_.rows) {
        left_chunk_.capacity = out->capacity;
        PASCALR_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_chunk_));
        if (!more) break;
        left_pos_ = 0;
        if (!sized) {
          sized = true;
          out->Reset(left_chunk_.arity() + extras);
        }
      }
      match_pos_ = 0;
      if (!left_key_.empty()) {
        match_row_ =
            table_.Find(HashKeyChunk(left_chunk_, left_pos_, left_key_));
      }
      have_left_ = true;
    }
    const size_t l = left_pos_;
    if (left_key_.empty()) {
      // Cartesian step. Semi: the right side only needs to be non-empty.
      if (semi_) {
        if (!right_->empty()) Emit(l, RowView(), out);
      } else {
        while (match_pos_ < right_->size() && !out->full()) {
          Emit(l, (*right_)[match_pos_++], out);
        }
        if (match_pos_ < right_->size()) continue;  // out full, row pending
      }
    } else {
      // Walk the probe hash's row-id chain in the right structure,
      // verifying the full key against hash collisions.
      bool emitted_semi = false;
      while (match_row_ != RowIdTable::kNone && !out->full()) {
        const RowView candidate = (*right_)[match_row_];
        match_row_ = table_.Next(match_row_);
        if (!KeyEqualsChunk(left_chunk_, l, left_key_, candidate,
                            right_key_)) {
          continue;
        }
        Emit(l, candidate, out);
        if (semi_) {
          emitted_semi = true;
          break;  // first match wins; next left row
        }
      }
      if (!emitted_semi && match_row_ != RowIdTable::kNone) {
        continue;  // out full mid-chain, left row stays pending
      }
    }
    have_left_ = false;
    ++left_pos_;
  }
  return out->rows > 0;
}

// --------------------------------------------------------------- ExtendIter

Result<bool> ExtendIter::NextBatch(Chunk* out) {
  const std::vector<Ref>& refs = *refs_;
  if (refs.empty()) {
    out->Reset(out->arity());
    return false;  // product with an empty range
  }
  // Full overwrite on every pull: without this, an exhausted child
  // (whose chunk was zeroed by its own final refill) leaves `sized`
  // false and the previous pull's rows would be returned again.
  out->Reset(out->arity());
  bool sized = child_chunk_.rows > 0;
  if (sized) out->Reset(child_chunk_.arity() + 1);
  while (!out->full()) {
    if (child_pos_ >= child_chunk_.rows) {
      if (pos_ != 0 && pos_ < refs.size()) break;  // mid-row, cannot refill
      child_chunk_.capacity = out->capacity;
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
      if (!more) break;
      child_pos_ = 0;
      pos_ = 0;
      if (!sized) {
        sized = true;
        out->Reset(child_chunk_.arity() + 1);
      }
    }
    const size_t arity = child_chunk_.arity();
    while (child_pos_ < child_chunk_.rows && !out->full()) {
      // One child row × the range: replicate the row per ref in tight
      // column loops.
      const size_t take = std::min(refs.size() - pos_,
                                   out->capacity - out->rows);
      for (size_t c = 0; c < arity; ++c) {
        const Ref v = child_chunk_.cols[c][child_pos_];
        std::vector<Ref>& col = out->cols[c];
        col.insert(col.end(), take, v);
      }
      out->cols[arity].insert(out->cols[arity].end(), refs.begin() + pos_,
                              refs.begin() + pos_ + take);
      out->rows += take;
      if (stats_ != nullptr) stats_->combination_rows += take;
      pos_ += take;
      if (pos_ >= refs.size()) {
        pos_ = 0;
        ++child_pos_;
      }
    }
  }
  return out->rows > 0;
}

// --------------------------------------------------------------- FilterIter

Result<bool> FilterIter::NextBatch(Chunk* out) {
  // The vectorized reference shape: evaluate the predicate over the
  // child chunk into a selection vector, then gather the survivors
  // column-by-column. Emits one (possibly short) chunk per child chunk;
  // an all-filtered chunk loops for the next.
  while (true) {
    child_chunk_.capacity = out->capacity;
    PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
    if (!more) {
      out->Reset(out->arity());
      return false;
    }
    sel_.clear();
    if (member_of_ != nullptr) {
      // Vectorized membership: hash the key columns in bulk (one tight
      // loop per column over the chunk), then probe with the precomputed
      // hash — the per-row work left is the index probe itself.
      const size_t n = child_chunk_.rows;
      hashes_.assign(n, RefRelation::kRowHashSeed);
      for (int pos : key_pos_) {
        const Ref* col = child_chunk_.cols[static_cast<size_t>(pos)].data();
        for (size_t r = 0; r < n; ++r) {
          hashes_[r] = HashCombine(hashes_[r], col[r].Hash());
        }
      }
      key_.resize(key_pos_.size());
      for (size_t r = 0; r < n; ++r) {
        for (size_t i = 0; i < key_pos_.size(); ++i) {
          key_[i] = child_chunk_.cols[static_cast<size_t>(key_pos_[i])][r];
        }
        if (member_of_->ContainsPrehashed(hashes_[r], key_)) {
          sel_.push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      const std::vector<Ref>& a =
          child_chunk_.cols[static_cast<size_t>(left_pos_)];
      const std::vector<Ref>& b =
          child_chunk_.cols[static_cast<size_t>(right_pos_)];
      for (size_t r = 0; r < child_chunk_.rows; ++r) {
        if ((a[r] == b[r]) == equal_) sel_.push_back(static_cast<uint32_t>(r));
      }
    }
    if (stats_ != nullptr) {
      stats_->comparisons += child_chunk_.rows;
      // Membership mode replaces a semi probe-join: survivors are its
      // combination output (totals invariant across the two lowerings).
      if (member_of_ != nullptr) stats_->combination_rows += sel_.size();
    }
    if (sel_.empty()) continue;
    out->Reset(child_chunk_.arity());
    for (size_t c = 0; c < child_chunk_.arity(); ++c) {
      const std::vector<Ref>& src = child_chunk_.cols[c];
      std::vector<Ref>& dst = out->cols[c];
      for (uint32_t r : sel_) dst.push_back(src[r]);
    }
    out->rows = sel_.size();
    return true;
  }
}

// -------------------------------------------------------------- ProjectIter

ProjectIter::ProjectIter(RefIteratorPtr child, std::vector<int> positions,
                         std::vector<std::string> columns, bool dedup,
                         ExecStats* stats, PeakTracker* tracker)
    : child_(std::move(child)),
      positions_(std::move(positions)),
      dedup_(dedup),
      seen_(dedup ? RefRelation(std::move(columns)) : RefRelation()),
      stats_(stats),
      tracker_(tracker) {}

Result<bool> ProjectIter::NextBatch(Chunk* out) {
  if (!dedup_) {
    // Mid-chain alignment: gather the selected columns of one child
    // chunk — a pure column shuffle, no per-row work at all.
    while (true) {
      child_chunk_.capacity = out->capacity;
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
      if (!more) {
        out->Reset(out->arity());
        return false;
      }
      if (child_chunk_.rows == 0) continue;
      out->Reset(positions_.size());
      for (size_t i = 0; i < positions_.size(); ++i) {
        out->cols[i] = child_chunk_.cols[static_cast<size_t>(positions_[i])];
      }
      out->rows = child_chunk_.rows;
      if (stats_ != nullptr) stats_->combination_rows += out->rows;
      return true;
    }
  }
  // Dedup sink: accumulate until the output chunk is full (or the child
  // is dry), so the emitted chunk grid depends only on the distinct-row
  // stream and the batch size — not on upstream chunk boundaries. That
  // keeps batches_emitted deterministic.
  out->Reset(positions_.size());
  while (!out->full()) {
    if (child_pos_ >= child_chunk_.rows) {
      if (child_done_) break;
      child_chunk_.capacity = out->capacity;
      PASCALR_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&child_chunk_));
      if (!more) {
        child_done_ = true;
        break;
      }
      child_pos_ = 0;
    }
    while (child_pos_ < child_chunk_.rows && !out->full()) {
      const size_t r = child_pos_++;
      scratch_.resize(positions_.size());
      for (size_t i = 0; i < positions_.size(); ++i) {
        scratch_[i] = child_chunk_.cols[static_cast<size_t>(positions_[i])][r];
      }
      if (!seen_.Add(scratch_)) continue;  // duplicate row, suppressed
      if (tracker_ != nullptr) tracker_->Add(1);
      for (size_t i = 0; i < positions_.size(); ++i) {
        out->cols[i].push_back(scratch_[i]);
      }
      ++out->rows;
      if (stats_ != nullptr) ++stats_->combination_rows;
    }
  }
  return out->rows > 0;
}

// --------------------------------------------------------------- ConcatIter

Result<bool> ConcatIter::NextBatch(Chunk* out) {
  while (current_ < children_.size()) {
    PASCALR_ASSIGN_OR_RETURN(bool more, children_[current_]->NextBatch(out));
    if (more && out->rows > 0) return true;
    children_[current_].reset();  // fully drained; release its state
    ++current_;
  }
  out->Reset(out->arity());
  return false;
}

// ------------------------------------------------------ QuantifierTailIter

QuantifierTailIter::QuantifierTailIter(
    RefIteratorPtr child, std::vector<QuantifiedVar> tail,
    std::vector<std::string> columns, std::vector<std::string> free_names,
    const CollectionResult* collection, DivisionAlgorithm division,
    ExecStats* stats, PeakTracker* tracker)
    : child_(std::move(child)),
      tail_(std::move(tail)),
      columns_(std::move(columns)),
      free_names_(std::move(free_names)),
      collection_(collection),
      division_(division),
      stats_(stats),
      tracker_(tracker) {}

Status QuantifierTailIter::Materialize() {
  materialized_ = true;
  // Buffer the stream with set semantics: exactly the division input the
  // materializing path arrives at after its inner-SOME projections.
  RefRelation combined(columns_);
  PASCALR_ASSIGN_OR_RETURN(uint64_t buffered,
                           DrainDistinct(child_.get(), &combined, tracker_));
  if (stats_ != nullptr) stats_->combination_rows += buffered;
  child_.reset();

  for (size_t i = tail_.size(); i-- > 0;) {
    const QuantifiedVar& qv = tail_[i];
    if (qv.quantifier == Quantifier::kFree) break;
    RefRelation next;
    if (qv.quantifier == Quantifier::kSome) {
      std::vector<std::string> keep;
      for (const std::string& col : combined.columns()) {
        if (col != qv.var) keep.push_back(col);
      }
      PASCALR_ASSIGN_OR_RETURN(next, Project(combined, keep, stats_));
    } else {
      auto it = collection_->range_refs.find(qv.var);
      if (it == collection_->range_refs.end()) {
        return Status::Internal("no materialised range for '" + qv.var + "'");
      }
      PASCALR_ASSIGN_OR_RETURN(
          next, Divide(combined, qv.var, it->second, stats_, division_));
    }
    if (tracker_ != nullptr) {
      tracker_->Add(next.size());
      tracker_->Sub(combined.size());
    }
    combined = std::move(next);
  }

  PASCALR_ASSIGN_OR_RETURN(result_, Project(combined, free_names_, stats_));
  if (tracker_ != nullptr) {
    tracker_->Add(result_.size());
    tracker_->Sub(combined.size());
  }
  return Status::OK();
}

Result<bool> QuantifierTailIter::NextBatch(Chunk* out) {
  if (!materialized_) PASCALR_RETURN_IF_ERROR(Materialize());
  const size_t arity = free_names_.size();
  out->Reset(arity);
  if (pos_ >= result_.size()) {
    if (tracker_ != nullptr) tracker_->Sub(result_.size());
    result_.Clear();
    pos_ = 0;
    return false;
  }
  const size_t take = std::min(out->capacity, result_.size() - pos_);
  GatherRows(result_.rows(), pos_, take, out);
  pos_ += take;
  return true;
}

}  // namespace pascalr
