#include "exec/collection.h"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "base/atomic_util.h"
#include "base/str_util.h"
#include "exec/eval_util.h"
#include "index/hash_index.h"
#include "index/sorted_index.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace pascalr {

namespace {

using SlotWord = Relation::SlotWord;

unsigned Popcount(uint64_t bits) {
  return static_cast<unsigned>(__builtin_popcountll(bits));
}

/// Calls f(j) for every set bit j of `bits`, lowest first (slot order).
template <typename F>
void ForEachBit(uint64_t bits, F&& f) {
  for (; bits != 0; bits &= bits - 1) {
    f(static_cast<unsigned>(__builtin_ctzll(bits)));
  }
}

/// Bit j of the result: `cells[j] op k`, for the bits of `candidates`.
template <typename Cmp>
uint64_t SelectCells(const std::atomic<int64_t>* cells, int64_t k,
                     uint64_t candidates, Cmp cmp) {
  uint64_t out = 0;
  for (unsigned j = 0; j < Relation::kWordSlots; ++j) {
    out |= static_cast<uint64_t>(cmp(RelaxedLoad(cells[j]), k)) << j;
  }
  return out & candidates;
}

uint64_t SelectCells(const std::atomic<int64_t>* cells, CompareOp op,
                     int64_t k, uint64_t candidates) {
  switch (op) {
    case CompareOp::kEq:
      return SelectCells(cells, k, candidates,
                         [](int64_t v, int64_t c) { return v == c; });
    case CompareOp::kNe:
      return SelectCells(cells, k, candidates,
                         [](int64_t v, int64_t c) { return v != c; });
    case CompareOp::kLt:
      return SelectCells(cells, k, candidates,
                         [](int64_t v, int64_t c) { return v < c; });
    case CompareOp::kLe:
      return SelectCells(cells, k, candidates,
                         [](int64_t v, int64_t c) { return v <= c; });
    case CompareOp::kGt:
      return SelectCells(cells, k, candidates,
                         [](int64_t v, int64_t c) { return v > c; });
    case CompareOp::kGe:
      return SelectCells(cells, k, candidates,
                         [](int64_t v, int64_t c) { return v >= c; });
  }
  return 0;
}

/// A pass's restrictions and gates compiled once, at the start of the
/// pass, into one ordered term list; each action and emission owns a run
/// of it. A *column term* compares a mirror column with an int64 constant
/// a word at a time; a *row term* is anything else (a string term, a
/// component-vs-component term, a non-conjunctive restriction) and is
/// evaluated on the tuple of every surviving candidate.
class PassTerms {
 public:
  /// A half-open run [begin, end) of the term list.
  struct Run {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  explicit PassTerms(const Relation& rel) : rel_(rel) {}

  /// Compiles a conjunction of monadic gates.
  Run AddGates(const std::vector<JoinTerm>& gates) {
    const uint32_t begin = size();
    for (const JoinTerm& g : gates) AddTerm(g);
    return Run{begin, size()};
  }

  /// Compiles a range restriction (null: none): its top-level AND is
  /// flattened into terms, in order; any other connective is one row term.
  Run AddRestriction(const Formula* restriction) {
    const uint32_t begin = size();
    if (restriction != nullptr) AddFormula(*restriction);
    return Run{begin, size()};
  }

  /// Narrows `candidates` by the run's terms, in order. Counts exactly
  /// the comparisons element-at-a-time short-circuit evaluation would:
  /// a column term adds one per candidate still standing, a row term
  /// counts its own evaluations.
  uint64_t Select(Run run, const SlotWord& word, uint64_t candidates,
                  ExecStats* stats) const {
    for (uint32_t i = run.begin; i < run.end && candidates != 0; ++i) {
      const Term& t = terms_[i];
      switch (t.kind) {
        case Term::kColumn:
          if (stats != nullptr) stats->comparisons += Popcount(candidates);
          candidates =
              SelectCells(word.Cells(t.column), t.op, t.constant, candidates);
          break;
        case Term::kRowTerm:
          ForEachBit(candidates, [&](unsigned j) {
            if (!EvalMonadicTerm(*t.term, word.TupleAt(j), stats)) {
              candidates &= ~(uint64_t{1} << j);
            }
          });
          break;
        case Term::kRowFormula:
          ForEachBit(candidates, [&](unsigned j) {
            if (!EvalRestriction(*t.formula, word.TupleAt(j), stats)) {
              candidates &= ~(uint64_t{1} << j);
            }
          });
          break;
        case Term::kConst:
          if (!t.holds) candidates = 0;
          break;
      }
    }
    return candidates;
  }

 private:
  struct Term {
    enum Kind : uint8_t { kColumn, kRowTerm, kRowFormula, kConst };
    Kind kind = kConst;
    CompareOp op = CompareOp::kEq;  ///< kColumn: cell `op` constant
    bool holds = true;              ///< kConst
    int column = -1;                ///< kColumn
    int64_t constant = 0;           ///< kColumn
    const JoinTerm* term = nullptr;     ///< kRowTerm
    const Formula* formula = nullptr;   ///< kRowFormula
  };

  uint32_t size() const { return static_cast<uint32_t>(terms_.size()); }

  void AddFormula(const Formula& f) {
    Term t;
    switch (f.kind()) {
      case FormulaKind::kAnd:
        for (const FormulaPtr& c : f.children()) AddFormula(*c);
        return;
      case FormulaKind::kCompare:
        AddTerm(f.term());
        return;
      case FormulaKind::kConst:
        t.holds = f.const_value();
        break;
      default:
        t.kind = Term::kRowFormula;
        t.formula = &f;
        break;
    }
    terms_.push_back(t);
  }

  /// A column term when one side is a literal of the other side's
  /// (mirrored) component kind; a row term otherwise. The constant is the
  /// plan's literal now, so patched $params are honoured.
  void AddTerm(const JoinTerm& jt) {
    Term t;
    t.kind = Term::kRowTerm;
    t.term = &jt;
    const bool lhs_col = jt.lhs.is_component() && jt.rhs.is_literal();
    const bool rhs_col = jt.rhs.is_component() && jt.lhs.is_literal();
    if (lhs_col || rhs_col) {
      const Operand& comp = lhs_col ? jt.lhs : jt.rhs;
      const Value& literal = lhs_col ? jt.rhs.literal : jt.lhs.literal;
      const size_t pos = static_cast<size_t>(comp.component_pos);
      const int column = rel_.MirrorColumn(pos);
      int64_t code = 0;
      if (column >= 0 && KindMatches(rel_.schema().component(pos).type,
                                     literal) &&
          literal.Code(&code)) {
        t.kind = Term::kColumn;
        t.column = column;
        t.op = lhs_col ? jt.op : MirrorOp(jt.op);
        t.constant = code;
      }
    }
    terms_.push_back(t);
  }

  static bool KindMatches(const Type& type, const Value& v) {
    switch (type.kind()) {
      case TypeKind::kInt:
        return v.is_int();
      case TypeKind::kEnum:
        return v.is_enum();
      case TypeKind::kBool:
        return v.is_bool();
      case TypeKind::kString:
        return false;
    }
    return false;
  }

  const Relation& rel_;
  std::vector<Term> terms_;
};

template <typename T>
bool Contains(const std::vector<T>& v, const T& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// The word-at-a-time pass runs each action over 64 elements before the
/// next action, not each element through every action; that is
/// unobservable only while no action of a pass reads what another action
/// of the same pass builds. The planner guarantees it: a self join's
/// probe runs after every scan (PostScanProbe), a co-probe check needs an
/// index of an earlier pass (scan_plan.cc), and quantifier push-down
/// refuses a value list whose probe shares its scan (quant_pushdown.cc).
/// Every other output (range, structure, index, value list) has one
/// writer and is appended in slot order either way.
Status CheckPassIndependence(const RelationScan& scan,
                             const QueryPlan& plan) {
  std::vector<size_t> indexes, value_lists;
  for (const ScanAction& action : scan.actions) {
    indexes.insert(indexes.end(), action.index_builds.begin(),
                   action.index_builds.end());
    value_lists.insert(value_lists.end(), action.value_list_builds.begin(),
                       action.value_list_builds.end());
  }
  bool reads_own_output = false;
  for (const ScanAction& action : scan.actions) {
    for (const IndirectJoinEmit& emit : action.ij_emits) {
      reads_own_output |= Contains(indexes, emit.index_id);
      for (const ProbeCheck& check : emit.corestrictions) {
        reads_own_output |= Contains(indexes, check.index_id);
      }
    }
    for (size_t vl_id : action.value_list_builds) {
      for (const QuantProbeGate& g : plan.value_lists[vl_id].probe_gates) {
        reads_own_output |= Contains(value_lists, g.value_list_id);
      }
    }
    for (const QuantProbeEmit& emit : action.quant_probes) {
      reads_own_output |= Contains(value_lists, emit.probe.value_list_id);
    }
  }
  if (reads_own_output) {
    return Status::Internal("scan '" + scan.debug_label +
                            "' probes an index or value list it builds");
  }
  return Status::OK();
}

/// Applies one indirect-join emission, gates already passed, for the
/// element (ref, tuple) of the probe variable, feeding every matching
/// pair to `sink` as a RowView (valid for the call only). Shared by the
/// scan pass and the post-scan probes.
template <typename Sink>
void ForEachIjPair(const IndirectJoinEmit& emit, const Ref& ref,
                   const Tuple& tuple, const CollectionResult& partial,
                   ExecStats* stats, Sink&& sink) {
  // Mutual restriction (S2): every co-probe must find at least one match.
  for (const ProbeCheck& check : emit.corestrictions) {
    if (stats != nullptr) ++stats->index_probes;
    const Value& x = tuple.at(static_cast<size_t>(check.probe_component_pos));
    // The index stores build-side values v; the term reads `x op v`, and
    // ComponentIndex::Probe answers `v op' x`, so mirror the operator.
    if (!partial.indexes[check.index_id]->ProbeAny(MirrorOp(check.op), x)) {
      return;
    }
  }
  if (stats != nullptr) ++stats->index_probes;
  const Value& x = tuple.at(static_cast<size_t>(emit.probe_component_pos));
  // The pair under construction: the probe element fills its column
  // once, each match the other. The visitor captures one pointer, so it
  // stays inside std::function's small buffer — no allocation per probe.
  struct Pair {
    Ref row[2];
    size_t build_col;
    std::remove_reference_t<Sink>* sink;
  } pair{{ref, ref}, emit.probe_column_first ? size_t{1} : size_t{0}, &sink};
  partial.indexes[emit.index_id]->Probe(
      MirrorOp(emit.op), x, [&pair](const Ref& build_ref) {
        pair.row[pair.build_col] = build_ref;
        (*pair.sink)(RowView(pair.row, 2));
        return true;
      });
}

}  // namespace

CollectionBuilders::CollectionBuilders(const QueryPlan& plan,
                                       const Database& db, ExecStats* stats)
    : plan_(plan), db_(db), stats_(stats) {
  result_.structures.reserve(plan.structures.size());
  for (const StructureDef& def : plan.structures) {
    result_.structures.emplace_back(def.columns);
  }
  borrowed_index_.assign(plan.indexes.size(), false);
  for (const IndexBuildSpec& spec : plan.indexes) {
    if (spec.try_permanent && spec.gates.empty()) {
      // Paper §3.2: "The first step can be omitted, if permanent indexes
      // exist." Reuse a fresh catalog index instead of building one.
      auto it = plan.sf.vars.find(spec.var);
      if (it != plan.sf.vars.end() && it->second.relation != nullptr) {
        const Schema& schema = it->second.relation->schema();
        const std::string& component =
            schema.component(static_cast<size_t>(spec.component_pos)).name;
        ComponentIndex* permanent =
            db.FindFreshIndex(it->second.relation_name, component);
        if (permanent != nullptr) {
          borrowed_index_[spec.id] = true;
          result_.indexes.push_back(permanent);
          if (stats_ != nullptr) ++stats_->permanent_index_hits;
          continue;
        }
      }
    }
    if (spec.ordered) {
      result_.owned_indexes.push_back(
          std::make_unique<SortedIndex>(spec.debug_name));
    } else {
      result_.owned_indexes.push_back(
          std::make_unique<HashIndex>(spec.debug_name));
    }
    result_.indexes.push_back(result_.owned_indexes.back().get());
  }
  for (const ValueListSpec& spec : plan.value_lists) {
    result_.value_lists.emplace_back(spec.mode);
  }
}

Status CollectionBuilders::RunScan(const RelationScan& scan) {
  // One span per relation pass — the paper's collection-phase unit of
  // work.
  TraceSpanGuard trace_span(spans::kScan, stats_, scan.relation);
  const Relation* rel = db_.FindRelation(scan.relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + scan.relation + "'");
  }
  PASCALR_RETURN_IF_ERROR(CheckPassIndependence(scan, plan_));
  // Which variables this pass materialises the range of: every action var
  // whose range no earlier pass collected (the range evaluation is already
  // paid for by the restriction check, so any pass over the relation
  // collects it). range_refs entries are stable: the scan adds no others.
  //
  // Compile once per pass: each action's range restriction (empty unless
  // extended), then the gates of each of its emissions in the order the
  // walk below visits them, one run each.
  std::vector<std::vector<Ref>*> range_out(scan.actions.size(), nullptr);
  PassTerms terms(*rel);
  std::vector<PassTerms::Run> runs;
  for (size_t a = 0; a < scan.actions.size(); ++a) {
    const ScanAction& action = scan.actions[a];
    const QuantifiedVar* qv = plan_.sf.FindVar(action.var);
    const bool extended = qv != nullptr && qv->range.IsExtended();
    runs.push_back(
        terms.AddRestriction(extended ? qv->range.restriction.get() : nullptr));
    for (const SingleListEmit& emit : action.single_lists) {
      runs.push_back(terms.AddGates(emit.gates));
    }
    for (size_t index_id : action.index_builds) {
      runs.push_back(terms.AddGates(plan_.indexes[index_id].gates));
    }
    for (size_t vl_id : action.value_list_builds) {
      runs.push_back(terms.AddGates(plan_.value_lists[vl_id].gates));
    }
    for (const IndirectJoinEmit& emit : action.ij_emits) {
      runs.push_back(terms.AddGates(emit.gates));
    }
    for (const QuantProbeEmit& emit : action.quant_probes) {
      runs.push_back(terms.AddGates(emit.gates));
    }
    // The entry exists even when every element is filtered out. An
    // unrestricted range is exactly the visible elements: size it once.
    auto [it, fresh] = result_.range_refs.try_emplace(action.var);
    if (fresh) {
      range_out[a] = &it->second;
      if (!extended) range_out[a]->reserve(rel->cardinality());
    }
  }
  if (stats_ != nullptr) ++stats_->relations_read;

  // A quantifier probe of one element; the first failed probe ends the
  // pass with its status.
  Status scan_status = Status::OK();
  auto probe = [&](const QuantProbeGate& g, const Tuple& tuple) {
    if (stats_ != nullptr) ++stats_->quantifier_probes;
    const Value& x = tuple.at(static_cast<size_t>(g.probe_component_pos));
    const ValueList& vl = result_.value_lists[g.value_list_id];
    Result<bool> holds = g.quantifier == Quantifier::kSome
                             ? vl.SatisfiesSome(g.op, x)
                             : vl.SatisfiesAll(g.op, x);
    if (!holds.ok()) {
      scan_status = holds.status();
      return false;
    }
    return *holds;
  };
  // The walk: 64 slots at a time, each action narrowing the visibility
  // word to its range and each emission that to its gates; per-element
  // work runs only for the bits that survive, in slot order.
  rel->ScanWords([&](const SlotWord& word) {
    if (stats_ != nullptr) stats_->elements_scanned += Popcount(word.visible());
    const PassTerms::Run* run = runs.data();
    for (size_t a = 0; a < scan.actions.size(); ++a) {
      const ScanAction& action = scan.actions[a];
      const uint64_t in_range =
          terms.Select(*run++, word, word.visible(), stats_);
      if (range_out[a] != nullptr) {
        ForEachBit(in_range,
                   [&](unsigned j) { range_out[a]->push_back(word.RefAt(j)); });
      }
      for (const SingleListEmit& emit : action.single_lists) {
        const uint64_t sel = terms.Select(*run++, word, in_range, stats_);
        RefRelation& out = result_.structures[emit.structure_id];
        ForEachBit(sel, [&](unsigned j) { out.Append({word.RefAt(j)}); });
        if (stats_ != nullptr) {
          stats_->single_list_refs += Popcount(sel);
          stats_->structure_elements_built += Popcount(sel);
        }
      }
      for (size_t index_id : action.index_builds) {
        const PassTerms::Run gates = *run++;
        if (borrowed_index_[index_id]) continue;
        const uint64_t sel = terms.Select(gates, word, in_range, stats_);
        const size_t pos =
            static_cast<size_t>(plan_.indexes[index_id].component_pos);
        ComponentIndex* index = result_.indexes[index_id];
        ForEachBit(sel, [&](unsigned j) {
          index->Add(word.TupleAt(j).at(pos), word.RefAt(j));
        });
        if (stats_ != nullptr) stats_->structure_elements_built += Popcount(sel);
      }
      for (size_t vl_id : action.value_list_builds) {
        const ValueListSpec& spec = plan_.value_lists[vl_id];
        const uint64_t sel = terms.Select(*run++, word, in_range, stats_);
        ForEachBit(sel, [&](unsigned j) {
          const Tuple& tuple = word.TupleAt(j);
          for (const QuantProbeGate& g : spec.probe_gates) {
            if (!scan_status.ok() || !probe(g, tuple)) return;
          }
          result_.value_lists[vl_id].Add(
              tuple.at(static_cast<size_t>(spec.component_pos)));
          if (stats_ != nullptr) ++stats_->structure_elements_built;
        });
        if (!scan_status.ok()) return false;
      }
      for (const IndirectJoinEmit& emit : action.ij_emits) {
        const uint64_t sel = terms.Select(*run++, word, in_range, stats_);
        RefRelation* out = &result_.structures[emit.structure_id];
        ForEachBit(sel, [&](unsigned j) {
          ForEachIjPair(emit, word.RefAt(j), word.TupleAt(j), result_, stats_,
                        [&](RowView row) {
                          out->Append(row);
                          if (stats_ != nullptr) {
                            stats_->indirect_join_refs += 2;
                            ++stats_->structure_elements_built;
                          }
                        });
        });
      }
      for (const QuantProbeEmit& emit : action.quant_probes) {
        const uint64_t sel = terms.Select(*run++, word, in_range, stats_);
        RefRelation& out = result_.structures[emit.structure_id];
        ForEachBit(sel, [&](unsigned j) {
          if (!scan_status.ok() || !probe(emit.probe, word.TupleAt(j))) return;
          out.Append({word.RefAt(j)});
          if (stats_ != nullptr) {
            ++stats_->single_list_refs;
            ++stats_->structure_elements_built;
          }
        });
        if (!scan_status.ok()) return false;
      }
    }
    return true;
  });
  // The pass has added everything it builds: make its indexes probeable.
  // A borrowed permanent index is shared read-only and stays untouched.
  for (const ScanAction& action : scan.actions) {
    for (size_t index_id : action.index_builds) {
      if (!borrowed_index_[index_id]) result_.indexes[index_id]->Seal();
    }
  }
  return scan_status;
}

Status CollectionBuilders::RunPostProbe(const PostScanProbe& probe) {
  // Post-scan probes (e.g. self joins): iterate the variable's range and
  // dereference — the paper's index-nested-loop over an already-collected
  // reference list.
  auto it = result_.range_refs.find(probe.var);
  if (it == result_.range_refs.end()) {
    return Status::Internal("post-scan probe over uncollected range '" +
                            probe.var + "'");
  }
  const std::vector<Ref>& range = it->second;
  if (range.empty()) return Status::OK();
  // Every ref of a range points into its variable's relation: resolve it
  // once per pass, not once per element.
  const Relation* rel = db_.FindRelation(range.front().relation);
  if (rel == nullptr) {
    return Status::NotFound(StrFormat("reference into unknown relation %u",
                                      range.front().relation));
  }
  RefRelation* out = &result_.structures[probe.emit.structure_id];
  for (const Ref& ref : range) {
    PASCALR_ASSIGN_OR_RETURN(const Tuple* tuple, rel->Deref(ref));
    if (stats_ != nullptr) ++stats_->elements_scanned;
    if (!EvalGates(probe.emit.gates, *tuple, stats_)) continue;
    ForEachIjPair(probe.emit, ref, *tuple, result_, stats_, [&](RowView row) {
      out->Append(row);
      if (stats_ != nullptr) {
        stats_->indirect_join_refs += 2;
        ++stats_->structure_elements_built;
      }
    });
  }
  return Status::OK();
}

Status CollectionBuilders::EnsureAll() {
  for (const RelationScan& scan : plan_.scans) {
    PASCALR_RETURN_IF_ERROR(RunScan(scan));
  }
  for (const PostScanProbe& probe : plan_.post_probes) {
    PASCALR_RETURN_IF_ERROR(RunPostProbe(probe));
  }
  // Every prefix variable must have a materialised range (the planner
  // schedules an empty-action scan when no term touches a variable).
  for (const QuantifiedVar& qv : plan_.sf.prefix) {
    if (plan_.IsEliminated(qv.var)) continue;
    if (result_.range_refs.count(qv.var) == 0) {
      return Status::Internal("range of variable '" + qv.var +
                              "' was never collected");
    }
  }
  return Status::OK();
}

Result<CollectionResult> ExecuteCollection(const QueryPlan& plan,
                                           const Database& db,
                                           ExecStats* stats) {
  CollectionBuilders builders(plan, db, stats);
  PASCALR_RETURN_IF_ERROR(builders.EnsureAll());
  return builders.Release();
}

}  // namespace pascalr
