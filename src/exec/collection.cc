#include "exec/collection.h"

#include <algorithm>
#include <type_traits>

#include "base/str_util.h"
#include "exec/eval_util.h"
#include "index/btree_index.h"
#include "index/hash_index.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace pascalr {

namespace {

/// Applies one indirect-join emission for the element (ref, tuple) of the
/// probe variable, feeding every matching pair to `sink` as a RowView
/// (valid for the call only). Shared by the scan path (sink = structure
/// Add) and the per-element lazy paths.
template <typename Sink>
void ForEachIjPair(const IndirectJoinEmit& emit, const Ref& ref,
                   const Tuple& tuple, const CollectionResult& partial,
                   ExecStats* stats, Sink&& sink) {
  if (!EvalGates(emit.gates, tuple, stats)) return;
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

int StructureKeyedColumn(const QueryPlan& plan, size_t structure_id) {
  const std::vector<std::string>& columns =
      plan.structures[structure_id].columns;
  std::string var;
  bool any = false;
  auto consider = [&](const std::string& v) {
    if (!any) {
      var = v;
      any = true;
      return true;
    }
    return v == var;
  };
  for (const RelationScan& scan : plan.scans) {
    for (const ScanAction& action : scan.actions) {
      for (const SingleListEmit& e : action.single_lists) {
        if (e.structure_id == structure_id && !consider(action.var)) return -1;
      }
      for (const IndirectJoinEmit& e : action.ij_emits) {
        if (e.structure_id == structure_id && !consider(action.var)) return -1;
      }
      for (const QuantProbeEmit& e : action.quant_probes) {
        if (e.structure_id == structure_id && !consider(action.var)) return -1;
      }
    }
  }
  for (const PostScanProbe& probe : plan.post_probes) {
    if (probe.emit.structure_id == structure_id && !consider(probe.var)) {
      return -1;
    }
  }
  if (!any) return -1;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == var) return static_cast<int>(i);
  }
  return -1;
}

CollectionBuilders::CollectionBuilders(const QueryPlan& plan,
                                       const Database& db, ExecStats* stats)
    : plan_(plan), db_(db), stats_(stats) {
  result_.structures.reserve(plan.structures.size());
  for (const StructureDef& def : plan.structures) {
    result_.structures.emplace_back(def.columns);
  }
  index_built_.assign(plan.indexes.size(), false);
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
          index_built_[spec.id] = true;
          result_.indexes.push_back(permanent);
          if (stats_ != nullptr) ++stats_->permanent_index_hits;
          continue;
        }
      }
    }
    if (spec.ordered) {
      result_.owned_indexes.push_back(
          std::make_unique<BTreeIndex>(spec.debug_name));
    } else {
      result_.owned_indexes.push_back(
          std::make_unique<HashIndex>(spec.debug_name));
    }
    result_.indexes.push_back(result_.owned_indexes.back().get());
  }
  for (const ValueListSpec& spec : plan.value_lists) {
    result_.value_lists.emplace_back(spec.mode);
  }

  structure_built_.assign(plan.structures.size(), false);
  vl_built_.assign(plan.value_lists.size(), false);
  vl_building_.assign(plan.value_lists.size(), false);
  prereqs_done_.assign(plan.structures.size(), false);
  keyed_cache_.resize(plan.structures.size());

  producers_.resize(plan.structures.size());
  for (size_t s = 0; s < plan.scans.size(); ++s) {
    for (const ScanAction& action : plan.scans[s].actions) {
      for (const SingleListEmit& e : action.single_lists) {
        producers_[e.structure_id].push_back(
            {Producer::Kind::kSingleList, action.var, s, &e, nullptr,
             nullptr});
      }
      for (const IndirectJoinEmit& e : action.ij_emits) {
        producers_[e.structure_id].push_back(
            {Producer::Kind::kIndirectJoin, action.var, s, nullptr, &e,
             nullptr});
      }
      for (const QuantProbeEmit& e : action.quant_probes) {
        producers_[e.structure_id].push_back(
            {Producer::Kind::kQuantProbe, action.var, s, nullptr, nullptr,
             &e});
      }
    }
  }
  for (const PostScanProbe& probe : plan.post_probes) {
    producers_[probe.emit.structure_id].push_back(
        {Producer::Kind::kIndirectJoin, probe.var, kNoScan, nullptr,
         &probe.emit, nullptr});
  }
  producer_var_.assign(plan.structures.size(), nullptr);
  keyed_column_.resize(plan.structures.size());
  for (size_t i = 0; i < plan.structures.size(); ++i) {
    if (!producers_[i].empty()) {
      producer_var_[i] = plan.sf.FindVar(producers_[i].front().var);
    }
    keyed_column_[i] = StructureKeyedColumn(plan, i);
  }
}

Status CollectionBuilders::RunScanFiltered(size_t scan_index,
                                           const ScanWants& wants) {
  const RelationScan& scan = plan_.scans[scan_index];
  // One span per relation pass — the paper's collection-phase unit of
  // work; a demand-driven partial pass traces the same way as an eager
  // full one, with the counters telling them apart.
  TraceSpanGuard trace_span(spans::kScan, stats_, scan.relation);
  const Relation* rel = db_.FindRelation(scan.relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + scan.relation + "'");
  }
  // Which variables this pass materialises the range of: every action var
  // whose range is still missing (the range evaluation is already paid for
  // by the restriction check, so any pass over the relation collects it).
  // Claims roll back on failure — a partially collected range must not
  // pass for complete on a retried pass.
  //
  // Each action's range restriction (null unless extended) and range
  // output (null unless collected here) are resolved once per pass, not
  // per element. range_refs entries are stable: the scan adds no others.
  std::vector<std::vector<Ref>*> range_out(scan.actions.size(), nullptr);
  std::vector<const Formula*> restriction(scan.actions.size(), nullptr);
  std::vector<std::string> claimed;
  for (size_t a = 0; a < scan.actions.size(); ++a) {
    const std::string& var = scan.actions[a].var;
    const QuantifiedVar* qv = plan_.sf.FindVar(var);
    if (qv != nullptr && qv->range.IsExtended()) {
      restriction[a] = qv->range.restriction.get();
    }
    if (range_built_.insert(var).second) {
      claimed.push_back(var);
      // Touch the entry so an all-filtered range still exists in the map.
      range_out[a] = &result_.range_refs[var];
    }
  }
  if (stats_ != nullptr) ++stats_->relations_read;

  auto want_structure = [&](size_t id) {
    if (structure_built_[id]) return false;
    return wants.all || (wants.want_structure && wants.structure == id);
  };
  auto want_index = [&](size_t id) {
    if (index_built_[id]) return false;
    return wants.all || (wants.want_index && wants.index == id);
  };
  auto want_vl = [&](size_t id) {
    if (vl_built_[id]) return false;
    return wants.all || (wants.want_value_list && wants.value_list == id);
  };

  Status scan_status = Status::OK();
  rel->Scan([&](const Ref& ref, const Tuple& tuple) {
    if (stats_ != nullptr) ++stats_->elements_scanned;
    for (size_t a = 0; a < scan.actions.size(); ++a) {
      const ScanAction& action = scan.actions[a];
      if (restriction[a] != nullptr &&
          !EvalRestriction(*restriction[a], tuple, stats_)) {
        continue;  // element outside the (extended) range of this var
      }
      if (range_out[a] != nullptr) range_out[a]->push_back(ref);

      for (const SingleListEmit& emit : action.single_lists) {
        if (!want_structure(emit.structure_id)) continue;
        if (!EvalGates(emit.gates, tuple, stats_)) continue;
        if (result_.structures[emit.structure_id].Add({ref}) &&
            stats_ != nullptr) {
          ++stats_->single_list_refs;
          ++stats_->structure_elements_built;
        }
      }
      for (size_t index_id : action.index_builds) {
        if (!want_index(index_id)) continue;
        const IndexBuildSpec& spec = plan_.indexes[index_id];
        if (!EvalGates(spec.gates, tuple, stats_)) continue;
        result_.indexes[index_id]->Add(
            tuple.at(static_cast<size_t>(spec.component_pos)), ref);
        if (stats_ != nullptr) ++stats_->structure_elements_built;
      }
      for (size_t vl_id : action.value_list_builds) {
        if (!want_vl(vl_id)) continue;
        const ValueListSpec& spec = plan_.value_lists[vl_id];
        if (!EvalGates(spec.gates, tuple, stats_)) continue;
        bool gated_out = false;
        for (const QuantProbeGate& g : spec.probe_gates) {
          if (stats_ != nullptr) ++stats_->quantifier_probes;
          const Value& x =
              tuple.at(static_cast<size_t>(g.probe_component_pos));
          const ValueList& inner = result_.value_lists[g.value_list_id];
          Result<bool> holds = g.quantifier == Quantifier::kSome
                                   ? inner.SatisfiesSome(g.op, x)
                                   : inner.SatisfiesAll(g.op, x);
          if (!holds.ok()) {
            scan_status = holds.status();
            return false;
          }
          if (!*holds) {
            gated_out = true;
            break;
          }
        }
        if (gated_out) continue;
        result_.value_lists[vl_id].Add(
            tuple.at(static_cast<size_t>(spec.component_pos)));
        if (stats_ != nullptr) ++stats_->structure_elements_built;
      }
      for (const IndirectJoinEmit& emit : action.ij_emits) {
        if (!want_structure(emit.structure_id)) continue;
        RefRelation* out = &result_.structures[emit.structure_id];
        ForEachIjPair(emit, ref, tuple, result_, stats_, [&](RowView row) {
          if (out->Add(row) && stats_ != nullptr) {
            stats_->indirect_join_refs += 2;
            ++stats_->structure_elements_built;
          }
        });
      }
      for (const QuantProbeEmit& emit : action.quant_probes) {
        if (!want_structure(emit.structure_id)) continue;
        if (!EvalGates(emit.gates, tuple, stats_)) continue;
        if (stats_ != nullptr) ++stats_->quantifier_probes;
        const Value& x =
            tuple.at(static_cast<size_t>(emit.probe.probe_component_pos));
        const ValueList& vl = result_.value_lists[emit.probe.value_list_id];
        Result<bool> holds =
            emit.probe.quantifier == Quantifier::kSome
                ? vl.SatisfiesSome(emit.probe.op, x)
                : vl.SatisfiesAll(emit.probe.op, x);
        if (!holds.ok()) {
          scan_status = holds.status();
          return false;
        }
        if (*holds && result_.structures[emit.structure_id].Add({ref}) &&
            stats_ != nullptr) {
          ++stats_->single_list_refs;
          ++stats_->structure_elements_built;
        }
      }
    }
    return true;
  });
  if (!scan_status.ok()) {
    // The pass aborted mid-scan: un-claim the ranges it was collecting
    // (their vectors are truncated). Structure/index/value-list built
    // flags were never set, so those units re-run too; their partial
    // adds are harmless — RefRelation/EvalElement deduplicate, and
    // duplicate index entries only repeat probe emissions the structure
    // Add dedups again.
    for (const std::string& var : claimed) {
      range_built_.erase(var);
      result_.range_refs.erase(var);
    }
  }
  return scan_status;
}

Status CollectionBuilders::RunPostProbe(const PostScanProbe& probe) {
  // Post-scan probes (e.g. self joins): iterate the variable's range and
  // dereference — the paper's index-nested-loop over an already-collected
  // reference list.
  PASCALR_RETURN_IF_ERROR(EnsureRange(probe.var));
  auto it = result_.range_refs.find(probe.var);
  if (it == result_.range_refs.end()) {
    return Status::Internal("post-scan probe over uncollected range '" +
                            probe.var + "'");
  }
  RefRelation* out = &result_.structures[probe.emit.structure_id];
  for (const Ref& ref : it->second) {
    PASCALR_ASSIGN_OR_RETURN(const Tuple* tuple, db_.Deref(ref));
    if (stats_ != nullptr) ++stats_->elements_scanned;
    ForEachIjPair(probe.emit, ref, *tuple, result_, stats_, [&](RowView row) {
      if (out->Add(row) && stats_ != nullptr) {
        stats_->indirect_join_refs += 2;
        ++stats_->structure_elements_built;
      }
    });
  }
  return Status::OK();
}

Status CollectionBuilders::EnsureAll() {
  if (all_built_) return Status::OK();
  ScanWants everything;
  everything.all = true;
  for (size_t s = 0; s < plan_.scans.size(); ++s) {
    PASCALR_RETURN_IF_ERROR(RunScanFiltered(s, everything));
  }
  for (const PostScanProbe& probe : plan_.post_probes) {
    if (structure_built_[probe.emit.structure_id]) continue;
    PASCALR_RETURN_IF_ERROR(RunPostProbe(probe));
  }
  // Every prefix variable must have a materialised range (the planner
  // schedules an empty-action scan when no term touches a variable).
  for (const QuantifiedVar& qv : plan_.sf.prefix) {
    if (plan_.IsEliminated(qv.var)) continue;
    if (range_built_.count(qv.var) == 0) {
      return Status::Internal("range of variable '" + qv.var +
                              "' was never collected");
    }
    // touch the entry so lookups are total
    result_.range_refs[qv.var];
  }
  for (size_t i = 0; i < structure_built_.size(); ++i) {
    if (!structure_built_[i]) {
      structure_built_[i] = true;
      if (stats_ != nullptr) ++stats_->structures_built;
    }
  }
  std::fill(index_built_.begin(), index_built_.end(), true);
  std::fill(vl_built_.begin(), vl_built_.end(), true);
  all_built_ = true;
  return Status::OK();
}

Status CollectionBuilders::EnsureRange(const std::string& var) {
  if (range_built_.count(var) > 0) return Status::OK();
  const QuantifiedVar* qv = plan_.sf.FindVar(var);
  if (qv == nullptr) {
    return Status::Internal("range of unknown variable '" + var + "'");
  }
  // Same planner invariant the eager pass enforces: every variable's
  // range comes from a scheduled scan (an empty-action one when no term
  // touches it). A variable no scan covers is a planner bug — error
  // loudly instead of masking it with an unplanned relation scan.
  bool scheduled = false;
  for (const RelationScan& scan : plan_.scans) {
    for (const ScanAction& action : scan.actions) {
      scheduled |= action.var == var;
    }
  }
  if (!scheduled) {
    return Status::Internal("range of variable '" + var +
                            "' was never collected");
  }
  const Relation* rel = db_.FindRelation(qv->range.relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + qv->range.relation + "'");
  }
  range_built_.insert(var);
  std::vector<Ref>& refs = result_.range_refs[var];
  if (stats_ != nullptr) ++stats_->relations_read;
  rel->Scan([&](const Ref& ref, const Tuple& tuple) {
    if (stats_ != nullptr) ++stats_->elements_scanned;
    if (!qv->range.IsExtended() ||
        EvalRestriction(*qv->range.restriction, tuple, stats_)) {
      refs.push_back(ref);
    }
    return true;
  });
  return Status::OK();
}

Status CollectionBuilders::EnsureIndex(size_t index_id) {
  if (index_built_[index_id]) return Status::OK();
  TraceSpanGuard trace_span(spans::kBuildIndex, stats_,
                            plan_.indexes[index_id].debug_name);
  ScanWants wants;
  wants.want_index = true;
  wants.index = index_id;
  for (size_t s = 0; s < plan_.scans.size(); ++s) {
    bool builds_here = false;
    for (const ScanAction& action : plan_.scans[s].actions) {
      for (size_t id : action.index_builds) builds_here |= id == index_id;
    }
    if (builds_here) PASCALR_RETURN_IF_ERROR(RunScanFiltered(s, wants));
  }
  index_built_[index_id] = true;
  return Status::OK();
}

Status CollectionBuilders::EnsureValueList(size_t value_list_id) {
  if (vl_built_[value_list_id]) return Status::OK();
  if (vl_building_[value_list_id]) {
    return Status::Internal("cyclic value-list dependency");
  }
  TraceSpanGuard trace_span(spans::kBuildValueList, stats_,
                            plan_.value_lists[value_list_id].debug_name);
  vl_building_[value_list_id] = true;
  // Cascaded eliminations (Example 4.7): the gating lists feed this one,
  // so they must be complete before this list's scan runs.
  for (const QuantProbeGate& gate :
       plan_.value_lists[value_list_id].probe_gates) {
    Status st = EnsureValueList(gate.value_list_id);
    if (!st.ok()) {
      vl_building_[value_list_id] = false;
      return st;
    }
  }
  ScanWants wants;
  wants.want_value_list = true;
  wants.value_list = value_list_id;
  for (size_t s = 0; s < plan_.scans.size(); ++s) {
    bool builds_here = false;
    for (const ScanAction& action : plan_.scans[s].actions) {
      for (size_t id : action.value_list_builds) {
        builds_here |= id == value_list_id;
      }
    }
    if (builds_here) {
      Status st = RunScanFiltered(s, wants);
      if (!st.ok()) {
        vl_building_[value_list_id] = false;
        return st;
      }
    }
  }
  vl_building_[value_list_id] = false;
  vl_built_[value_list_id] = true;
  return Status::OK();
}

Status CollectionBuilders::EnsureElementPrereqs(size_t structure_id) {
  if (prereqs_done_[structure_id]) return Status::OK();
  for (const Producer& p : producers_[structure_id]) {
    switch (p.kind) {
      case Producer::Kind::kSingleList:
        break;
      case Producer::Kind::kIndirectJoin:
        PASCALR_RETURN_IF_ERROR(EnsureIndex(p.ij->index_id));
        for (const ProbeCheck& check : p.ij->corestrictions) {
          PASCALR_RETURN_IF_ERROR(EnsureIndex(check.index_id));
        }
        break;
      case Producer::Kind::kQuantProbe:
        PASCALR_RETURN_IF_ERROR(EnsureValueList(p.qp->probe.value_list_id));
        break;
    }
  }
  prereqs_done_[structure_id] = true;
  return Status::OK();
}

Status CollectionBuilders::EnsureStructure(size_t structure_id) {
  if (structure_built_[structure_id]) return Status::OK();
  TraceSpanGuard trace_span(spans::kBuildStructure, stats_,
                            plan_.structures[structure_id].debug_name);
  PASCALR_RETURN_IF_ERROR(EnsureElementPrereqs(structure_id));
  ScanWants wants;
  wants.want_structure = true;
  wants.structure = structure_id;
  for (size_t s = 0; s < plan_.scans.size(); ++s) {
    bool produces_here = false;
    for (const Producer& p : producers_[structure_id]) {
      produces_here |= p.scan == s;
    }
    if (produces_here) PASCALR_RETURN_IF_ERROR(RunScanFiltered(s, wants));
  }
  for (const PostScanProbe& probe : plan_.post_probes) {
    if (probe.emit.structure_id != structure_id) continue;
    PASCALR_RETURN_IF_ERROR(RunPostProbe(probe));
  }
  structure_built_[structure_id] = true;
  if (stats_ != nullptr) ++stats_->structures_built;
  return Status::OK();
}

Status CollectionBuilders::EvalElement(size_t structure_id, const Ref& ref,
                                       std::vector<Ref>* out) {
  PASCALR_ASSIGN_OR_RETURN(const Tuple* tuple, db_.Deref(ref));
  if (stats_ != nullptr) ++stats_->elements_scanned;
  const std::vector<Producer>& producers = producers_[structure_id];
  if (producers.empty()) return Status::OK();
  // All producers scan the same variable (StructureKeyedColumn enforced
  // this); re-check its (possibly extended) range restriction — every ref
  // arriving as a join key already passed it, but streamed scans feed raw
  // relation elements through here.
  const QuantifiedVar* qv = producer_var_[structure_id];
  if (qv != nullptr && qv->range.IsExtended() &&
      !EvalRestriction(*qv->range.restriction, *tuple, stats_)) {
    return Status::OK();
  }
  // Dedup against the rows this element appended (the set semantics the
  // structure's Add would apply).
  const size_t arity = result_.structures[structure_id].arity();
  const size_t first = out->size();
  auto append_unique = [out, arity, first](RowView row) {
    for (size_t at = first; at < out->size(); at += arity) {
      if (RowView(out->data() + at, arity) == row) return;
    }
    out->insert(out->end(), row.begin(), row.end());
  };
  for (const Producer& p : producers) {
    switch (p.kind) {
      case Producer::Kind::kSingleList:
        if (EvalGates(p.sl->gates, *tuple, stats_)) {
          append_unique(RowView(&ref, 1));
        }
        break;
      case Producer::Kind::kIndirectJoin:
        ForEachIjPair(*p.ij, ref, *tuple, result_, stats_, append_unique);
        break;
      case Producer::Kind::kQuantProbe: {
        if (!EvalGates(p.qp->gates, *tuple, stats_)) break;
        if (stats_ != nullptr) ++stats_->quantifier_probes;
        const Value& x =
            tuple->at(static_cast<size_t>(p.qp->probe.probe_component_pos));
        const ValueList& vl =
            result_.value_lists[p.qp->probe.value_list_id];
        PASCALR_ASSIGN_OR_RETURN(
            bool holds, p.qp->probe.quantifier == Quantifier::kSome
                            ? vl.SatisfiesSome(p.qp->probe.op, x)
                            : vl.SatisfiesAll(p.qp->probe.op, x));
        if (holds) append_unique(RowView(&ref, 1));
        break;
      }
    }
  }
  return Status::OK();
}

Result<const Relation*> CollectionBuilders::StructureBaseRelation(
    size_t structure_id) const {
  const std::vector<Producer>& producers = producers_[structure_id];
  if (producers.empty() || keyed_column_[structure_id] < 0) {
    return Status::Internal("structure has no per-element base relation");
  }
  const QuantifiedVar* qv = producer_var_[structure_id];
  if (qv == nullptr) {
    return Status::Internal("unknown producer variable '" +
                            producers.front().var + "'");
  }
  const Relation* rel = db_.FindRelation(qv->range.relation);
  if (rel == nullptr) {
    return Status::NotFound("no relation named '" + qv->range.relation + "'");
  }
  return rel;
}

Result<RowSpan> CollectionBuilders::KeyedMatches(size_t structure_id,
                                                 const Ref& key) {
  const size_t arity = result_.structures[structure_id].arity();
  auto& cache = keyed_cache_[structure_id];
  auto it = cache.find(key);
  if (it != cache.end()) {
    return RowSpan(it->second.data(), it->second.size() / arity, arity);
  }
  PASCALR_RETURN_IF_ERROR(EnsureElementPrereqs(structure_id));
  std::vector<Ref> refs;
  PASCALR_RETURN_IF_ERROR(EvalElement(structure_id, key, &refs));
  const size_t rows = refs.size() / arity;
  if (stats_ != nullptr) {
    // Keyed-partial rows ARE materialised (cached for re-probes): price
    // them like the eager build does, element by element. A structure
    // that is keyed-probed here and later built in full counts some
    // elements twice — deliberate: the counter measures work performed,
    // not distinct elements, and double-building is double work.
    for (size_t i = 0; i < rows; ++i) {
      if (arity >= 2) {
        stats_->indirect_join_refs += 2;
      } else {
        ++stats_->single_list_refs;
      }
      ++stats_->structure_elements_built;
    }
  }
  const std::vector<Ref>& kept =
      cache.emplace(key, std::move(refs)).first->second;
  return RowSpan(kept.data(), rows, arity);
}

Result<CollectionResult> ExecuteCollection(const QueryPlan& plan,
                                           const Database& db,
                                           ExecStats* stats) {
  CollectionBuilders builders(plan, db, stats);
  PASCALR_RETURN_IF_ERROR(builders.EnsureAll());
  return builders.Release();
}

}  // namespace pascalr
