#include "exec/collection.h"

#include <type_traits>

#include "base/str_util.h"
#include "exec/eval_util.h"
#include "index/hash_index.h"
#include "index/sorted_index.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace pascalr {

namespace {

/// Applies one indirect-join emission for the element (ref, tuple) of the
/// probe variable, feeding every matching pair to `sink` as a RowView
/// (valid for the call only). Shared by the scan pass and the post-scan
/// probes.
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
  // Which variables this pass materialises the range of: every action var
  // whose range no earlier pass collected (the range evaluation is already
  // paid for by the restriction check, so any pass over the relation
  // collects it).
  //
  // Each action's range restriction (null unless extended) and range
  // output (null unless collected here) are resolved once per pass, not
  // per element. range_refs entries are stable: the scan adds no others.
  std::vector<std::vector<Ref>*> range_out(scan.actions.size(), nullptr);
  std::vector<const Formula*> restriction(scan.actions.size(), nullptr);
  for (size_t a = 0; a < scan.actions.size(); ++a) {
    const std::string& var = scan.actions[a].var;
    const QuantifiedVar* qv = plan_.sf.FindVar(var);
    if (qv != nullptr && qv->range.IsExtended()) {
      restriction[a] = qv->range.restriction.get();
    }
    // The entry exists even when every element is filtered out.
    auto [it, fresh] = result_.range_refs.try_emplace(var);
    if (fresh) range_out[a] = &it->second;
  }
  if (stats_ != nullptr) ++stats_->relations_read;

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
        if (!EvalGates(emit.gates, tuple, stats_)) continue;
        if (result_.structures[emit.structure_id].Add({ref}) &&
            stats_ != nullptr) {
          ++stats_->single_list_refs;
          ++stats_->structure_elements_built;
        }
      }
      for (size_t index_id : action.index_builds) {
        if (borrowed_index_[index_id]) continue;
        const IndexBuildSpec& spec = plan_.indexes[index_id];
        if (!EvalGates(spec.gates, tuple, stats_)) continue;
        result_.indexes[index_id]->Add(
            tuple.at(static_cast<size_t>(spec.component_pos)), ref);
        if (stats_ != nullptr) ++stats_->structure_elements_built;
      }
      for (size_t vl_id : action.value_list_builds) {
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
        RefRelation* out = &result_.structures[emit.structure_id];
        ForEachIjPair(emit, ref, tuple, result_, stats_, [&](RowView row) {
          if (out->Add(row) && stats_ != nullptr) {
            stats_->indirect_join_refs += 2;
            ++stats_->structure_elements_built;
          }
        });
      }
      for (const QuantProbeEmit& emit : action.quant_probes) {
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
