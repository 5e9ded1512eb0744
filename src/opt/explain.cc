#include "opt/explain.h"

#include "base/str_util.h"
#include "obs/profile.h"
#include "pipeline/shape.h"

namespace pascalr {

std::string_view OptLevelToString(OptLevel level) {
  switch (level) {
    case OptLevel::kNaive:
      return "O0 (naive Palermo)";
    case OptLevel::kParallel:
      return "O1 (+ parallel subexpressions)";
    case OptLevel::kOneStep:
      return "O2 (+ one-step nested evaluation)";
    case OptLevel::kRangeExt:
      return "O3 (+ extended range expressions)";
    case OptLevel::kQuantPush:
      return "O4 (+ collection-phase quantifiers)";
    case OptLevel::kAuto:
      return "auto (cost-based strategy selection)";
  }
  return "?";
}

namespace {

std::string DescribeGates(const std::vector<JoinTerm>& gates) {
  if (gates.empty()) return "";
  std::vector<std::string> parts;
  for (const JoinTerm& g : gates) parts.push_back(g.ToString());
  return " IF " + Join(parts, " AND ");
}

const char* ModeName(ValueList::Mode mode) {
  switch (mode) {
    case ValueList::Mode::kFull:
      return "full";
    case ValueList::Mode::kMinOnly:
      return "min-only";
    case ValueList::Mode::kMaxOnly:
      return "max-only";
    case ValueList::Mode::kAtMostOne:
      return "at-most-one";
  }
  return "?";
}

}  // namespace

std::string ExplainPlan(const PlannedQuery& planned) {
  const QueryPlan& plan = planned.plan;
  std::string out;
  out += "== optimization level: " + std::string(OptLevelToString(plan.level)) +
         " ==\n";
  if (planned.cost_based) {
    out += "cost-based selection:\n" + planned.cost_candidates;
    out += "  " + planned.estimate.ToString() + "\n";
  }
  if (!planned.adaptation_notes.empty()) {
    out += "runtime adaptation:\n" + planned.adaptation_notes;
  }
  out += "standard form:\n" + plan.sf.ToString() + "\n";
  out += "strategy 3:\n" + planned.range_extension.ToString();
  out += "strategy 4:\n" + planned.quant_pushdown_summary.ToString();

  out += "collection phase:\n";
  for (const RelationScan& scan : plan.scans) {
    out += "  scan " + scan.relation;
    if (!scan.debug_label.empty() && scan.debug_label != "scan " + scan.relation) {
      out += " [" + scan.debug_label + "]";
    }
    out += "\n";
    for (const ScanAction& action : scan.actions) {
      const QuantifiedVar* qv = plan.sf.FindVar(action.var);
      out += "    " + action.var;
      if (qv != nullptr && qv->range.IsExtended()) {
        out += " IN " + qv->range.ToString(action.var);
      }
      if (plan.IsEliminated(action.var)) out += " (collection-phase only)";
      out += ":\n";
      for (const SingleListEmit& e : action.single_lists) {
        out += "      emit " + plan.structures[e.structure_id].debug_name +
               DescribeGates(e.gates) + "\n";
      }
      for (size_t id : action.index_builds) {
        const IndexBuildSpec& spec = plan.indexes[id];
        out += "      build " + spec.debug_name +
               (spec.ordered ? " (ordered)" : " (hash)") +
               DescribeGates(spec.gates) + "\n";
      }
      for (size_t id : action.value_list_builds) {
        const ValueListSpec& spec = plan.value_lists[id];
        out += StrFormat("      value list %s [%s]%s\n",
                         spec.debug_name.c_str(), ModeName(spec.mode),
                         DescribeGates(spec.gates).c_str());
        for (const QuantProbeGate& g : spec.probe_gates) {
          out += StrFormat("        gated by value list %zu (%s)\n",
                           g.value_list_id,
                           std::string(QuantifierToString(g.quantifier)).c_str());
        }
      }
      for (const IndirectJoinEmit& e : action.ij_emits) {
        out += "      probe " + plan.indexes[e.index_id].debug_name +
               " emit " + plan.structures[e.structure_id].debug_name +
               DescribeGates(e.gates);
        if (!e.corestrictions.empty()) {
          out += StrFormat(" (+%zu mutual restriction(s))",
                           e.corestrictions.size());
        }
        out += "\n";
      }
      for (const QuantProbeEmit& e : action.quant_probes) {
        out += StrFormat(
            "      %s-probe value list %zu emit %s\n",
            std::string(QuantifierToString(e.probe.quantifier)).c_str(),
            e.probe.value_list_id,
            plan.structures[e.structure_id].debug_name.c_str());
      }
    }
  }
  for (const PostScanProbe& p : plan.post_probes) {
    out += "  post-scan probe over " + p.var + " emit " +
           plan.structures[p.emit.structure_id].debug_name + "\n";
  }

  const PipelineShape shape = AnalyzePipelineShape(plan);
  out += "combination phase:\n";
  out += "  mode: pipelined (streamed join iterators; Cursor::Next pulls "
         "a chunk at a time)\n";
  out += StrFormat("  vectorized: %zu-row chunks\n", plan.batch_size);
  if (!shape.existential.empty()) {
    out += "  existential-only vars (semi-join probes, no extension): " +
           Join(shape.existential, ", ") + "\n";
  }
  for (size_t c = 0; c < plan.conj_inputs.size(); ++c) {
    std::vector<std::string> names;
    for (size_t id : plan.conj_inputs[c]) {
      names.push_back(plan.structures[id].debug_name);
    }
    out += StrFormat("  conjunction %zu: join {%s}\n", c,
                     Join(names, ", ").c_str());
    if (plan.conj_inputs[c].size() > 1) {
      out += "    join order: greedy smallest-first at execution\n";
    }
  }
  out += shape.has_division
             ? "  pipelined sink: disjunct streams buffered for division "
               "(blocking), then streamed\n"
             : "  pipelined sink: streaming dedup, straight into "
               "construction\n";
  out += "  union of all conjunctions, then quantifiers right-to-left:\n";
  for (size_t i = plan.sf.prefix.size(); i-- > 0;) {
    const QuantifiedVar& qv = plan.sf.prefix[i];
    if (qv.quantifier == Quantifier::kFree) continue;
    if (plan.IsEliminated(qv.var)) {
      out += "    " + qv.var + ": already evaluated in collection phase\n";
    } else if (qv.quantifier == Quantifier::kSome) {
      out += "    SOME " + qv.var + ": projection\n";
    } else {
      out += "    ALL " + qv.var + ": division\n";
    }
  }
  out += "construction phase: dereference and project\n";
  return out;
}

std::string ExplainEstimatedVsActual(const PlannedQuery& planned,
                                     const ExecStats& actual) {
  const ExecStats& est = planned.estimate.predicted;
  std::string out = "estimated vs actual:\n";
  out += StrFormat("  %-20s %12s %12s\n", "counter", "estimated", "actual");
  auto row = [&](const char* name, uint64_t e, uint64_t a) {
    out += StrFormat("  %-20s %12llu %12llu\n", name,
                     static_cast<unsigned long long>(e),
                     static_cast<unsigned long long>(a));
  };
  row("relations_read", est.relations_read, actual.relations_read);
  row("elements_scanned", est.elements_scanned, actual.elements_scanned);
  row("index_probes", est.index_probes, actual.index_probes);
  row("single_list_refs", est.single_list_refs, actual.single_list_refs);
  row("indirect_join_refs", est.indirect_join_refs,
      actual.indirect_join_refs);
  row("combination_rows", est.combination_rows, actual.combination_rows);
  row("division_input_rows", est.division_input_rows,
      actual.division_input_rows);
  row("quantifier_probes", est.quantifier_probes, actual.quantifier_probes);
  row("comparisons", est.comparisons, actual.comparisons);
  row("dereferences", est.dereferences, actual.dereferences);
  row("total_work", est.TotalWork(), actual.TotalWork());
  row("peak_intermediate_rows", est.peak_intermediate_rows,
      actual.peak_intermediate_rows);
  out += StrFormat("  est time-to-first-tuple: %.0f\n",
                   planned.estimate.est_time_to_first_tuple);
  return out;
}

std::string ExplainAnalyzeReport(const PlannedQuery& planned,
                                 const PipelineProfile& profile,
                                 const ExecStats& actual,
                                 size_t result_tuples, uint64_t wall_ns) {
  std::string out = "analyze:\n";
  if (profile.root() >= 0) {
    out += profile.Render();
  } else {
    out += "  (no operators profiled)\n";
  }
  out += StrFormat(
      "  result: %zu tuple(s) in %.3f ms, total work %llu\n", result_tuples,
      static_cast<double>(wall_ns) / 1e6,
      static_cast<unsigned long long>(actual.TotalWork()));
  if (planned.cost_based) {
    out += ExplainEstimatedVsActual(planned, actual);
  }
  return out;
}

std::string ExplainCollection(const QueryPlan& plan,
                              const CollectionResult& collection) {
  std::string out;
  for (size_t i = 0; i < plan.structures.size(); ++i) {
    out += StrFormat("  %-24s %zu rows\n",
                     plan.structures[i].debug_name.c_str(),
                     collection.structures[i].size());
  }
  for (size_t i = 0; i < plan.indexes.size(); ++i) {
    out += StrFormat("  %-24s %zu entries\n",
                     plan.indexes[i].debug_name.c_str(),
                     collection.indexes[i]->size());
  }
  for (size_t i = 0; i < plan.value_lists.size(); ++i) {
    out += StrFormat("  %-24s %s\n", plan.value_lists[i].debug_name.c_str(),
                     collection.value_lists[i].DebugString().c_str());
  }
  for (const auto& [var, refs] : collection.range_refs) {
    out += StrFormat("  range(%s): %zu refs\n", var.c_str(), refs.size());
  }
  return out;
}

}  // namespace pascalr
