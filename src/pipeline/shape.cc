#include "pipeline/shape.h"

namespace pascalr {

PipelineShape AnalyzePipelineShape(const QueryPlan& plan) {
  PipelineShape shape;
  shape.active.reserve(plan.sf.prefix.size());
  shape.needed.reserve(plan.sf.prefix.size());
  for (const QuantifiedVar& qv : plan.sf.prefix) {
    if (!plan.IsEliminated(qv.var)) shape.active.push_back(&qv);
  }
  for (const QuantifiedVar* qv : shape.active) {
    if (qv->quantifier == Quantifier::kFree) {
      shape.free_names.push_back(qv->var);
    }
  }
  size_t last_all = shape.active.size();
  for (size_t i = 0; i < shape.active.size(); ++i) {
    if (shape.active[i]->quantifier == Quantifier::kAll) last_all = i;
  }
  shape.has_division = last_all != shape.active.size();
  for (size_t i = 0; i < shape.active.size(); ++i) {
    const QuantifiedVar& qv = *shape.active[i];
    bool survives = qv.quantifier == Quantifier::kFree ||
                    (shape.has_division && i <= last_all);
    if (survives) {
      shape.needed.push_back(qv.var);
    } else {
      shape.existential.push_back(qv.var);
    }
  }
  if (shape.has_division) {
    for (size_t i = 0; i <= last_all; ++i) {
      shape.tail.push_back(shape.active[i]);
    }
  }
  // The form's variables; prefix variables too, for plans built without
  // bindings.
  std::vector<std::string> names;
  names.reserve(plan.sf.vars.size() + plan.sf.prefix.size());
  for (const auto& [var, binding] : plan.sf.vars) names.push_back(var);
  for (const QuantifiedVar& qv : plan.sf.prefix) names.push_back(qv.var);
  shape.ids = VarIds::FromNames(std::move(names));
  shape.needed_mask.assign(shape.ids.size(), false);
  shape.existential_mask.assign(shape.ids.size(), false);
  for (const std::string& v : shape.needed) {
    shape.needed_mask[shape.ids.Of(v)] = true;
  }
  for (const std::string& v : shape.existential) {
    shape.existential_mask[shape.ids.Of(v)] = true;
  }
  return shape;
}

std::vector<VarId> PipelineShape::IdsOf(
    const std::vector<std::string>& cols) const {
  std::vector<VarId> out;
  out.reserve(cols.size());
  for (const std::string& col : cols) out.push_back(ids.Of(col));
  return out;
}

std::vector<bool> SemiJoinEligible(
    const JoinOrder& order, const std::vector<std::vector<VarId>>& input_cols,
    const PipelineShape& shape) {
  std::vector<bool> semi(order.size(), false);
  if (order.empty()) return semi;

  // Columns required above step k's result: the conjunction's output
  // needs `shape.needed`, and every later step joins on whatever it
  // shares with the result — conservatively, all of its columns (a
  // column the later step would itself have semi-dropped still blocks,
  // which only costs a missed optimisation, never correctness). So a
  // column is required above step k when it is needed or when a step
  // after k carries it: its last carrying step is later than k.
  std::vector<size_t> last_step(shape.ids.size(), 0);
  for (size_t k = 0; k < order.size(); ++k) {
    for (VarId col : input_cols[order[k].input]) last_step[col] = k;
  }

  std::vector<bool> bound(shape.ids.size(), false);
  for (VarId col : input_cols[order[0].input]) bound[col] = true;
  for (size_t k = 1; k < order.size(); ++k) {
    const std::vector<VarId>& cols = input_cols[order[k].input];
    bool eligible = true;
    bool any_extra = false;
    for (VarId col : cols) {
      if (bound[col]) continue;  // join column, kept
      any_extra = true;
      if (!shape.existential_mask[col] || shape.needed_mask[col] ||
          last_step[col] > k) {
        eligible = false;
        break;
      }
    }
    // With no extra columns the join is already a pure existence filter
    // (the probe key covers every column of the input, so at most one
    // match per left row); the semi flag is redundant but harmless — keep
    // it off so EXPLAIN ANALYZE only marks genuine column-dropping probes.
    semi[k] = eligible && any_extra;
    for (VarId col : cols) bound[col] = true;
  }
  return semi;
}

}  // namespace pascalr
