#include "pipeline/shape.h"

#include <algorithm>
#include <set>

namespace pascalr {

PipelineShape AnalyzePipelineShape(const QueryPlan& plan) {
  PipelineShape shape;
  for (const QuantifiedVar& qv : plan.sf.prefix) {
    if (!plan.IsEliminated(qv.var)) shape.active.push_back(qv.Clone());
  }
  for (const QuantifiedVar& qv : shape.active) {
    if (qv.quantifier == Quantifier::kFree) {
      shape.free_names.push_back(qv.var);
    }
  }
  size_t last_all = shape.active.size();
  for (size_t i = 0; i < shape.active.size(); ++i) {
    if (shape.active[i].quantifier == Quantifier::kAll) last_all = i;
  }
  shape.has_division = last_all != shape.active.size();
  for (size_t i = 0; i < shape.active.size(); ++i) {
    const QuantifiedVar& qv = shape.active[i];
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
      shape.tail.push_back(shape.active[i].Clone());
    }
  }
  return shape;
}

std::vector<bool> SemiJoinEligible(
    const JoinOrder& order,
    const std::vector<std::vector<std::string>>& input_cols,
    const PipelineShape& shape) {
  std::vector<bool> semi(order.size(), false);
  if (order.empty()) return semi;

  // Columns required above each step's result: the conjunction's output
  // needs `shape.needed`, and every later step joins on whatever it
  // shares with the result — conservatively, all of its columns (a
  // column the later step would itself have semi-dropped still blocks,
  // which only costs a missed optimisation, never correctness).
  std::vector<std::set<std::string>> required(order.size());
  required.back().insert(shape.needed.begin(), shape.needed.end());
  for (size_t k = order.size() - 1; k-- > 0;) {
    const std::vector<std::string>& later = input_cols[order[k + 1].input];
    required[k] = required[k + 1];
    required[k].insert(later.begin(), later.end());
  }

  std::set<std::string> bound(input_cols[order[0].input].begin(),
                              input_cols[order[0].input].end());
  for (size_t k = 1; k < order.size(); ++k) {
    const std::vector<std::string>& cols = input_cols[order[k].input];
    bool eligible = true;
    bool any_extra = false;
    for (const std::string& col : cols) {
      if (bound.count(col) > 0) continue;  // join column, kept
      any_extra = true;
      if (!shape.IsExistential(col) || required[k].count(col) > 0) {
        eligible = false;
        break;
      }
    }
    // With no extra columns the join is already a pure existence filter
    // (the probe key covers every column of the input, so at most one
    // match per left row); the semi flag is redundant but harmless — keep
    // it off so EXPLAIN ANALYZE only marks genuine column-dropping probes.
    semi[k] = eligible && any_extra;
    bound.insert(cols.begin(), cols.end());
  }
  return semi;
}

}  // namespace pascalr
