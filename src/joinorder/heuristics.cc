#include "joinorder/heuristics.h"

#include <algorithm>

namespace pascalr {

EstRel JoinEstimate(const EstRel& a, const EstRel& b) {
  EstRel out;
  out.rows = a.rows * b.rows;
  for (const auto& [col, dc] : b.distinct) {
    auto it = a.distinct.find(col);
    if (it != a.distinct.end()) {
      out.rows /= std::max(1.0, std::max(it->second, dc));
    }
  }
  out.distinct = a.distinct;
  for (const auto& [col, dc] : b.distinct) {
    auto it = out.distinct.find(col);
    if (it == out.distinct.end()) {
      out.distinct[col] = dc;
    } else {
      it->second = std::min(it->second, dc);
    }
  }
  for (auto& [col, dc] : out.distinct) dc = std::min(dc, out.rows);
  return out;
}

std::vector<std::string> SharedColumns(const EstRel& a, const EstRel& b) {
  std::vector<std::string> shared;
  for (const auto& [col, dc] : b.distinct) {
    if (a.HasCol(col)) shared.push_back(col);
  }
  return shared;
}

JoinOrder GreedyJoinOrder(const std::vector<EstRel>& inputs) {
  JoinOrder order;
  if (inputs.empty()) return order;
  order.reserve(inputs.size());

  // `remaining` holds input positions in original order; erasing keeps
  // their relative order, which is what makes first-wins ties stable.
  std::vector<size_t> remaining;
  for (size_t i = 0; i < inputs.size(); ++i) remaining.push_back(i);

  size_t smallest = 0;
  for (size_t i = 1; i < remaining.size(); ++i) {
    if (inputs[remaining[i]].rows < inputs[remaining[smallest]].rows) {
      smallest = i;
    }
  }
  EstRel acc = inputs[remaining[smallest]];
  order.push_back({remaining[smallest], {}, acc.rows});
  remaining.erase(remaining.begin() + static_cast<long>(smallest));

  while (!remaining.empty()) {
    size_t best = remaining.size();
    size_t best_connected = remaining.size();
    for (size_t i = 0; i < remaining.size(); ++i) {
      bool connected = !SharedColumns(acc, inputs[remaining[i]]).empty();
      if (connected &&
          (best_connected == remaining.size() ||
           inputs[remaining[i]].rows < inputs[remaining[best_connected]].rows)) {
        best_connected = i;
      }
      if (best == remaining.size() ||
          inputs[remaining[i]].rows < inputs[remaining[best]].rows) {
        best = i;
      }
    }
    size_t pick = best_connected != remaining.size() ? best_connected : best;
    const EstRel& next = inputs[remaining[pick]];
    JoinStep step;
    step.input = remaining[pick];
    step.join_columns = SharedColumns(acc, next);
    acc = JoinEstimate(acc, next);
    step.est_rows = acc.rows;
    order.push_back(std::move(step));
    remaining.erase(remaining.begin() + static_cast<long>(pick));
  }
  return order;
}

}  // namespace pascalr
