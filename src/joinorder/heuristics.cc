#include "joinorder/heuristics.h"

#include <algorithm>

namespace pascalr {

const double* EstRel::Find(VarId c) const {
  for (const auto& [col, dc] : distinct) {
    if (col == c) return &dc;
    if (col > c) break;
  }
  return nullptr;
}

void EstRel::Set(VarId c, double d) {
  auto it = std::lower_bound(
      distinct.begin(), distinct.end(), c,
      [](const std::pair<VarId, double>& e, VarId v) { return e.first < v; });
  if (it != distinct.end() && it->first == c) {
    it->second = d;
  } else {
    distinct.insert(it, {c, d});
  }
}

void EstRel::Erase(VarId c) {
  for (auto it = distinct.begin(); it != distinct.end(); ++it) {
    if (it->first == c) {
      distinct.erase(it);
      return;
    }
  }
}

void EstRel::CapDistinct(double cap) {
  for (auto& [col, dc] : distinct) dc = std::min(dc, cap);
}

EstRel JoinEstimate(const EstRel& a, const EstRel& b) {
  EstRel out;
  out.rows = a.rows * b.rows;
  for (const auto& [col, dc] : b.distinct) {
    if (const double* da = a.Find(col)) {
      out.rows /= std::max(1.0, std::max(*da, dc));
    }
  }
  // Merge the two ascending column lists; shared columns keep the smaller
  // distinct count.
  out.distinct.reserve(a.distinct.size() + b.distinct.size());
  auto ai = a.distinct.begin();
  auto bi = b.distinct.begin();
  while (ai != a.distinct.end() || bi != b.distinct.end()) {
    if (bi == b.distinct.end() ||
        (ai != a.distinct.end() && ai->first < bi->first)) {
      out.distinct.push_back(*ai++);
    } else if (ai == a.distinct.end() || bi->first < ai->first) {
      out.distinct.push_back(*bi++);
    } else {
      out.distinct.emplace_back(ai->first, std::min(ai->second, bi->second));
      ++ai;
      ++bi;
    }
  }
  out.CapDistinct(out.rows);
  return out;
}

namespace {

bool SharesColumn(const EstRel& a, const EstRel& b) {
  for (const auto& [col, dc] : b.distinct) {
    if (a.HasCol(col)) return true;
  }
  return false;
}

}  // namespace

std::vector<VarId> SharedColumns(const EstRel& a, const EstRel& b) {
  std::vector<VarId> shared;
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
      bool connected = SharesColumn(acc, inputs[remaining[i]]);
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
