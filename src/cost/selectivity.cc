#include "cost/selectivity.h"

#include <algorithm>
#include <cmath>

#include "base/math_util.h"

namespace pascalr {

namespace {

// Textbook fallbacks when a relation has no fresh statistics.
constexpr double kDefaultEq = 0.1;
constexpr double kDefaultRange = 1.0 / 3.0;

/// Midpoint (numeric rep) of histogram bucket `b`.
double BucketMid(const Histogram& h, size_t b) {
  double span = static_cast<double>(h.hi) - static_cast<double>(h.lo) + 1.0;
  double width = span / static_cast<double>(h.buckets.size());
  return static_cast<double>(h.lo) + (static_cast<double>(b) + 0.5) * width;
}

}  // namespace

BoundsDecision DecideByBounds(const Value& a_min, const Value& a_max,
                              const Value& b_min, const Value& b_max,
                              CompareOp op) {
  if (!a_min.SameKind(b_min)) return BoundsDecision::kUndecided;
  bool a_all_below = a_max.Compare(b_min) < 0;   // every x < every y
  bool b_all_below = b_max.Compare(a_min) < 0;   // every y < every x
  bool a_at_most = a_max.Compare(b_min) <= 0;    // every x <= every y
  bool b_at_most = b_max.Compare(a_min) <= 0;    // every y <= every x
  switch (op) {
    case CompareOp::kEq:
      if (a_all_below || b_all_below) return BoundsDecision::kAlwaysFalse;
      break;
    case CompareOp::kNe:
      if (a_all_below || b_all_below) return BoundsDecision::kAlwaysTrue;
      break;
    case CompareOp::kLt:
      if (a_all_below) return BoundsDecision::kAlwaysTrue;
      if (b_at_most) return BoundsDecision::kAlwaysFalse;
      break;
    case CompareOp::kLe:
      if (a_at_most) return BoundsDecision::kAlwaysTrue;
      if (b_all_below) return BoundsDecision::kAlwaysFalse;
      break;
    case CompareOp::kGt:
      if (b_all_below) return BoundsDecision::kAlwaysTrue;
      if (a_at_most) return BoundsDecision::kAlwaysFalse;
      break;
    case CompareOp::kGe:
      if (b_at_most) return BoundsDecision::kAlwaysTrue;
      if (a_all_below) return BoundsDecision::kAlwaysFalse;
      break;
  }
  return BoundsDecision::kUndecided;
}

double DistinctAfterSelection(double distinct, double rows, double kept) {
  if (distinct <= 0.0 || rows <= 0.0 || kept <= 0.0) return 0.0;
  if (kept >= rows) return distinct;
  // Yao: each distinct value (rows/distinct copies) survives with
  // probability 1 - (1 - kept/rows)^(rows/distinct).
  double per_value = rows / distinct;
  return distinct * (1.0 - std::pow(1.0 - kept / rows, per_value));
}

const std::string& SelectivityEstimator::RelationOf(
    const std::string& var) const {
  return sf_.vars.at(var).relation_name;
}

double SelectivityEstimator::Cardinality(const std::string& relation) const {
  if (const RelationStats* stats = db_.FindFreshStats(relation)) {
    return static_cast<double>(stats->cardinality);
  }
  const Relation* rel = db_.FindRelation(relation);
  return rel == nullptr ? 0.0 : static_cast<double>(rel->cardinality());
}

const ColumnStats* SelectivityEstimator::Stats(const std::string& var,
                                               int pos) const {
  if (pos < 0) return nullptr;
  auto it = sf_.vars.find(var);
  if (it == sf_.vars.end()) return nullptr;
  const RelationStats* stats = db_.FindFreshStats(it->second.relation_name);
  if (stats == nullptr ||
      static_cast<size_t>(pos) >= stats->columns.size()) {
    return nullptr;
  }
  return &stats->columns[static_cast<size_t>(pos)];
}

double SelectivityEstimator::ColumnDistinct(const std::string& var,
                                            int pos) const {
  const ColumnStats* col = Stats(var, pos);
  if (col != nullptr) return static_cast<double>(col->distinct);
  return std::max(1.0, Cardinality(RelationOf(var)));
}

double SelectivityEstimator::RangeSize(const std::string& var) const {
  const QuantifiedVar* qv = sf_.FindVar(var);
  double n = Cardinality(RelationOf(var));
  if (qv == nullptr || !qv->range.IsExtended()) return n;
  return n * Restriction(*qv->range.restriction).selectivity;
}

double SelectivityEstimator::Monadic(const JoinTerm& term) const {
  // Read the term literal-last (the mirrored term when its lhs is the
  // literal).
  const bool mirror = term.lhs.is_literal();
  const Operand& lhs_op = mirror ? term.rhs : term.lhs;
  const Operand& rhs_op = mirror ? term.lhs : term.rhs;
  const CompareOp op = mirror ? MirrorOp(term.op) : term.op;
  if (lhs_op.is_literal()) {
    // Literal vs literal: decided outright.
    return lhs_op.literal.SameKind(rhs_op.literal) &&
                   lhs_op.literal.Satisfies(op, rhs_op.literal)
               ? 1.0
               : 0.0;
  }
  const ColumnStats* lhs = Stats(lhs_op.var, lhs_op.component_pos);
  if (rhs_op.is_literal()) {
    if (lhs != nullptr) return lhs->Selectivity(op, rhs_op.literal);
    return op == CompareOp::kEq
               ? kDefaultEq
               : (op == CompareOp::kNe ? 1.0 - kDefaultEq : kDefaultRange);
  }
  // Two components of the same element, e.g. t.tenr = t.tcnr: treat the
  // components as independent draws.
  const ColumnStats* rhs = Stats(rhs_op.var, rhs_op.component_pos);
  return CrossColumn(lhs, ColumnDistinct(lhs_op.var, lhs_op.component_pos),
                     rhs, ColumnDistinct(rhs_op.var, rhs_op.component_pos),
                     op);
}

double SelectivityEstimator::DyadicPair(const JoinTerm& term) const {
  return PairSelectivity(term.lhs.var, term.lhs.component_pos, term.op,
                         term.rhs.var, term.rhs.component_pos,
                         ColumnDistinct(term.rhs.var,
                                        term.rhs.component_pos));
}

double SelectivityEstimator::PairSelectivity(const std::string& lhs_var,
                                             int lhs_pos, CompareOp op,
                                             const std::string& rhs_var,
                                             int rhs_pos,
                                             double rhs_distinct) const {
  return CrossColumn(Stats(lhs_var, lhs_pos),
                     ColumnDistinct(lhs_var, lhs_pos), Stats(rhs_var, rhs_pos),
                     rhs_distinct, op);
}

double SelectivityEstimator::CrossColumn(const ColumnStats* a, double da,
                                         const ColumnStats* b,
                                         double db_distinct,
                                         CompareOp op) const {
  if (a != nullptr && b != nullptr && a->has_min_max && b->has_min_max) {
    switch (DecideByBounds(a->min, a->max, b->min, b->max, op)) {
      case BoundsDecision::kAlwaysTrue:
        return 1.0;
      case BoundsDecision::kAlwaysFalse:
        return 0.0;
      case BoundsDecision::kUndecided:
        break;
    }
  }
  switch (op) {
    case CompareOp::kEq:
      return 1.0 / std::max(1.0, std::max(da, db_distinct));
    case CompareOp::kNe:
      return 1.0 - 1.0 / std::max(1.0, std::max(da, db_distinct));
    default:
      break;
  }
  // Range comparison: integrate a's histogram against b's cumulative
  // fractions (independence assumption).
  if (a != nullptr && b != nullptr && a->numeric && b->numeric &&
      !a->histogram.empty() && !b->histogram.empty()) {
    const Histogram& ha = a->histogram;
    double acc = 0.0;
    for (size_t i = 0; i < ha.buckets.size(); ++i) {
      if (ha.buckets[i] == 0) continue;
      double share = static_cast<double>(ha.buckets[i]) /
                     static_cast<double>(ha.total);
      int64_t mid = static_cast<int64_t>(std::llround(BucketMid(ha, i)));
      double p = 0.0;
      switch (op) {
        case CompareOp::kLt:  // P(y > mid)
          p = 1.0 - b->histogram.FractionLe(mid);
          break;
        case CompareOp::kLe:  // P(y >= mid)
          p = 1.0 - b->histogram.FractionLt(mid);
          break;
        case CompareOp::kGt:  // P(y < mid)
          p = b->histogram.FractionLt(mid);
          break;
        case CompareOp::kGe:  // P(y <= mid)
          p = b->histogram.FractionLe(mid);
          break;
        default:
          break;
      }
      acc += share * p;
    }
    return Clamp01(acc);
  }
  return kDefaultRange;
}

SelEstimate SelectivityEstimator::Gates(
    const std::vector<JoinTerm>& gates) const {
  SelEstimate out;
  double reach = 1.0;  // probability evaluation reaches this gate
  for (const JoinTerm& g : gates) {
    out.comparisons += reach;
    reach *= Monadic(g);
  }
  out.selectivity = reach;
  return out;
}

SelEstimate SelectivityEstimator::Restriction(const Formula& f) const {
  SelEstimate out;
  switch (f.kind()) {
    case FormulaKind::kConst:
      out.selectivity = f.const_value() ? 1.0 : 0.0;
      return out;
    case FormulaKind::kCompare:
      out.selectivity = Monadic(f.term());
      out.comparisons = 1.0;
      return out;
    case FormulaKind::kNot: {
      out = Restriction(f.child());
      out.selectivity = 1.0 - out.selectivity;
      return out;
    }
    case FormulaKind::kAnd: {
      double reach = 1.0;
      for (const FormulaPtr& c : f.children()) {
        SelEstimate child = Restriction(*c);
        out.comparisons += reach * child.comparisons;
        reach *= child.selectivity;
      }
      out.selectivity = reach;
      return out;
    }
    case FormulaKind::kOr: {
      double reach = 1.0;  // probability every previous disjunct failed
      for (const FormulaPtr& c : f.children()) {
        SelEstimate child = Restriction(*c);
        out.comparisons += reach * child.comparisons;
        reach *= 1.0 - child.selectivity;
      }
      out.selectivity = 1.0 - reach;
      return out;
    }
    case FormulaKind::kQuant:
      // Restrictions are quantifier-free by construction; EvalRestriction
      // answers false.
      out.selectivity = 0.0;
      return out;
  }
  return out;
}

double SelectivityEstimator::QuantProbe(CompareOp op, Quantifier q,
                                        const std::string& probe_var,
                                        int probe_pos,
                                        const std::string& list_var,
                                        int list_pos, double list_count,
                                        double list_distinct) const {
  if (list_count < 0.5) {
    // ValueList semantics on empty lists: SOME -> false, ALL -> true.
    return q == Quantifier::kSome ? 0.0 : 1.0;
  }
  const ColumnStats* probe = Stats(probe_var, probe_pos);
  const ColumnStats* list = Stats(list_var, list_pos);
  double d_probe = std::max(1.0, ColumnDistinct(probe_var, probe_pos));
  double d_list = std::max(1.0, std::min(list_distinct, list_count));

  // Column bounds can decide `x op w` for every possible pair — then the
  // quantifier is immaterial (the list is non-empty here). Bounds cover
  // the full source column, so conclusions stay valid for any gated
  // subset.
  if (probe != nullptr && list != nullptr && probe->has_min_max &&
      list->has_min_max) {
    switch (DecideByBounds(probe->min, probe->max, list->min, list->max, op)) {
      case BoundsDecision::kAlwaysTrue:
        return 1.0;
      case BoundsDecision::kAlwaysFalse:
        return 0.0;
      case BoundsDecision::kUndecided:
        break;
    }
  }

  // min/max of the list approximated by the source column's extremes.
  int64_t list_min = 0, list_max = 0;
  bool have_bounds = false;
  if (list != nullptr && list->numeric && list->has_min_max) {
    have_bounds = NumericValueRep(list->min, &list_min) &&
                  NumericValueRep(list->max, &list_max);
  }
  const Histogram* ph =
      (probe != nullptr && probe->numeric && !probe->histogram.empty())
          ? &probe->histogram
          : nullptr;

  auto some_eq = [&]() {
    // Containment: the list's distinct values sit inside the probe
    // column's domain.
    return Clamp01(d_list / d_probe);
  };

  switch (op) {
    case CompareOp::kEq:
      if (q == Quantifier::kSome) return some_eq();
      // ALL x = w: the list must be single-valued and x must hit it.
      return d_list <= 1.5 ? Clamp01(1.0 / d_probe) : 0.0;
    case CompareOp::kNe:
      if (q == Quantifier::kSome) {
        // Some list value differs from x — certain once the list has two
        // distinct values.
        return d_list >= 1.5 ? 1.0 : Clamp01(1.0 - 1.0 / d_probe);
      }
      // ALL x <> w: x avoids every list value.
      return Clamp01(1.0 - some_eq());
    case CompareOp::kLt:
      if (ph != nullptr && have_bounds) {
        return q == Quantifier::kSome ? ph->FractionLt(list_max)
                                      : ph->FractionLt(list_min);
      }
      break;
    case CompareOp::kLe:
      if (ph != nullptr && have_bounds) {
        return q == Quantifier::kSome ? ph->FractionLe(list_max)
                                      : ph->FractionLe(list_min);
      }
      break;
    case CompareOp::kGt:
      if (ph != nullptr && have_bounds) {
        return q == Quantifier::kSome
                   ? Clamp01(1.0 - ph->FractionLe(list_min))
                   : Clamp01(1.0 - ph->FractionLe(list_max));
      }
      break;
    case CompareOp::kGe:
      if (ph != nullptr && have_bounds) {
        return q == Quantifier::kSome
                   ? Clamp01(1.0 - ph->FractionLt(list_min))
                   : Clamp01(1.0 - ph->FractionLt(list_max));
      }
      break;
  }
  // No histogram: a SOME range probe usually succeeds against a sizeable
  // list; an ALL range probe usually does not.
  return q == Quantifier::kSome ? 2.0 / 3.0 : 1.0 / 3.0;
}

}  // namespace pascalr
