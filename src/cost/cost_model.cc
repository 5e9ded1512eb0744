#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/counters.h"
#include "base/math_util.h"
#include "base/str_util.h"
#include "cost/selectivity.h"
#include "exec/collection.h"
#include "joinorder/heuristics.h"
#include "pipeline/shape.h"

namespace pascalr {

namespace {

double Log2Of(double x) { return std::log2(std::max(2.0, x)); }

class CostWalker {
 public:
  CostWalker(const QueryPlan& plan, const Database& db)
      : plan_(plan), db_(db), sel_(db, plan.sf) {}

  CostEstimate Run() {
    Prepare();
    WalkCombination();
    return Finish();
  }

 private:
  void Prepare() {
    ++GlobalCompileCounters().collection_walks;
    shape_ = AnalyzePipelineShape(plan_);
    structure_cols_.clear();
    structure_cols_.reserve(plan_.structures.size());
    for (const StructureDef& def : plan_.structures) {
      structure_cols_.push_back(shape_.IdsOf(def.columns));
    }
    range_size_.assign(shape_.ids.size(), -1.0);
    structure_rows_.assign(plan_.structures.size(), 0.0);
    index_rows_.assign(plan_.indexes.size(), 0.0);
    index_distinct_.assign(plan_.indexes.size(), 1.0);
    vl_count_.assign(plan_.value_lists.size(), 0.0);
    vl_distinct_.assign(plan_.value_lists.size(), 0.0);
    borrowed_.assign(plan_.indexes.size(), false);
    for (const IndexBuildSpec& spec : plan_.indexes) {
      borrowed_[spec.id] = IndexBorrowsPermanent(plan_, db_, spec);
    }
    WalkCollection();
  }
  // ----------------------------------------------------------- collection

  void WalkCollection() {
    for (const RelationScan& scan : plan_.scans) {
      relations_read_ += 1.0;
      double n = sel_.Cardinality(scan.relation);
      elements_scanned_ += n;
      for (const ScanAction& action : scan.actions) {
        WalkAction(action, n);
      }
    }
    for (const PostScanProbe& probe : plan_.post_probes) {
      // The post-scan pass iterates the variable's already-restricted
      // materialised range.
      double pass = RangeSize(shape_.ids.Of(probe.var));
      elements_scanned_ += pass;
      WalkIjEmit(probe.emit, probe.var, pass);
    }
  }

  void WalkAction(const ScanAction& action, double n) {
    double pass = n;
    const QuantifiedVar* qv = plan_.sf.FindVar(action.var);
    if (qv != nullptr && qv->range.IsExtended()) {
      SelEstimate rest = sel_.Restriction(*qv->range.restriction);
      comparisons_ += n * rest.comparisons;
      pass = n * rest.selectivity;
    }
    // The range size the combination walk extends by: the same product
    // SelectivityEstimator::RangeSize computes, already in hand here.
    range_size_[shape_.ids.Of(action.var)] = pass;

    for (const SingleListEmit& emit : action.single_lists) {
      SelEstimate g = sel_.Gates(emit.gates);
      comparisons_ += pass * g.comparisons;
      double emitted = pass * g.selectivity;
      single_list_refs_ += emitted;
      structure_rows_[emit.structure_id] += emitted;
    }

    for (size_t index_id : action.index_builds) {
      const IndexBuildSpec& spec = plan_.indexes[index_id];
      if (borrowed_[index_id]) {
        permanent_index_hits_ += 1.0;
        double full = sel_.Cardinality(RelationOf(spec.var));
        index_rows_[index_id] = full;
        index_distinct_[index_id] =
            std::max(1.0, sel_.ColumnDistinct(spec.var, spec.component_pos));
        continue;
      }
      SelEstimate g = sel_.Gates(spec.gates);
      comparisons_ += pass * g.comparisons;
      double rows = pass * g.selectivity;
      index_rows_[index_id] = rows;
      index_distinct_[index_id] = std::max(
          1.0,
          DistinctAfterSelection(
              sel_.ColumnDistinct(spec.var, spec.component_pos),
              sel_.Cardinality(RelationOf(spec.var)), rows));
      // Build effort is not an ExecStats counter; nudge the ranking so a
      // pointless ordered index never beats a hash index.
      extra_cost_ += rows * (spec.ordered ? 0.25 * Log2Of(rows) : 0.1);
    }

    for (size_t vl_id : action.value_list_builds) {
      const ValueListSpec& spec = plan_.value_lists[vl_id];
      SelEstimate g = sel_.Gates(spec.gates);
      comparisons_ += pass * g.comparisons;
      double passing = pass * g.selectivity;
      for (const QuantProbeGate& gate : spec.probe_gates) {
        quantifier_probes_ += passing;
        passing *= ProbeSelectivity(gate, spec.var);
      }
      vl_count_[vl_id] = passing;
      vl_distinct_[vl_id] = std::max(
          passing > 0.0 ? 1.0 : 0.0,
          DistinctAfterSelection(
              sel_.ColumnDistinct(spec.var, spec.component_pos),
              sel_.Cardinality(RelationOf(spec.var)), passing));
    }

    for (const IndirectJoinEmit& emit : action.ij_emits) {
      WalkIjEmit(emit, action.var, pass);
    }

    for (const QuantProbeEmit& emit : action.quant_probes) {
      SelEstimate g = sel_.Gates(emit.gates);
      comparisons_ += pass * g.comparisons;
      double passing = pass * g.selectivity;
      quantifier_probes_ += passing;
      double holds = passing * ProbeSelectivity(emit.probe, action.var);
      single_list_refs_ += holds;
      structure_rows_[emit.structure_id] += holds;
    }
  }

  void WalkIjEmit(const IndirectJoinEmit& emit, const std::string& var,
                  double pass) {
    SelEstimate g = sel_.Gates(emit.gates);
    comparisons_ += pass * g.comparisons;
    double candidates = pass * g.selectivity;
    // Mutual restriction checks short-circuit at the first empty co-probe.
    for (const ProbeCheck& check : emit.corestrictions) {
      index_probes_ += candidates;
      NudgeProbe(check.index_id, candidates);
      const IndexBuildSpec& far = plan_.indexes[check.index_id];
      candidates *= sel_.QuantProbe(
          check.op, Quantifier::kSome, var, check.probe_component_pos,
          far.var, far.component_pos, index_rows_[check.index_id],
          index_distinct_[check.index_id]);
    }
    index_probes_ += candidates;
    NudgeProbe(emit.index_id, candidates);

    const IndexBuildSpec& spec = plan_.indexes[emit.index_id];
    double pair_sel = sel_.PairSelectivity(
        var, emit.probe_component_pos, emit.op, spec.var, spec.component_pos,
        std::max(1.0, index_distinct_[emit.index_id]));
    double pairs = candidates * index_rows_[emit.index_id] * pair_sel;
    indirect_join_refs_ += 2.0 * pairs;
    structure_rows_[emit.structure_id] += pairs;
  }

  double ProbeSelectivity(const QuantProbeGate& probe,
                          const std::string& probe_var) {
    const ValueListSpec& vl = plan_.value_lists[probe.value_list_id];
    return sel_.QuantProbe(probe.op, probe.quantifier, probe_var,
                           probe.probe_component_pos, vl.var,
                           vl.component_pos, vl_count_[probe.value_list_id],
                           vl_distinct_[probe.value_list_id]);
  }

  void NudgeProbe(size_t index_id, double probes) {
    // Borrowed permanent indexes ignore the spec's ordered flag, so only
    // genuinely transient sorted indexes pay the log probe factor.
    if (plan_.indexes[index_id].ordered && !borrowed_[index_id]) {
      extra_cost_ += probes * 0.25 * Log2Of(index_rows_[index_id]);
    }
  }

  const std::string& RelationOf(const std::string& var) const {
    return plan_.sf.vars.at(var).relation_name;
  }

  /// Elements of `v`'s range: recorded by its scan action, else estimated.
  double RangeSize(VarId v) {
    if (range_size_[v] < 0.0) {
      range_size_[v] = sel_.RangeSize(shape_.ids.Name(v));
    }
    return range_size_[v];
  }

  // ---------------------------------------------------------- combination

  static double CappedProduct(const EstRel& rel, VarId skip = kNoVar) {
    double d = 1.0;
    for (const auto& [col, dc] : rel.distinct) {
      if (col == skip) continue;
      d = std::min(1e18, d * std::max(1.0, dc));
    }
    return d;
  }

  /// Distinct rows after projecting `rows` draws onto a key space of size
  /// `domain` (the occupancy estimate used for Project / grouping).
  static double ProjectedRows(double rows, double domain) {
    if (rows <= 0.0 || domain <= 0.0) return 0.0;
    double out = domain * (1.0 - std::exp(-rows / domain));
    return std::min(out, rows);
  }

  /// Prices the streamed combination (src/pipeline/): joins emit without
  /// materialising, purely existential probes run as semi-joins (at most
  /// one emission per outer row) or skip their extension entirely, and
  /// only blocking buffers — the division input and the dedup sink — hold
  /// rows. Mirrors the executor's compile.cc decisions via the shared
  /// shape analysis, over the executor's greedy smallest-first order.
  void WalkCombination() {
    const PipelineShape& shape = shape_;
    has_division_ = shape.has_division;
    if (plan_.sf.matrix.IsFalse()) return;

    // Active variables bound their columns' distinct counts by their
    // range sizes; a structure column of no active variable (none in
    // practice) is bounded by the structure's rows instead.
    std::vector<bool> is_active(shape.ids.size(), false);
    std::vector<VarId> active;
    for (const QuantifiedVar* qv : shape.active) {
      const VarId v = shape.ids.Of(qv->var);
      active.push_back(v);
      is_active[v] = true;
      RangeSize(v);
    }
    const std::vector<double>& range_size = range_size_;
    std::vector<VarId> needed;
    for (const std::string& col : shape.needed) {
      needed.push_back(shape.ids.Of(col));
    }

    double comb = 0.0;           // streamed combination_rows
    double division_in = 0.0;    // pipelined division input rows
    double rows_to_sink = 0.0;   // pre-dedup rows reaching the sink/buffer
    EstRel sink;                 // distinct-count view of the sink columns
    for (VarId col : needed) sink.Set(col, 0.0);

    std::vector<EstRel> inputs;
    std::vector<std::vector<VarId>> input_cols;
    for (size_t c = 0; c < plan_.sf.matrix.disjuncts.size(); ++c) {
      inputs.clear();
      input_cols.clear();
      for (size_t id : plan_.conj_inputs[c]) {
        EstRel e;
        e.rows = structure_rows_[id];
        for (VarId col : structure_cols_[id]) {
          e.Set(col, std::min(e.rows, is_active[col] ? range_size[col]
                                                     : e.rows));
        }
        inputs.push_back(std::move(e));
        input_cols.push_back(structure_cols_[id]);
      }
      EstRel acc;
      if (inputs.empty()) {
        acc.rows = 1.0;
      } else {
        JoinOrder order = GreedyJoinOrder(inputs);
        std::vector<bool> semi = SemiJoinEligible(order, input_cols, shape);
        acc = inputs[order[0].input];
        for (size_t k = 1; k < order.size(); ++k) {
          const EstRel& r = inputs[order[k].input];
          EstRel est = JoinEstimate(acc, r);
          if (semi[k]) {
            // EXISTS-style probe: at most one emission per outer row, and
            // the right side's existential columns are dropped.
            est.rows = std::min(est.rows, acc.rows);
            for (const auto& [col, dc] : r.distinct) {
              (void)dc;
              if (!acc.HasCol(col)) est.Erase(col);
            }
            est.CapDistinct(est.rows);
          }
          comb += est.rows;
          acc = std::move(est);
        }
      }
      // Extension: needed variables only; purely existential ones are
      // witnessed by semi-joins or a non-empty range instead.
      for (VarId v : active) {
        if (acc.HasCol(v)) continue;
        if (shape.existential_mask[v]) {
          if (range_size[v] <= 0.0) acc.rows = 0.0;  // annihilated
          continue;
        }
        acc.rows *= std::max(0.0, range_size[v]);
        acc.Set(v, std::min(range_size[v], acc.rows));
        acc.CapDistinct(acc.rows);
        comb += acc.rows;
      }
      // Projection onto the needed layout (streamed, no dedup). Chains
      // already emitting exactly the needed columns skip the copy in
      // compile.cc; mirror that (column order is invisible here, so this
      // is the optimistic estimate).
      bool aligned = acc.distinct.size() == needed.size();
      for (VarId col : needed) aligned = aligned && acc.HasCol(col);
      if (!aligned) comb += acc.rows;
      rows_to_sink += acc.rows;
      for (VarId col : needed) {
        if (const double* dc = acc.Find(col)) {
          double* sink_dc = sink.Find(col);
          *sink_dc = std::max(*sink_dc, *dc);
        }
      }
    }

    sink.rows = ProjectedRows(rows_to_sink, CappedProduct(sink));
    double pipe_peak = 0.0;
    double final_rows = sink.rows;
    if (shape.has_division) {
      comb += sink.rows;  // buffer Adds (set semantics)
      EstRel cur = sink;
      double live = cur.rows;
      for (size_t i = shape.tail.size(); i-- > 0;) {
        const QuantifiedVar& qv = *shape.tail[i];
        if (qv.quantifier == Quantifier::kFree) break;
        const VarId v = active[i];  // the tail is a prefix of `active`
        double rows_out;
        if (qv.quantifier == Quantifier::kSome) {
          rows_out = ProjectedRows(cur.rows, CappedProduct(cur, v));
        } else {
          division_in += cur.rows;
          double divisor = std::max(1.0, range_size[v]);
          double groups = ProjectedRows(cur.rows, CappedProduct(cur, v));
          double per_group = groups > 0.0 ? cur.rows / groups : 0.0;
          double coverage = Clamp01(per_group / divisor);
          rows_out = groups * std::pow(coverage, std::min(divisor, 32.0));
        }
        comb += rows_out;
        pipe_peak = std::max(pipe_peak, cur.rows + rows_out);
        cur.rows = rows_out;
        cur.Erase(v);
        cur.CapDistinct(rows_out);
        live = rows_out;
      }
      comb += live;  // final projection onto the free variables
      pipe_peak = std::max(pipe_peak, 2.0 * live);
      final_rows = live;
    } else {
      comb += sink.rows;  // dedup-sink emissions
      pipe_peak = std::max(pipe_peak, sink.rows);
    }

    combination_rows_ = comb;
    division_input_rows_ = division_in;
    peak_ = pipe_peak;
    final_rows_ = final_rows;
  }

  // --------------------------------------------------------------- finish

  CostEstimate Finish() {
    dereferences_ =
        final_rows_ * static_cast<double>(plan_.sf.projection.size());

    CostEstimate est;
    // Blow-up candidates (uncapped Cartesian estimates) can exceed the
    // int64 domain where llround is undefined; saturate instead.
    auto round = [](double x) {
      constexpr double kMaxCounter = 9.0e18;
      return static_cast<uint64_t>(
          std::llround(std::min(std::max(0.0, x), kMaxCounter)));
    };
    est.predicted.relations_read = round(relations_read_);
    est.predicted.elements_scanned = round(elements_scanned_);
    est.predicted.index_probes = round(index_probes_);
    est.predicted.single_list_refs = round(single_list_refs_);
    est.predicted.indirect_join_refs = round(indirect_join_refs_);
    est.predicted.combination_rows = round(combination_rows_);
    est.predicted.division_input_rows = round(division_input_rows_);
    est.predicted.quantifier_probes = round(quantifier_probes_);
    est.predicted.comparisons = round(comparisons_);
    est.predicted.dereferences = round(dereferences_);
    est.predicted.permanent_index_hits = round(permanent_index_hits_);
    est.predicted.peak_intermediate_rows = round(peak_);
    // Per-batch drain term: one unit per root chunk refill. At the
    // default 1024-row chunks this is noise; SET BATCH 1's 1-row chunks
    // pay it once per row — the per-row pull overhead batching amortises.
    const double batch =
        static_cast<double>(plan_.batch_size > 0 ? plan_.batch_size : 1);
    est.est_batches = std::ceil(final_rows_ / batch);
    const double work = elements_scanned_ + index_probes_ +
                        single_list_refs_ + indirect_join_refs_ +
                        combination_rows_ + division_input_rows_ +
                        quantifier_probes_ + comparisons_ + dereferences_ +
                        est.est_batches;
    est.weighted_cost = work + extra_cost_;
    est.est_time_to_first_tuple = EstimateTimeToFirstTuple(work);
    return est;
  }

  /// Work before the first tuple, out of the run's `work`: the whole
  /// collection phase plus one row's join/construction work. Coarse by
  /// design — it feeds bench/EXPLAIN, it is not a counter prediction.
  double EstimateTimeToFirstTuple(double work) const {
    const double proj = static_cast<double>(plan_.sf.projection.size());
    // A surviving ALL buffers the whole stream before the first row can
    // leave the tail.
    if (has_division_) {
      return std::max(0.0, work - dereferences_) + proj;
    }
    const double collection_work = elements_scanned_ + index_probes_ +
                                   single_list_refs_ + indirect_join_refs_ +
                                   quantifier_probes_ + comparisons_;
    const double inputs0 = plan_.conj_inputs.empty()
                               ? 0.0
                               : static_cast<double>(plan_.conj_inputs[0].size());
    return collection_work + inputs0 + 1.0 + proj;
  }

  const QueryPlan& plan_;
  const Database& db_;
  SelectivityEstimator sel_;
  PipelineShape shape_;
  /// Per structure, its columns' ids under shape_.ids.
  std::vector<std::vector<VarId>> structure_cols_;
  /// Per variable id, the elements of its range; negative until known.
  std::vector<double> range_size_;

  double relations_read_ = 0.0;
  double elements_scanned_ = 0.0;
  double index_probes_ = 0.0;
  double single_list_refs_ = 0.0;
  double indirect_join_refs_ = 0.0;
  double combination_rows_ = 0.0;
  double division_input_rows_ = 0.0;
  double quantifier_probes_ = 0.0;
  double comparisons_ = 0.0;
  double dereferences_ = 0.0;
  double permanent_index_hits_ = 0.0;
  double extra_cost_ = 0.0;
  double final_rows_ = 0.0;
  double peak_ = 0.0;
  bool has_division_ = false;

  std::vector<double> structure_rows_;
  std::vector<double> index_rows_;
  std::vector<double> index_distinct_;
  std::vector<double> vl_count_;
  std::vector<double> vl_distinct_;
  std::vector<bool> borrowed_;
};

}  // namespace

bool IndexBorrowsPermanent(const QueryPlan& plan, const Database& db,
                           const IndexBuildSpec& spec) {
  if (!spec.try_permanent || !spec.gates.empty()) return false;
  auto it = plan.sf.vars.find(spec.var);
  if (it == plan.sf.vars.end() || it->second.relation == nullptr) {
    return false;
  }
  const Schema& schema = it->second.relation->schema();
  if (spec.component_pos < 0 ||
      static_cast<size_t>(spec.component_pos) >= schema.num_components()) {
    return false;
  }
  return db.FindFreshIndex(
             it->second.relation_name,
             schema.component(static_cast<size_t>(spec.component_pos))
                 .name) != nullptr;
}

std::string CostEstimate::ToString() const {
  return StrFormat("estimated work %llu (weighted %.0f): %s",
                   static_cast<unsigned long long>(predicted.TotalWork()),
                   weighted_cost, predicted.ToString().c_str());
}

CostEstimate EstimatePlanCost(const QueryPlan& plan, const Database& db) {
  return CostWalker(plan, db).Run();
}

}  // namespace pascalr
