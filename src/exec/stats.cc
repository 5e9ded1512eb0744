#include "exec/stats.h"

#include "base/str_util.h"

namespace pascalr {

void ExecStats::Merge(const ExecStats& o) {
  relations_read += o.relations_read;
  elements_scanned += o.elements_scanned;
  index_probes += o.index_probes;
  single_list_refs += o.single_list_refs;
  indirect_join_refs += o.indirect_join_refs;
  combination_rows += o.combination_rows;
  division_input_rows += o.division_input_rows;
  quantifier_probes += o.quantifier_probes;
  comparisons += o.comparisons;
  dereferences += o.dereferences;
  replans += o.replans;
  permanent_index_hits += o.permanent_index_hits;
  structure_elements_built += o.structure_elements_built;
  batches_emitted += o.batches_emitted;
  morsels_dispatched += o.morsels_dispatched;
  // A memory high-water mark, not a flow: accumulating runs keeps the
  // largest peak seen, it does not sum them.
  if (o.peak_intermediate_rows > peak_intermediate_rows) {
    peak_intermediate_rows = o.peak_intermediate_rows;
  }
}

std::string ExecStats::ToString() const {
  return StrFormat(
      "relations_read=%llu elements_scanned=%llu index_probes=%llu "
      "single_list_refs=%llu indirect_join_refs=%llu combination_rows=%llu "
      "division_input_rows=%llu quantifier_probes=%llu comparisons=%llu "
      "dereferences=%llu replans=%llu permanent_index_hits=%llu "
      "structure_elements_built=%llu "
      "batches_emitted=%llu morsels_dispatched=%llu "
      "peak_intermediate_rows=%llu",
      static_cast<unsigned long long>(relations_read),
      static_cast<unsigned long long>(elements_scanned),
      static_cast<unsigned long long>(index_probes),
      static_cast<unsigned long long>(single_list_refs),
      static_cast<unsigned long long>(indirect_join_refs),
      static_cast<unsigned long long>(combination_rows),
      static_cast<unsigned long long>(division_input_rows),
      static_cast<unsigned long long>(quantifier_probes),
      static_cast<unsigned long long>(comparisons),
      static_cast<unsigned long long>(dereferences),
      static_cast<unsigned long long>(replans),
      static_cast<unsigned long long>(permanent_index_hits),
      static_cast<unsigned long long>(structure_elements_built),
      static_cast<unsigned long long>(batches_emitted),
      static_cast<unsigned long long>(morsels_dispatched),
      static_cast<unsigned long long>(peak_intermediate_rows));
}

}  // namespace pascalr
