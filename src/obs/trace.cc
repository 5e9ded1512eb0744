#include "obs/trace.h"

#include <chrono>

#include "base/str_util.h"

namespace pascalr {

namespace {

thread_local Tracer* g_current_tracer = nullptr;

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void AppendDelta(std::vector<std::pair<std::string, uint64_t>>* out,
                 const char* name, uint64_t base, uint64_t now) {
  if (now > base) out->emplace_back(name, now - base);
}

}  // namespace

std::vector<std::pair<std::string, uint64_t>> ExecStatsDelta(
    const ExecStats& base, const ExecStats& now) {
  std::vector<std::pair<std::string, uint64_t>> out;
  AppendDelta(&out, "relations_read", base.relations_read, now.relations_read);
  AppendDelta(&out, "elements_scanned", base.elements_scanned,
              now.elements_scanned);
  AppendDelta(&out, "index_probes", base.index_probes, now.index_probes);
  AppendDelta(&out, "single_list_refs", base.single_list_refs,
              now.single_list_refs);
  AppendDelta(&out, "indirect_join_refs", base.indirect_join_refs,
              now.indirect_join_refs);
  AppendDelta(&out, "combination_rows", base.combination_rows,
              now.combination_rows);
  AppendDelta(&out, "division_input_rows", base.division_input_rows,
              now.division_input_rows);
  AppendDelta(&out, "quantifier_probes", base.quantifier_probes,
              now.quantifier_probes);
  AppendDelta(&out, "comparisons", base.comparisons, now.comparisons);
  AppendDelta(&out, "dereferences", base.dereferences, now.dereferences);
  AppendDelta(&out, "replans", base.replans, now.replans);
  AppendDelta(&out, "permanent_index_hits", base.permanent_index_hits,
              now.permanent_index_hits);
  AppendDelta(&out, "structure_elements_built", base.structure_elements_built,
              now.structure_elements_built);
  AppendDelta(&out, "peak_intermediate_rows", base.peak_intermediate_rows,
              now.peak_intermediate_rows);
  return out;
}

std::vector<std::pair<std::string, uint64_t>> CompileCountersDelta(
    const CompileCounters& base, const CompileCounters& now) {
  std::vector<std::pair<std::string, uint64_t>> out;
  AppendDelta(&out, "parses", base.parses, now.parses);
  AppendDelta(&out, "binds", base.binds, now.binds);
  AppendDelta(&out, "standard_forms", base.standard_forms,
              now.standard_forms);
  AppendDelta(&out, "plans", base.plans, now.plans);
  AppendDelta(&out, "plan_searches", base.plan_searches, now.plan_searches);
  AppendDelta(&out, "collection_walks", base.collection_walks,
              now.collection_walks);
  return out;
}

std::string QueryTrace::ToString() const {
  std::string out = StrFormat("trace: %s\n", label.c_str());
  // Spans are in open order with parent-before-child, so depth is
  // recoverable with one left-to-right pass.
  std::vector<int> depth(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) depth[i] = depth[spans[i].parent] + 1;
    std::string indent(static_cast<size_t>(depth[i]) * 2, ' ');
    out += StrFormat("%s%s", indent.c_str(), spans[i].name.c_str());
    if (!spans[i].detail.empty()) {
      out += StrFormat(" [%s]", spans[i].detail.c_str());
    }
    out += StrFormat("  %.3f ms",
                     static_cast<double>(spans[i].dur_ns) / 1e6);
    for (const auto& [name, value] : spans[i].counters) {
      out += StrFormat("  %s=%llu", name.c_str(),
                       static_cast<unsigned long long>(value));
    }
    out += "\n";
  }
  return out;
}

Tracer::Tracer() : epoch_ns_(SteadyNowNs()) {}

Tracer* Tracer::Current() { return g_current_tracer; }

uint64_t Tracer::NowNs() const { return SteadyNowNs() - epoch_ns_; }

int Tracer::BeginQuery(const std::string& kind, const std::string& label) {
  if (!stack_.empty()) return OpenSpan(kind, label);
  traces_.push_back(QueryTrace{});
  QueryTrace& trace = traces_.back();
  trace.label = label.empty() ? kind : label;
  TraceSpan root;
  root.name = kind;
  root.detail = label;
  root.parent = -1;
  root.start_ns = NowNs();
  trace.spans.push_back(std::move(root));
  stack_.push_back(0);
  return 0;
}

int Tracer::OpenSpan(const std::string& name, const std::string& detail) {
  if (stack_.empty() || traces_.empty()) return -1;
  QueryTrace& trace = traces_.back();
  TraceSpan span;
  span.name = name;
  span.detail = detail;
  span.parent = stack_.back();
  span.start_ns = NowNs();
  int id = static_cast<int>(trace.spans.size());
  trace.spans.push_back(std::move(span));
  stack_.push_back(id);
  return id;
}

void Tracer::CloseSpan(
    int id, std::vector<std::pair<std::string, uint64_t>> counters) {
  if (id < 0 || traces_.empty()) return;
  QueryTrace& trace = traces_.back();
  if (static_cast<size_t>(id) >= trace.spans.size()) return;
  TraceSpan& span = trace.spans[static_cast<size_t>(id)];
  span.dur_ns = NowNs() - span.start_ns;
  span.counters = std::move(counters);
  // Pop through `id`: guards destruct in strict LIFO order, but be
  // tolerant of a missed close (e.g. an error path) rather than corrupt
  // the stack.
  while (!stack_.empty()) {
    int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Tracer::AddCompleteSpan(
    const std::string& name, const std::string& detail, uint64_t start_ns,
    uint64_t dur_ns, std::vector<std::pair<std::string, uint64_t>> counters) {
  if (traces_.empty()) return;
  QueryTrace& trace = traces_.back();
  TraceSpan span;
  span.name = name;
  span.detail = detail;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  span.counters = std::move(counters);
  trace.spans.push_back(std::move(span));
}

void Tracer::Clear() {
  traces_.clear();
  stack_.clear();
}

ScopedTracerInstall::ScopedTracerInstall(Tracer* tracer)
    : previous_(g_current_tracer) {
  g_current_tracer = tracer;
}

ScopedTracerInstall::~ScopedTracerInstall() { g_current_tracer = previous_; }

TraceSpanGuard::TraceSpanGuard(const char* name, const ExecStats* stats,
                               std::string detail)
    : tracer_(Tracer::Current()), stats_(stats) {
  if (tracer_ == nullptr) return;
  span_ = tracer_->OpenSpan(name, std::move(detail));
  compile_at_open_ = GlobalCompileCounters();
  if (stats_ != nullptr) stats_at_open_ = *stats_;
}

TraceSpanGuard::~TraceSpanGuard() {
  if (tracer_ == nullptr || span_ < 0) return;
  auto counters = CompileCountersDelta(compile_at_open_,
                                       GlobalCompileCounters());
  if (stats_ != nullptr) {
    auto exec = ExecStatsDelta(stats_at_open_, *stats_);
    counters.insert(counters.end(), exec.begin(), exec.end());
  }
  tracer_->CloseSpan(span_, std::move(counters));
}

QueryTraceGuard::QueryTraceGuard(const char* kind, const std::string& label,
                                 const ExecStats* stats)
    : tracer_(Tracer::Current()), stats_(stats) {
  if (tracer_ == nullptr) return;
  span_ = tracer_->BeginQuery(kind, label);
  compile_at_open_ = GlobalCompileCounters();
  if (stats_ != nullptr) stats_at_open_ = *stats_;
}

QueryTraceGuard::~QueryTraceGuard() {
  if (tracer_ == nullptr || span_ < 0) return;
  auto counters = CompileCountersDelta(compile_at_open_,
                                       GlobalCompileCounters());
  if (stats_ != nullptr) {
    auto exec = ExecStatsDelta(stats_at_open_, *stats_);
    counters.insert(counters.end(), exec.begin(), exec.end());
  }
  tracer_->CloseSpan(span_, std::move(counters));
}

}  // namespace pascalr
