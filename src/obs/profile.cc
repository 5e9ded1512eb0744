#include "obs/profile.h"

#include <chrono>

#include "base/str_util.h"

namespace pascalr {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

double QError(double est, uint64_t actual) {
  double act = static_cast<double>(actual);
  if (est <= 0.0 && actual == 0) return 1.0;
  // A zero on one side only is an unbounded miss; report the other side's
  // magnitude (+1 to stay finite and >= 1) rather than infinity.
  if (est <= 0.0) return act + 1.0;
  if (actual == 0) return est + 1.0;
  double q = est > act ? est / act : act / est;
  return q < 1.0 ? 1.0 : q;
}

double MaxQError(const PipelineProfile& profile) {
  double worst = 0.0;
  for (size_t i = 0; i < profile.size(); ++i) {
    const OpNode& n = profile.node(static_cast<int>(i));
    if (n.est_rows < 0.0) continue;
    double q = QError(n.est_rows, n.prof.rows_out);
    if (q > worst) worst = q;
  }
  return worst;
}

int PipelineProfile::Add(std::string label, double est_rows,
                         std::vector<int> children) {
  OpNode node;
  node.label = std::move(label);
  node.est_rows = est_rows;
  node.children = std::move(children);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

uint64_t PipelineProfile::ChildTimeNs(int id) const {
  uint64_t total = 0;
  for (int child : node(id).children) total += node(child).prof.time_ns;
  return total;
}

void PipelineProfile::RenderNode(int id, int depth, std::string* out) const {
  const OpNode& n = node(id);
  uint64_t child_ns = ChildTimeNs(id);
  uint64_t self_ns = n.prof.time_ns > child_ns ? n.prof.time_ns - child_ns : 0;
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out += StrFormat("%s%s  (rows=%llu", indent.c_str(), n.label.c_str(),
                    static_cast<unsigned long long>(n.prof.rows_out));
  // Only the cursor's construct node counts row pulls; operators are
  // pulled a chunk at a time (batches= below).
  if (n.prof.next_calls > 0) {
    *out += StrFormat(" nexts=%llu",
                      static_cast<unsigned long long>(n.prof.next_calls));
  }
  *out += StrFormat(" self=%.3f ms", static_cast<double>(self_ns) / 1e6);
  if (n.prof.batch_calls > 0) {
    *out += StrFormat(
        " batches=%llu rows/batch=%.1f",
        static_cast<unsigned long long>(n.prof.batch_calls),
        static_cast<double>(n.prof.rows_out) /
            static_cast<double>(n.prof.batch_calls));
  }
  if (n.est_rows >= 0.0) {
    *out += StrFormat(" est=%.0f q-err=%.2f", n.est_rows,
                      QError(n.est_rows, n.prof.rows_out));
  }
  *out += ")\n";
  for (int child : n.children) RenderNode(child, depth + 1, out);
}

std::string PipelineProfile::Render() const {
  std::string out;
  if (root_ < 0) return out;
  RenderNode(root_, 0, &out);
  return out;
}

Result<bool> ProfiledIter::NextBatch(Chunk* out) {
  if (!opened_) {
    opened_ = true;
    ++prof_->open_calls;
  }
  ++prof_->batch_calls;
  uint64_t start = NowNs();
  Result<bool> result = inner_->NextBatch(out);
  prof_->time_ns += NowNs() - start;
  if (result.ok() && result.value()) prof_->rows_out += out->rows;
  return result;
}

}  // namespace pascalr
