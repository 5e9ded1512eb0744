// Observability tour: runs the paper's Example 2.1 with tracing on,
// prints the recorded span trees, the EXPLAIN ANALYZE operator table,
// and the session metrics, and exports a Chrome trace-event JSON file
// (load it in chrome://tracing or https://ui.perfetto.dev).
//
//   $ build/examples/trace_demo [out.trace.json]

#include <iostream>
#include <string>

#include "obs/trace_export.h"
#include "pascalr/pascalr.h"

namespace {

int Fail(const pascalr::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  pascalr::Database db;
  if (auto st = pascalr::CreateUniversitySchema(&db); !st.ok()) return Fail(st);
  if (auto st = pascalr::PopulateSmallExample(&db); !st.ok()) return Fail(st);

  pascalr::Session session(&db, &std::cout);
  session.set_tracing(true);

  // A traced one-shot query: prepare (parse, bind), execute (plan,
  // collection, drain) each become spans of one QueryTrace.
  auto run = session.Query(pascalr::Example21QuerySource());
  if (!run.ok()) return Fail(run.status());
  std::cout << "=== result ===\n";
  for (const pascalr::Tuple& t : run->tuples) std::cout << "  " << t.ToString() << "\n";

  std::cout << "\n=== query traces ===\n";
  for (const pascalr::QueryTrace& trace : session.traces()) {
    std::cout << trace.ToString();
  }

  // EXPLAIN ANALYZE: the plan plus the profiled operator tree with actual
  // rows, per-operator self-time, and estimated-vs-actual q-error.
  std::cout << "\n=== EXPLAIN ANALYZE ===\n";
  auto report = session.ExplainAnalyze(pascalr::Example21QuerySource());
  if (!report.ok()) return Fail(report.status());
  std::cout << *report;

  std::cout << "\n=== METRICS ===\n" << session.metrics().Dump();

  const std::string path = argc > 1 ? argv[1] : "trace_demo.trace.json";
  if (auto st = pascalr::WriteTraceFile(path, session.traces()); !st.ok()) {
    return Fail(st);
  }
  std::cout << "\nwrote " << session.traces().size() << " trace(s) to "
            << path << "\n";
  return 0;
}
