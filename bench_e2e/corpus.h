// Frozen statement corpus for bench_e2e: the seeded generators behind the
// four workloads' read statements, the mixed_rw writer's DML, and the
// oracle samples.
//
// The ad hoc generator is a port of the property-test query generator with
// the chain, star and cycle join graphs of the Killian-Susini join workload
// generator (SNIPPETS.md, snippet 1) added. It deliberately does not
// include the test header: the test generator is expected to grow, and the
// benchmark's statement stream must not shift when it does. Nested
// multi-quantifier random formulas are left out on purpose: single
// statements of that kind run for seconds and would turn throughput into a
// measurement of a handful of statements.
//
// Streams are stratified: every block of statements holds each template
// (or ad hoc statement group) in fixed proportion, and parameters walk a
// seeded permutation of their domain. The seed picks the data, the order
// and the literals, but not the mix, so runs with different seeds measure
// the same kind of work.
//
// Everything here is text plus parameter values: the engine sees only what
// a client would send.

#ifndef PASCALR_BENCH_E2E_CORPUS_H_
#define PASCALR_BENCH_E2E_CORPUS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "opt/params.h"
#include "pascalr/sample_db.h"

namespace e2e {

using Rng = std::mt19937_64;

enum class Workload { kAdhoc, kHostLoop, kReport, kMixedRw };

/// Parses a workload name ("adhoc", "host_loop", "report", "mixed_rw").
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Employees in the workload's database (the other relations follow the
/// paper's proportions, see ScaleFor).
size_t WorkloadScale(Workload w);

/// n employees, 2n papers, n/2+1 courses and 3n timetable rows.
pascalr::UniversityScale ScaleFor(size_t n, uint64_t seed);

/// How bench_e2e issues one read statement.
enum class Mode {
  kQuery,    ///< cold Session::Query(text), drained
  kExecute,  ///< PreparedQuery::Execute(params), drained
  kBrowse,   ///< PreparedQuery::OpenCursor(params), kBrowseRows Next
  kDrain,    ///< PreparedQuery::OpenCursor(params), Next to the end
};

/// Rows a browsing client fetches before it closes the cursor.
constexpr size_t kBrowseRows = 10;

/// A prepared template of one workload.
struct Template {
  const char* name;
  const char* source;
};

/// One generated read statement.
struct ReadStmt {
  Mode mode = Mode::kExecute;
  /// Template index (prepared workloads) or ad hoc class (adhoc).
  int tmpl = 0;
  std::string text;  ///< cold source text (adhoc); empty for prepared
  pascalr::ParamBindings params;
  /// Result-memo key: a 64-bit hash of the text, or of the template and its
  /// parameter values. A hash, not a copy, so the harness adds little to
  /// peak_rss_mb.
  uint64_t key = 0;
};

/// The prepared templates of a workload (empty for adhoc).
const std::vector<Template>& TemplatesOf(Workload w);

/// The statement's source text: its cold text or its template's.
std::string SourceOf(Workload w, const ReadStmt& s);

/// Name of an ad hoc class or prepared template, for reports.
std::string ClassName(Workload w, int tmpl);

/// A client's timed statement stream.
class Stream {
 public:
  /// `n` sizes the parameter and literal domains; `seed` fixes the stream.
  /// For adhoc this generates the whole pool of distinct texts up front.
  Stream(Workload w, size_t n, uint64_t seed);

  /// The next statement. adhoc cycles through kAdhocPool distinct texts;
  /// the prepared workloads repeat their stratified block schedule.
  ReadStmt Next();

  /// adhoc only: the pool, in stream order.
  const std::vector<ReadStmt>& pool() const { return pool_; }

  static constexpr size_t kAdhocPool = 1200;  ///< 150 blocks of 8

 private:
  ReadStmt Prepared(int tmpl, Mode mode);

  Workload workload_;
  Rng rng_;
  std::vector<ReadStmt> pool_;  ///< adhoc texts
  size_t pos_ = 0;
  std::vector<std::pair<int, Mode>> block_;  ///< current prepared block
  /// Per template: its parameter domain, walked in a seeded order.
  std::vector<std::vector<pascalr::ParamBindings>> domains_;
  std::vector<size_t> domain_pos_;
};

/// A seeded sample that covers every template or ad hoc class at least
/// `per_class` times, for the oracle pass.
std::vector<ReadStmt> OracleSample(Workload w, size_t n, uint64_t seed,
                                   size_t per_class);

/// Number of templates or ad hoc classes OracleSample covers.
int ClassCount(Workload w);

/// Every distinct (template, parameters) pair a prepared workload's stream
/// can draw, for precomputing the result memo.
std::vector<ReadStmt> AllPairs(Workload w, size_t n);

/// The mixed_rw writer's statement stream: inserts and deletes of shadow
/// rows whose keys lie above every key the readers' predicates admit, in a
/// sliding window per relation. `ShadowRows` lists the window's initial
/// contents as insert statements for set-up.
class WriteStream {
 public:
  explicit WriteStream(size_t n) : n_(n) {}
  static constexpr size_t kWindow = 32;  ///< shadow rows per relation

  std::vector<std::string> ShadowRows() const;
  std::string Next();

 private:
  std::string Insert(int rel, int64_t key) const;
  std::string Delete(int rel, int64_t key) const;

  size_t n_;
  uint64_t count_ = 0;
};

}  // namespace e2e

#endif  // PASCALR_BENCH_E2E_CORPUS_H_
