// bench_e2e: the end-to-end benchmark. Four seeded workloads drive the
// engine only through its public entry points — Session::Query,
// Session::Prepare + PreparedQuery::Execute / OpenCursor, Cursor::Next and
// Cursor::Close, Session::ExecuteScript for writes, SessionManager for
// serving — and every result is checked.
//
//   bench_e2e --workload adhoc|host_loop|report|mixed_rw [--seed N]
//             [--seconds S] [--trace FILE]
//
// Every workload is a closed loop on one thread over a fixed, seeded list
// of statements, its pass. mixed_rw interleaves two reader sessions and a
// writer session of a SessionManager in a fixed order, so every read
// meets the same writes, replans and compaction state in every pass.
//
// Untraced (the default), the pass repeats until --seconds have elapsed,
// each repetition on the next CPU, and the end-to-end metrics are
// reported. Each statement of the pass counts with the fastest of its
// repetitions, and each latency metric is a percentile over the pass's
// statements: on a machine whose cores other tenants share, each core
// runs up to 1.7x slow for stretches of about a second, while the fastest
// repetition of a statement stays put. A change that slows a statement
// slows every repetition of it.
//
// With --trace FILE the pass runs twice, on freshly prepared statements:
// once untraced (counts and the overhead baseline), once with every read
// replayed through the engine's layer functions (replay.h). It reports
// the per-layer metrics and writes the spans to FILE as Chrome trace
// events.
//
// Before either, an oracle pass checks a seeded sample of the workload's
// statements against NaiveEvaluator on a scale-16 copy of the database;
// it is excluded from every metric. Diagnostics go to stderr; stdout gets
// exactly one JSON object. The exit code is 1 when any check failed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "concurrency/session_manager.h"
#include "concurrency/snapshot.h"
#include "corpus.h"
#include "exec/naive.h"
#include "pascalr/pascalr.h"
#include "replay.h"

namespace e2e {
namespace {

using pascalr::CompileCounters;
using pascalr::ConcurrencyCounters;
using pascalr::Cursor;
using pascalr::Database;
using pascalr::ExecStats;
using pascalr::ParamBindings;
using pascalr::PlannedQuery;
using pascalr::PreparedQuery;
using pascalr::QueryPlan;
using pascalr::Result;
using pascalr::Session;
using pascalr::SessionManager;
using pascalr::Status;
using pascalr::Tuple;

constexpr size_t kOracleScale = 16;
constexpr size_t kOracleSample = 50;  ///< statements per workload, at least
/// Set-up is timed in rounds of kSetupRound set-ups, one round before the
/// timed run and one after each of its passes. A round's set-ups run on
/// the CPUs in turn and the round counts its fastest; setup_s is the
/// median over the rounds, which are spread over the whole run.
constexpr size_t kSetupRound = 8;
/// mixed_rw: the writer's next statement follows every kReadsPerWrite-th
/// read, and the database is compacted at the start of every pass.
constexpr size_t kReadsPerWrite = 4;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reads in a pass: a whole number of each stream's blocks (8 statements
/// on adhoc, 25 on host_loop, 3 on report), so a pass holds the exact mix;
/// at least ten statements beyond every p90; and a pass of at most about
/// 2 s, so a 25 s run repeats each statement ten times or more.
size_t PassReads(Workload w) {
  switch (w) {
    case Workload::kAdhoc:
      return Stream::kAdhocPool;
    case Workload::kReport:
      return 120;
    case Workload::kHostLoop:
    case Workload::kMixedRw:  // 500 per reader
      return 1000;
  }
  return 0;
}

struct Flags {
  Workload workload = Workload::kAdhoc;
  uint64_t seed = 1;
  double seconds = 25;
  std::string trace;  ///< Chrome trace output; empty = untraced
};

// ------------------------------------------------------------ statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// Pins the calling thread to the k-th (modulo their number) of the CPUs
/// the process may run on. Each timed pass and each set-up of a round runs
/// on the next CPU: on a machine shared with other tenants each core turns
/// slow and fast again within about a second, independently of the
/// others, and a thread the scheduler leaves on one core repeats its work
/// on that core's luck. Where the affinity cannot be set, the thread stays
/// where it is.
void PinToCpu(size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

/// The process's resident-set high-water mark, VmHWM in /proc/self/status.
/// Not getrusage's ru_maxrss: Linux carries that across execve, so a
/// benchmark started from a larger process, such as run.py's Python
/// interpreter, would report its parent's size.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent hash of a result set.
uint64_t ResultHash(const std::vector<Tuple>& tuples) {
  uint64_t h = 0;
  for (const Tuple& t : tuples) h += Mix(t.Hash());
  return h;
}

// ----------------------------------------------------------- environment

struct Client {
  std::unique_ptr<Session> session;
  std::vector<PreparedQuery> prepared;  ///< one per workload template
};

/// A workload's database and sessions. Members are destroyed in reverse
/// order: sessions and their prepared queries before the database.
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<SessionManager> manager;  ///< mixed_rw only
  std::vector<Client> readers;
  std::unique_ptr<Session> writer;          ///< mixed_rw only
};

/// Populate + ANALYZE + Prepare (and, serving, the shadow rows the writer
/// slides over and the SessionManager): everything `setup_s` times.
Result<Env> Setup(Workload w, size_t n, uint64_t seed, bool serving) {
  Env env;
  env.db = std::make_unique<Database>();
  PASCALR_RETURN_IF_ERROR(pascalr::CreateUniversitySchema(env.db.get()));
  PASCALR_RETURN_IF_ERROR(
      pascalr::PopulateSynthetic(env.db.get(), ScaleFor(n, seed)));
  if (serving) {
    std::string script;
    for (const std::string& row : WriteStream(n).ShadowRows()) {
      script += row + "\n";
    }
    {
      Session loader(env.db.get());
      PASCALR_RETURN_IF_ERROR(loader.ExecuteScript(script));
    }
    env.manager = std::make_unique<SessionManager>(env.db.get());
  }
  auto open = [&]() -> Result<std::unique_ptr<Session>> {
    std::unique_ptr<Session> s = env.manager != nullptr
                                     ? env.manager->CreateSession()
                                     : std::make_unique<Session>(env.db.get());
    PASCALR_RETURN_IF_ERROR(s->ExecuteScript("ANALYZE;\nSET OPTLEVEL AUTO;"));
    return s;
  };
  const size_t readers = w == Workload::kMixedRw ? 2 : 1;
  for (size_t i = 0; i < readers; ++i) {
    Client c;
    PASCALR_ASSIGN_OR_RETURN(c.session, open());
    for (const Template& t : TemplatesOf(w)) {
      PASCALR_ASSIGN_OR_RETURN(PreparedQuery pq, c.session->Prepare(t.source));
      c.prepared.push_back(std::move(pq));
    }
    env.readers.push_back(std::move(c));
  }
  if (serving) {
    PASCALR_ASSIGN_OR_RETURN(env.writer, open());
  }
  return env;
}

/// One round of kSetupRound set-ups, each on the next CPU, its fastest
/// added to `setup_s`. Each environment is torn down before the next is
/// built; `env` keeps the last.
Status SetupRound(Workload w, size_t n, uint64_t seed,
                  std::vector<double>* setup_s, std::unique_ptr<Env>* env) {
  double fastest = kInf;
  for (size_t i = 0; i < kSetupRound; ++i) {
    PinToCpu(i);
    env->reset();
    const uint64_t t0 = NowNs();
    Result<Env> fresh = Setup(w, n, seed, w == Workload::kMixedRw);
    const uint64_t t1 = NowNs();
    PASCALR_RETURN_IF_ERROR(fresh.status());
    fastest = std::min(fastest, static_cast<double>(t1 - t0) / 1e9);
    *env = std::make_unique<Env>(std::move(fresh).value());
  }
  setup_s->push_back(fastest);
  return Status::OK();
}

// -------------------------------------------------------------- statements

/// One read statement as issued through its entry point.
struct Outcome {
  Status status;
  std::vector<Tuple> tuples;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// When the first tuple reached the client: the first Next's return,
  /// or a Query's return, which hands over the whole result at once.
  uint64_t first_ns = 0;
  uint64_t close_start_ns = 0;
  ExecStats stats;
  bool cache_hit = false;
  uint64_t plan_compiles = 0;  ///< plan (re)builds this call
  /// The executed plan of a cold statement (kept for the replay).
  std::optional<PlannedQuery> cold_plan;

  double total_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  double first_us() const {
    return first_ns == 0 ? kNaN
                         : static_cast<double>(first_ns - start_ns) / 1e3;
  }
};

/// Runs `s` through its entry point. `full` drains browsing cursors too
/// (the oracle pass and the memo compare whole results).
Outcome RunStmt(Client& c, const ReadStmt& s, bool full) {
  Outcome o;
  o.start_ns = NowNs();
  if (s.mode == Mode::kQuery) {
    Result<pascalr::QueryRun> run = c.session->Query(s.text);
    o.end_ns = NowNs();
    o.first_ns = o.end_ns;
    if (!run.ok()) {
      o.status = run.status();
      return o;
    }
    o.tuples = std::move(run->tuples);
    o.stats = run->stats;
    o.plan_compiles = 1;
    o.cold_plan = std::move(run->planned);
    return o;
  }
  if (s.mode == Mode::kExecute) {
    PreparedQuery& pq = c.prepared[s.tmpl];
    const uint64_t compiles = pq.stats().plan_compiles;
    Result<pascalr::PreparedExecution> exec = pq.Execute(s.params);
    o.end_ns = NowNs();
    if (!exec.ok()) {
      o.status = exec.status();
      return o;
    }
    o.tuples = std::move(exec->tuples);
    o.stats = exec->stats;
    o.cache_hit = exec->plan_cache_hit;
    o.plan_compiles = pq.stats().plan_compiles - compiles;
    return o;
  }
  PreparedQuery* pq = &c.prepared[s.tmpl];
  const pascalr::PreparedStats before = pq->stats();
  Result<Cursor> cursor = pq->OpenCursor(s.params);
  if (!cursor.ok()) {
    o.status = cursor.status();
    o.end_ns = NowNs();
    return o;
  }
  const size_t limit = s.mode == Mode::kBrowse && !full ? kBrowseRows : SIZE_MAX;
  Tuple tuple;
  while (o.tuples.size() < limit) {
    Result<bool> more = cursor->Next(&tuple);
    if (o.first_ns == 0) o.first_ns = NowNs();
    if (!more.ok()) {
      o.status = more.status();
      break;
    }
    if (!*more) break;
    o.tuples.push_back(std::move(tuple));
  }
  o.stats = cursor->stats();
  o.close_start_ns = NowNs();
  cursor->Close();
  o.end_ns = NowNs();
  o.cache_hit = pq->stats().plan_cache_hits > before.plan_cache_hits;
  o.plan_compiles = pq->stats().plan_compiles - before.plan_compiles;
  return o;
}

/// The plan the entry point executed.
const QueryPlan* ExecutedPlan(Client& c, const ReadStmt& s, const Outcome& o) {
  const PlannedQuery* planned = o.cold_plan.has_value()
                                    ? &*o.cold_plan
                                    : c.prepared[s.tmpl].planned();
  return planned == nullptr ? nullptr : &planned->plan;
}

Result<std::vector<Tuple>> RunNaive(const Database& db, const std::string& source,
                                    const ParamBindings& params) {
  pascalr::Parser parser(source);
  PASCALR_ASSIGN_OR_RETURN(pascalr::SelectionExpr sel,
                           parser.ParseSelectionOnly());
  pascalr::Binder binder(&db);
  PASCALR_ASSIGN_OR_RETURN(pascalr::BoundQuery bound,
                           binder.Bind(std::move(sel)));
  if (!params.empty()) {
    PASCALR_ASSIGN_OR_RETURN(ParamBindings checked,
                             pascalr::CheckParamBindings(bound.params, params));
    PASCALR_RETURN_IF_ERROR(
        pascalr::BindSelectionParams(&bound.selection, checked));
  }
  pascalr::NaiveEvaluator naive(&db);
  return naive.Evaluate(bound);
}

std::vector<Tuple> Sorted(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// -------------------------------------------------------------- checking

/// Expected results keyed on (template, parameters) or cold text, all
/// computed before timing.
class Memo {
 public:
  void Put(uint64_t key, const std::vector<Tuple>& tuples, bool keep_members) {
    Expected& e = map_[key];
    e.hash = ResultHash(tuples);
    e.rows = tuples.size();
    e.has_members = keep_members;
    if (keep_members) {
      for (const Tuple& t : tuples) e.members.insert(t.Hash());
    }
  }

  /// False when `got` contradicts the memo. Browsing cursors fetch a
  /// prefix whose order depends on the plan, so a prepared template's
  /// browse is checked for membership and count against the full result.
  bool Check(const ReadStmt& s, const std::vector<Tuple>& got) const {
    auto it = map_.find(s.key);
    if (it == map_.end()) return false;
    const Expected& e = it->second;
    if (e.has_members && s.mode == Mode::kBrowse) {
      if (got.size() != std::min(kBrowseRows, e.rows)) return false;
      for (const Tuple& t : got) {
        if (e.members.count(t.Hash()) == 0) return false;
      }
      return true;
    }
    return got.size() == e.rows && ResultHash(got) == e.hash;
  }

 private:
  struct Expected {
    uint64_t hash = 0;
    size_t rows = 0;
    bool has_members = false;
    std::unordered_set<uint64_t> members;
  };
  std::unordered_map<uint64_t, Expected> map_;
};

/// Fills the memo before timing, which also warms the engine up: every
/// text of the adhoc pool, or every parameter pair of a prepared workload
/// (whole results).
Status Warmup(Workload w, Client& c, const Stream& stream, size_t n,
              Memo* memo) {
  const std::vector<ReadStmt> stmts =
      w == Workload::kAdhoc ? stream.pool() : AllPairs(w, n);
  for (const ReadStmt& s : stmts) {
    Outcome o = RunStmt(c, s, true);
    PASCALR_RETURN_IF_ERROR(o.status);
    memo->Put(s.key, o.tuples, w != Workload::kAdhoc &&
                                   TemplatesOf(w)[s.tmpl].name ==
                                       std::string("browse"));
  }
  return Status::OK();
}

/// The oracle pass: a seeded sample covering every template or class,
/// engine against NaiveEvaluator on a scale-16 database. mixed_rw checks
/// its sample again after loading shadow rows and applying writes: the
/// readers' results must not move.
bool Oracle(Workload w, uint64_t seed, size_t* checked,
            std::vector<std::string>* errors) {
  const size_t before = errors->size();
  Result<Env> env = Setup(w, kOracleScale, seed, /*serving=*/false);
  if (!env.ok()) {
    errors->push_back("oracle setup: " + env.status().ToString());
    return false;
  }
  Client& c = env->readers[0];
  const size_t classes = static_cast<size_t>(ClassCount(w));
  const std::vector<ReadStmt> sample =
      OracleSample(w, kOracleScale, Mix(seed ^ 0x0dac1e),
                   (kOracleSample + classes - 1) / classes);
  std::vector<std::vector<Tuple>> expected;
  auto check = [&](const ReadStmt& s, const std::vector<Tuple>& want,
                   const char* phase) {
    ++*checked;
    Outcome o = RunStmt(c, s, /*full=*/true);
    if (!o.status.ok()) {
      errors->push_back(std::string(phase) + " " + ClassName(w, s.tmpl) +
                        ": " + o.status.ToString());
      return;
    }
    if (Sorted(o.tuples) != want) {
      errors->push_back(std::string(phase) + " mismatch on " +
                        ClassName(w, s.tmpl) + ": " + SourceOf(w, s));
    }
  };
  for (const ReadStmt& s : sample) {
    Result<std::vector<Tuple>> naive =
        RunNaive(*env->db, SourceOf(w, s), s.params);
    if (!naive.ok()) {
      ++*checked;
      errors->push_back("naive " + ClassName(w, s.tmpl) + ": " +
                        naive.status().ToString());
      expected.emplace_back();
      continue;
    }
    expected.push_back(Sorted(std::move(naive).value()));
    check(s, expected.back(), "oracle");
  }
  if (w == Workload::kMixedRw) {
    WriteStream writes(kOracleScale);
    std::string script;
    for (const std::string& row : writes.ShadowRows()) script += row + "\n";
    for (int i = 0; i < 200; ++i) script += writes.Next() + "\n";
    Status st = c.session->ExecuteScript(script);
    if (!st.ok()) errors->push_back("oracle writes: " + st.ToString());
    for (size_t i = 0; i < sample.size(); ++i) {
      check(sample[i], expected[i], "shadow");
    }
  }
  return errors->size() == before;
}

// ----------------------------------------------------------- measurement

/// What the run's statements did: attempts, failures, the first errors.
struct ClientLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Counts of the traced run's untraced pass, summed over its statements.
struct PassCounts {
  CompileCounters compile;          ///< global deltas over the pass
  ExecStats exec;                   ///< summed (Merge keeps peaks as a max)
  uint64_t peak_rows = 0;           ///< per-statement peaks, summed
  uint64_t result_rows = 0;
  uint64_t executions = 0;          ///< read statements (not Prepares)
  uint64_t cache_hits = 0;
  uint64_t plan_compiles = 0;
  uint64_t first_plans = 0;         ///< plans no earlier plan existed for
  double entry_us = 0;              ///< entry-point time, Prepares included
};

/// The traced pass: span log and per-layer time sums.
struct TraceLog {
  SpanLog spans{0};
  std::array<double, kLayerCount> layer_us{};
  double entry_us = 0;
  double residual_us = 0;
  PassCounts counts;  ///< the untraced pass
};

void AddCounters(CompileCounters* sum, const CompileCounters& a,
                 const CompileCounters& b) {
  sum->parses += b.parses - a.parses;
  sum->binds += b.binds - a.binds;
  sum->standard_forms += b.standard_forms - a.standard_forms;
  sum->plans += b.plans - a.plans;
  sum->plan_searches += b.plan_searches - a.plan_searches;
  sum->collection_walks += b.collection_walks - a.collection_walks;
}

/// Runs and checks one read statement; false when it failed.
bool RunChecked(Workload w, Client& c, const ReadStmt& s, const Memo& memo,
                ClientLog* log, Outcome* o) {
  *o = RunStmt(c, s, false);
  ++log->attempted;
  if (!o->status.ok()) {
    log->Fail(ClassName(w, s.tmpl) + ": " + o->status.ToString());
    return false;
  }
  if (!memo.Check(s, o->tuples)) {
    log->Fail(ClassName(w, s.tmpl) + ": wrong result: " + SourceOf(w, s));
    return false;
  }
  return true;
}

/// Re-prepares the client's templates through Session::Prepare, so a pass
/// starts from fresh statements: each template plans on its first
/// execution. With `t` set each Prepare is traced and replayed.
Status Reprepare(Workload w, const Database& db, Client& c, uint64_t* stmt_id,
                 TraceLog* t, double* entry_us) {
  c.prepared.clear();
  for (const Template& tmpl : TemplatesOf(w)) {
    const uint64_t start = NowNs();
    Result<PreparedQuery> pq = c.session->Prepare(tmpl.source);
    const uint64_t end = NowNs();
    PASCALR_RETURN_IF_ERROR(pq.status());
    c.prepared.push_back(std::move(pq).value());
    *entry_us += static_cast<double>(end - start) / 1e3;
    if (t == nullptr) continue;
    const uint64_t id = (*stmt_id)++;
    t->spans.Add("stmt", start, end, -1, id);
    Replay r;
    r.log = &t->spans;
    r.stmt = id;
    const uint64_t r0 = NowNs();
    r.parent = t->spans.Add("replay", r0, r0, -1, id);
    PASCALR_RETURN_IF_ERROR(ReplayFrontEnd(db, tmpl.source, &r).status());
    t->spans.SetEnd(r.parent, NowNs());
    double layers = 0;
    for (int l = 0; l < kLayerCount; ++l) {
      t->layer_us[l] += static_cast<double>(r.ns[l]) / 1e3;
      if (LayerInClosure(l)) layers += static_cast<double>(r.ns[l]) / 1e3;
    }
    const double entry = static_cast<double>(end - start) / 1e3;
    t->entry_us += entry;
    t->residual_us += entry - layers;
  }
  return Status::OK();
}

/// Runs one statement through its entry point (the `stmt` span), then
/// replays it through the layer functions on the plan the entry point
/// used (the `replay` span) and checks that both produced the same rows.
void TracedStmt(Workload w, const Database& db, Client& c, const ReadStmt& s,
                uint64_t stmt_id, const Memo& memo, TraceLog* t,
                ClientLog* log) {
  Outcome o;
  if (!RunChecked(w, c, s, memo, log, &o)) return;
  const int64_t stmt_span =
      t->spans.Add("stmt", o.start_ns, o.end_ns, -1, stmt_id);
  std::array<double, kLayerCount> layers{};
  if (o.close_start_ns != 0) {
    t->spans.Add(LayerName(kCursorClose), o.close_start_ns, o.end_ns,
                 stmt_span, stmt_id);
    layers[kCursorClose] =
        static_cast<double>(o.end_ns - o.close_start_ns) / 1e3;
  }

  Replay r;
  r.log = &t->spans;
  r.stmt = stmt_id;
  const uint64_t r0 = NowNs();
  r.parent = t->spans.Add("replay", r0, r0, -1, stmt_id);
  Result<std::vector<Tuple>> replayed = std::vector<Tuple>();
  {
    // Serving mode: the replay reads at a snapshot of its own (written
    // keys lie outside every reader predicate, so the results agree).
    pascalr::ScopedSnapshotInstall snap(db.TakeSnapshot());
    Status st;
    const bool cold = s.mode == Mode::kQuery;
    if (cold || o.plan_compiles > 0) {
      // A cold statement parsed and bound too; a prepared one that
      // (re)planned starts from its template, already parsed at Prepare.
      Result<pascalr::BoundQuery> bound =
          ReplayFrontEnd(db, SourceOf(w, s), cold ? &r : nullptr);
      st = bound.ok() ? ReplayPlan(db, std::move(bound).value(), s.params,
                                   c.session->options(), &r)
                      : bound.status();
    }
    const QueryPlan* plan = ExecutedPlan(c, s, o);
    if (!st.ok()) {
      replayed = st;
    } else if (plan == nullptr) {
      replayed = Status::Internal("no executed plan");
    } else {
      replayed = ReplayExecute(*plan, db,
                               s.mode == Mode::kBrowse ? kBrowseRows : SIZE_MAX,
                               &r);
    }
  }
  t->spans.SetEnd(r.parent, NowNs());
  if (!replayed.ok() ||
      (*replayed != o.tuples && Sorted(*replayed) != Sorted(o.tuples))) {
    log->Fail(ClassName(w, s.tmpl) + ": replay differs (" +
              (replayed.ok() ? "rows" : replayed.status().ToString()) + ")");
    return;
  }
  double covered = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    if (l != kCursorClose) layers[l] = static_cast<double>(r.ns[l]) / 1e3;
    t->layer_us[l] += layers[l];
    if (LayerInClosure(l)) covered += layers[l];
  }
  t->entry_us += o.total_us();
  t->residual_us += o.total_us() - covered;
}

/// One step of a pass: a read by one of the reader sessions or, on
/// mixed_rw, the writer session's next statement or a compaction.
struct Step {
  enum Kind { kRead, kWrite, kCompact };
  Kind kind = kRead;
  size_t reader = 0;
  ReadStmt read;
};

/// The workload's pass: PassReads(w) reads, dealt to the readers in turn.
/// mixed_rw starts with a compaction, the maintenance a server runs
/// between batches of work, and writes after every kReadsPerWrite-th read.
std::vector<Step> MakePass(Workload w, std::vector<Stream>& streams) {
  std::vector<Step> pass;
  if (w == Workload::kMixedRw) pass.push_back({Step::kCompact, 0, {}});
  for (size_t i = 0; i < PassReads(w); ++i) {
    const size_t reader = i % streams.size();
    pass.push_back({Step::kRead, reader, streams[reader].Next()});
    if (w == Workload::kMixedRw && (i + 1) % kReadsPerWrite == 0) {
      pass.push_back({Step::kWrite, 0, {}});
    }
  }
  return pass;
}

/// Runs `pass` once. `read` runs the read steps; the others run here and
/// `other` gets each one's µs.
void RunPass(Env& env, const std::vector<Step>& pass, WriteStream* writes,
             ClientLog* log,
             const std::function<void(size_t, const Step&)>& read,
             const std::function<void(size_t, double)>& other) {
  for (size_t i = 0; i < pass.size(); ++i) {
    const Step& s = pass[i];
    if (s.kind == Step::kRead) {
      read(i, s);
      continue;
    }
    const uint64_t t0 = NowNs();
    Status st = Status::OK();
    if (s.kind == Step::kCompact) {
      env.manager->Compact();
    } else {
      st = env.writer->ExecuteScript(writes->Next());
      ++log->attempted;
    }
    const uint64_t t1 = NowNs();
    if (!st.ok()) {
      log->Fail("write: " + st.ToString());
      continue;
    }
    other(i, static_cast<double>(t1 - t0) / 1e3);
  }
}

/// A pass step's fastest times over the timed run; infinite when the
/// time does not apply to the step (or the step never succeeded).
struct Best {
  double stmt_us = kInf;   ///< a read's call to last tuple (not browses)
  double first_us = kInf;  ///< OpenCursor to first Next (cursors, Query)
  double step_us = kInf;   ///< the whole step, whatever its kind
};

struct RunResult {
  ClientLog log;
  std::vector<Best> best;  ///< per pass step (untraced)
  size_t passes = 0;
  ConcurrencyCounters::View before;
  ConcurrencyCounters::View after;
  // The traced run: counters when its untraced pass ended.
  std::unique_ptr<TraceLog> trace;
  CompileCounters compile_before;
  CompileCounters compile_after;
  ConcurrencyCounters::View concurrency_after;
  uint64_t writes_after = 0;  ///< write statements of the untraced pass
};

/// The untraced run: `pass` repeats until `seconds` have elapsed (at least
/// once), each pass on the next CPU and each step keeping its fastest
/// time. `after_pass` runs after every pass, inside the run's time.
RunResult Measure(Workload w, double seconds, Env& env,
                  const std::vector<Step>& pass, const Memo& memo,
                  const std::function<void(RunResult*)>& after_pass) {
  RunResult out;
  out.best.resize(pass.size());
  WriteStream writes(WorkloadScale(w));
  auto read = [&](size_t i, const Step& s) {
    Outcome o;
    if (!RunChecked(w, env.readers[s.reader], s.read, memo, &out.log, &o)) {
      return;
    }
    Best& b = out.best[i];
    b.step_us = std::min(b.step_us, o.total_us());
    if (s.read.mode != Mode::kBrowse) b.stmt_us = b.step_us;
    if (!std::isnan(o.first_us())) {
      b.first_us = std::min(b.first_us, o.first_us());
    }
  };
  auto other = [&](size_t i, double us) {
    out.best[i].step_us = std::min(out.best[i].step_us, us);
  };
  out.before = env.db->ConcurrencyCountersView();
  const uint64_t start = NowNs();
  do {
    PinToCpu(out.passes);
    RunPass(env, pass, &writes, &out.log, read, other);
    ++out.passes;
    after_pass(&out);
  } while (static_cast<double>(NowNs() - start) < seconds * 1e9);
  out.after = env.db->ConcurrencyCountersView();
  return out;
}

/// The traced run: `pass` once untraced (counts, overhead baseline), then
/// once traced and replayed, each on statements prepared afresh.
RunResult MeasureTraced(Workload w, Env& env, const std::vector<Step>& pass,
                        const Memo& memo) {
  RunResult out;
  out.trace = std::make_unique<TraceLog>();
  TraceLog& t = *out.trace;
  PassCounts& counts = t.counts;
  const Database& db = *env.db;
  WriteStream writes(WorkloadScale(w));
  uint64_t stmt_id = 0;
  out.compile_before = pascalr::GlobalCompileCounters();
  out.before = db.ConcurrencyCountersView();
  Status st;
  for (Client& c : env.readers) {
    if (st.ok()) st = Reprepare(w, db, c, &stmt_id, nullptr, &counts.entry_us);
    counts.first_plans += c.prepared.size();
  }
  if (st.ok()) {
    RunPass(
        env, pass, &writes, &out.log,
        [&](size_t, const Step& s) {
          Outcome o;
          if (!RunChecked(w, env.readers[s.reader], s.read, memo, &out.log,
                          &o)) {
            return;
          }
          counts.entry_us += o.total_us();
          counts.exec.Merge(o.stats);
          counts.peak_rows += o.stats.peak_intermediate_rows;
          counts.result_rows += o.tuples.size();
          ++counts.executions;
          counts.cache_hits += o.cache_hit ? 1 : 0;
          counts.plan_compiles += o.plan_compiles;
          if (s.read.mode == Mode::kQuery) ++counts.first_plans;
        },
        [&](size_t i, double) {
          if (pass[i].kind == Step::kWrite) ++out.writes_after;
        });
  }
  out.compile_after = pascalr::GlobalCompileCounters();
  out.concurrency_after = db.ConcurrencyCountersView();
  for (Client& c : env.readers) {
    if (st.ok()) st = Reprepare(w, db, c, &stmt_id, &t, &t.entry_us);
  }
  if (!st.ok()) {
    out.log.Fail("prepare: " + st.ToString());
    return out;
  }
  RunPass(
      env, pass, &writes, &out.log,
      [&](size_t, const Step& s) {
        TracedStmt(w, db, env.readers[s.reader], s.read, stmt_id++, memo, &t,
                   &out.log);
      },
      [](size_t, double) {});
  out.after = db.ConcurrencyCountersView();
  return out;
}

// ---------------------------------------------------------------- output

/// One reported metric: value, unit, and the samples behind it.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t n;
};

std::vector<Metric> EndToEndMetrics(const RunResult& r,
                                    const std::vector<Step>& pass,
                                    const std::vector<double>& setup_s,
                                    double peak_rss_mb) {
  std::vector<double> stmt;
  std::vector<double> first;
  std::vector<double> write;
  double busy_us = 0;
  size_t statements = 0;
  for (size_t i = 0; i < pass.size(); ++i) {
    const Best& b = r.best[i];
    if (b.stmt_us < kInf) stmt.push_back(b.stmt_us);
    if (b.first_us < kInf) first.push_back(b.first_us);
    if (pass[i].kind == Step::kWrite && b.step_us < kInf) {
      write.push_back(b.step_us);
    }
    if (b.step_us < kInf) busy_us += b.step_us;
    if (pass[i].kind != Step::kCompact) ++statements;
  }
  std::vector<Metric> m = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"stmt_p50_us", Percentile(stmt, 50), "us", stmt.size()},
      {"stmt_p90_us", Percentile(stmt, 90), "us", stmt.size()},
      {"first_tuple_p50_us", Percentile(first, 50), "us", first.size()},
      {"first_tuple_p90_us", Percentile(first, 90), "us", first.size()},
      // The pass's statements over the sum of every step's fastest time,
      // compactions included: the rate of one client that meets no other
      // tenant's interference.
      {"stmts_per_s", busy_us > 0 ? 1e6 * static_cast<double>(statements) / busy_us : 0,
       "1/s", statements},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
  };
  if (!write.empty()) {
    m.push_back({"write_p50_us", Percentile(write, 50), "us", write.size()});
    m.push_back({"write_p90_us", Percentile(write, 90), "us", write.size()});
    m.push_back({"compactions",
                 static_cast<double>(r.after.compactions - r.before.compactions),
                 "count", 1});
  }
  return m;
}

std::vector<Metric> PerLayerMetrics(const RunResult& r) {
  const TraceLog& t = *r.trace;
  PassCounts c = t.counts;
  AddCounters(&c.compile, r.compile_before, r.compile_after);
  // Every write statement parsed once; the readers' share is the rest.
  c.compile.parses -= r.writes_after;
  const std::array<double, kLayerCount>& layer_us = t.layer_us;
  const double entry_us = t.entry_us;
  const double residual_us = t.residual_us;

  const size_t n = c.executions;
  const double stmts = static_cast<double>(std::max<size_t>(1, n));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> m;
  // Times are means per read statement (Prepares amortized over them):
  // means add up, so the layers plus the residual are the entry time.
  for (int l = 0; l < kLayerCount; ++l) {
    const std::string name = LayerName(l);
    m.push_back({name + "_us", layer_us[l] / stmts, "us", n});
    m.push_back({name + "_share_pct", 100 * ratio(layer_us[l], entry_us), "%", n});
  }
  m.push_back({"pascalr.residual_us", residual_us / stmts, "us", n});
  m.push_back({"pascalr.residual_share_pct",
               100 * ratio(residual_us, entry_us), "%", n});
  m.push_back({"trace.stmt_us", entry_us / stmts, "us", n});
  m.push_back({"trace.overhead_pct", 100 * (ratio(entry_us, c.entry_us) - 1),
               "%", n});

  auto per = [&](const char* name, double total) {
    m.push_back({name, total / stmts, "count", n});
  };
  const CompileCounters& cc = c.compile;
  per("parser.parses", static_cast<double>(cc.parses));
  per("semantics.binds", static_cast<double>(cc.binds));
  per("normalize.standard_forms", static_cast<double>(cc.standard_forms));
  per("opt.plans", static_cast<double>(cc.plans));
  per("opt.plan_searches", static_cast<double>(cc.plan_searches));
  per("opt.collection_walks", static_cast<double>(cc.collection_walks));
  m.push_back({"opt.plan_cache_hit_ratio",
               ratio(static_cast<double>(c.cache_hits), stmts), "ratio", n});
  m.push_back({"opt.plan_cache_lookups", static_cast<double>(n), "count", n});
  per("opt.replans", static_cast<double>(c.plan_compiles - c.first_plans));

  const ExecStats& e = c.exec;
  per("exec.collection.relations_read", static_cast<double>(e.relations_read));
  per("exec.collection.elements_scanned",
      static_cast<double>(e.elements_scanned));
  per("exec.collection.index_probes", static_cast<double>(e.index_probes));
  per("exec.collection.refs_built",
      static_cast<double>(e.single_list_refs + e.indirect_join_refs));
  per("exec.collection.structure_elements",
      static_cast<double>(e.structure_elements_built));
  per("exec.collection.quant_probes", static_cast<double>(e.quantifier_probes));
  per("pipeline.combination_rows", static_cast<double>(e.combination_rows));
  per("pipeline.division_rows", static_cast<double>(e.division_input_rows));
  per("pipeline.comparisons", static_cast<double>(e.comparisons));
  per("pipeline.batches_emitted", static_cast<double>(e.batches_emitted));
  per("pipeline.morsels_dispatched", static_cast<double>(e.morsels_dispatched));
  per("pipeline.peak_rows", static_cast<double>(c.peak_rows));
  per("exec.construction.dereferences", static_cast<double>(e.dereferences));
  per("exec.construction.result_rows", static_cast<double>(c.result_rows));
  per("exec.total_work", static_cast<double>(e.TotalWork()));
  m.push_back({"pipeline.useful_ratio",
               ratio(static_cast<double>(c.result_rows),
                     static_cast<double>(e.combination_rows)),
               "ratio", n});
  m.push_back({"exec.construction.useful_ratio",
               ratio(static_cast<double>(c.result_rows),
                     static_cast<double>(e.dereferences)),
               "ratio", n});

  // Serving counters over the untraced pass.
  const auto& b = r.before;
  const auto& a = r.concurrency_after;
  per("concurrency.snapshots_taken",
      static_cast<double>(a.snapshots_taken - b.snapshots_taken));
  per("concurrency.delta_merges",
      static_cast<double>(a.delta_merges - b.delta_merges));
  m.push_back({"concurrency.compactions",
               static_cast<double>(a.compactions - b.compactions), "count", 1});
  m.push_back({"concurrency.versions_retired",
               static_cast<double>(a.versions_retired - b.versions_retired),
               "count", 1});
  const double shared_hits =
      static_cast<double>(a.shared_plan_hits - b.shared_plan_hits);
  const double shared_lookups =
      shared_hits + static_cast<double>(a.shared_plan_misses - b.shared_plan_misses);
  m.push_back({"concurrency.shared_plan_hit_ratio",
               ratio(shared_hits, shared_lookups), "ratio",
               static_cast<size_t>(shared_lookups)});
  m.push_back({"concurrency.shared_plan_lookups", shared_lookups, "count", 1});
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void PrintResult(const Flags& f, bool correct, uint64_t attempted,
                 uint64_t failed, const std::vector<Metric>& metrics,
                 const std::vector<std::string>& errors) {
  std::string out = "{\"workload\":" + JsonString(WorkloadName(f.workload)) +
                    ",\"seed\":" + std::to_string(f.seed) +
                    ",\"traced\":" + (f.trace.empty() ? "false" : "true") +
                    ",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i > 0 ? "," : "") + JsonString(errors[i]);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    out += (i > 0 ? "," : "") + JsonString(metrics[i].name) +
           ":{\"value\":" + value + ",\"unit\":" + JsonString(metrics[i].unit) +
           ",\"n\":" + std::to_string(metrics[i].n) + "}";
  }
  std::printf("%s}}\n", out.c_str());
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return false;
      const std::string value = argv[++i];
      if (arg == "--workload") {
        if (!ParseWorkload(value, &f->workload)) return false;
        have_workload = true;
      } else if (arg == "--seed") {
        f->seed = std::stoull(value);
      } else if (arg == "--seconds") {
        f->seconds = std::stod(value);
      } else if (arg == "--trace") {
        f->trace = value;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {  // stoull / stod on a malformed number
    return false;
  }
  return have_workload && f->seconds > 0;
}

int Main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload adhoc|host_loop|report|mixed_rw "
                 "[--seed N] [--seconds S] [--trace FILE]\n");
    return 2;
  }
  const Workload w = f.workload;
  const size_t n = WorkloadScale(w);
  std::vector<std::string> errors;

  size_t oracle_checked = 0;
  const bool oracle_ok = Oracle(w, f.seed, &oracle_checked, &errors);
  const uint64_t oracle_failed = oracle_ok ? 0 : errors.size();
  std::fprintf(stderr, "[%s] oracle: %zu statements at scale %zu, %s\n",
               WorkloadName(w), oracle_checked, kOracleScale,
               oracle_ok ? "ok" : "FAILED");

  // The first set-up round builds the environment the run measures.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  Status st = SetupRound(w, n, f.seed, &setup_s, &env);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<Stream> streams;
  for (size_t i = 0; i < env->readers.size(); ++i) {
    streams.emplace_back(w, n, Mix(f.seed + 1 + i));
  }
  Memo memo;
  st = Warmup(w, env->readers[0], streams[0], n, &memo);
  if (!st.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::vector<Step> pass = MakePass(w, streams);
  RunResult run;
  double peak_rss_mb = 0;
  if (f.trace.empty()) {
    run = Measure(w, f.seconds, *env, pass, memo, [&](RunResult* r) {
      // The workload's high-water mark: the first pass ran every
      // statement, and no set-up round has yet put a second database
      // beside the measured one.
      if (r->passes == 1) peak_rss_mb = PeakRssMb();
      std::unique_ptr<Env> scratch;
      Status s = SetupRound(w, n, f.seed, &setup_s, &scratch);
      if (!s.ok()) r->log.Fail("setup: " + s.ToString());
    });
    std::fprintf(stderr, "[%s] %zu passes of %zu steps\n", WorkloadName(w),
                 run.passes, pass.size());
  } else {
    run = MeasureTraced(w, *env, pass, memo);
  }
  const uint64_t attempted = oracle_checked + run.log.attempted;
  const uint64_t failed = oracle_failed + run.log.failed;
  errors.insert(errors.end(), run.log.errors.begin(), run.log.errors.end());
  const bool correct = failed == 0 && attempted > oracle_checked;
  std::vector<Metric> metrics;
  if (f.trace.empty()) {
    metrics = EndToEndMetrics(run, pass, setup_s, peak_rss_mb);
  } else {
    metrics = PerLayerMetrics(run);
    if (!WriteChromeTrace(f.trace, {&run.trace->spans})) {
      errors.push_back("cannot write trace " + f.trace);
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "[%s] error: %s\n", WorkloadName(w), e.c_str());
  }
  PrintResult(f, correct, attempted, failed, metrics, errors);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
