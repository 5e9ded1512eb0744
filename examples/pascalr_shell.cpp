// Interactive PASCAL/R shell: type statements, end each with ';'.
//
//   $ build/examples/pascalr_shell [--university]
//
// Meta commands (one per line):
//   .help            this text
//   .level N|auto    optimization level 0..4 or cost-based AUTO (default 4)
//   .stats           cumulative session statistics
//   .metrics         session metrics (latency percentiles, plan cache, ...)
//   .metrics prom    server-wide metrics in Prometheus text format
//   .slow            dump the slow-query flight recorder (newest first)
//   .slow N|off      arm the recorder at N microseconds / disarm it
//                    (same as SET SLOWLOG N|OFF;)
//   .trace on|off    query tracing (same as SET TRACE ON|OFF;)
//   .trace FILE      export collected traces as Chrome trace-event JSON
//                    (load in chrome://tracing or Perfetto), then clear
//   .dump            export the database as a replayable script
//                    (includes STATS directives for analyzed relations)
//   .quit            exit
//
// Everything else is PASCAL/R: TYPE/VAR declarations, `rel :+ [<...>];`
// inserts, `name := [<...> OF EACH ... : wff];` queries, PRINT, EXPLAIN,
// PREPARE name AS [...$p...] / EXECUTE name WITH $p = lit, INDEX rel
// comp [ORDERED], ANALYZE [rel], and SET OPTLEVEL/DIVISION/PERMINDEXES/
// BATCH/TRACE/SLOWLOG.

#include <iostream>
#include <string>

#include "obs/prom_export.h"
#include "obs/trace_export.h"
#include "pascalr/export.h"
#include "pascalr/pascalr.h"

namespace {

std::string Trim(const std::string& s) {
  std::string::size_type start = s.find_first_not_of(" \t\r");
  if (start == std::string::npos) return "";
  std::string::size_type end = s.find_last_not_of(" \t\r");
  return s.substr(start, end - start + 1);
}

void PrintHelp() {
  std::cout <<
      "statements end with ';'. Examples:\n"
      "  VAR r : RELATION <a> OF RECORD a : 1..99; s : STRING(10) END;\n"
      "  r :+ [<1, 'hello'>];\n"
      "  out := [<x.s> OF EACH x IN r: x.a < 10];\n"
      "  PRINT out;\n"
      "  EXPLAIN [<x.s> OF EACH x IN r: x.a < 10];\n"
      "  PREPARE q AS [<x.s> OF EACH x IN r: x.a < $top];\n"
      "  EXECUTE q WITH $top = 10;   -- re-runs reuse the cached plan\n"
      "  INDEX r a;                  -- permanent index (add ORDERED for B+tree)\n"
      "  ANALYZE;            -- refresh catalog statistics\n"
      "  SET OPTLEVEL AUTO;  -- cost-based strategy selection (or 0..4)\n"
      "  SET DIVISION SORT;  -- division algorithm (or HASH)\n"
      "  SET PERMINDEXES ON; -- reuse fresh permanent indexes (or OFF)\n"
      "  SET BATCH 64;       -- rows per pipeline chunk (1..65536)\n"
      "  SET TRACE ON;       -- per-query span traces (.trace FILE exports)\n"
      "  EXPLAIN ANALYZE [<x.s> OF EACH x IN r: x.a < 10];\n"
      "  METRICS;            -- session metrics (same as .metrics)\n"
      "  SET SLOWLOG 1000;   -- record queries slower than 1000us (.slow)\n"
      "  out := [<s.fingerprint, s.calls> OF EACH s IN sys$statements: TRUE];\n"
      "                      -- the engine's own telemetry is queryable\n"
      "meta: .help .level N|auto .stats .metrics [prom] .slow [N|off] "
      ".trace on|off|FILE .dump .quit\n";
}

}  // namespace

int main(int argc, char** argv) {
  pascalr::Database db;
  pascalr::Session session(&db, &std::cout);

  if (argc > 1 && std::string(argv[1]) == "--university") {
    if (auto st = pascalr::CreateUniversitySchema(&db); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    if (auto st = pascalr::PopulateSmallExample(&db); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "(loaded the paper's Figure 1 university database)\n";
  }

  std::cout << "pascalr shell — .help for help\n";
  std::string buffer;
  std::string line;
  while (true) {
    std::cout << (buffer.empty() ? "pascalr> " : "     ..> ") << std::flush;
    if (!std::getline(std::cin, line)) break;

    if (buffer.empty() && !line.empty() && line[0] == '.') {
      if (line == ".quit" || line == ".exit") break;
      if (line == ".help") {
        PrintHelp();
      } else if (line == ".stats") {
        std::cout << session.total_stats().ToString() << "\n";
      } else if (line.rfind(".metrics", 0) == 0) {
        std::string arg = pascalr::AsciiToLower(Trim(line.substr(8)));
        if (arg == "prom") {
          std::cout << pascalr::ExportPrometheus(db.server_metrics(),
                                                 &db.stmt_stats(),
                                                 &db.slow_log());
        } else if (arg.empty()) {
          std::cout << session.metrics().Dump();
        } else {
          std::cout << ".metrics takes no argument, or 'prom'\n";
        }
      } else if (line.rfind(".slow", 0) == 0) {
        std::string arg = Trim(line.substr(5));
        if (arg.empty()) {
          std::cout << db.slow_log().Dump();
        } else if (auto st = session.ExecuteScript("SET SLOWLOG " + arg + ";");
                   !st.ok()) {
          std::cout << "error: " << st.ToString() << "\n";
        } else if (db.slow_log().threshold_us() == 0) {
          std::cout << "slow-query log disarmed\n";
        } else {
          std::cout << "recording queries slower than "
                    << db.slow_log().threshold_us() << "us\n";
        }
      } else if (line.rfind(".trace", 0) == 0) {
        std::string arg = Trim(line.substr(6));
        std::string lower = pascalr::AsciiToLower(arg);
        if (lower == "on" || lower == "off") {
          session.set_tracing(lower == "on");
          std::cout << "tracing " << lower
                    << (lower == "on" ? " (.trace FILE exports Chrome "
                                        "trace-event JSON)\n"
                                      : "\n");
        } else if (arg.empty()) {
          // No argument: show the collected traces inline.
          if (session.traces().empty()) {
            std::cout << "no traces collected (SET TRACE ON; or .trace on "
                         "first)\n";
          } else {
            for (const pascalr::QueryTrace& t : session.traces()) {
              std::cout << t.ToString();
            }
          }
        } else {
          auto st = pascalr::WriteTraceFile(arg, session.traces());
          if (st.ok()) {
            std::cout << "wrote " << session.traces().size()
                      << " trace(s) to " << arg << "\n";
            session.ClearTraces();
          } else {
            std::cout << "error: " << st.ToString() << "\n";
          }
        }
      } else if (line == ".dump") {
        auto script = pascalr::ExportScript(db);
        if (script.ok()) {
          std::cout << *script;
        } else {
          std::cout << "error: " << script.status().ToString() << "\n";
        }
      } else if (line.rfind(".level", 0) == 0) {
        std::string arg = Trim(line.substr(6));
        if (pascalr::AsciiToLower(arg) == "auto") {
          session.options().level = pascalr::OptLevel::kAuto;
          std::cout << "optimization "
                    << pascalr::OptLevelToString(session.options().level)
                    << " (run ANALYZE; for accurate estimates)\n";
        } else if (arg.size() == 1 && arg[0] >= '0' && arg[0] <= '4') {
          session.options().level =
              static_cast<pascalr::OptLevel>(arg[0] - '0');
          std::cout << "optimization "
                    << pascalr::OptLevelToString(session.options().level)
                    << "\n";
        } else {
          std::cout << "level must be 0..4 or auto\n";
        }
      } else {
        std::cout << "unknown meta command; .help for help\n";
      }
      continue;
    }

    // An empty line with statements pending forces execution — the escape
    // hatch for an accidentally unterminated statement (its parse error
    // is reported and the buffer cleared, re-enabling meta commands).
    bool force = Trim(line).empty();
    if (force && buffer.find_first_not_of(" \t\n") == std::string::npos) {
      buffer.clear();
      continue;
    }
    buffer += line;
    buffer += "\n";
    // Execute once the buffer ends in ';' (outside a string literal this
    // is a statement terminator). Multi-line statements have inner lines
    // ending in ';' too (VAR RECORD components, STATS columns); the
    // parser reports those as incomplete — ExecuteScript parses the whole
    // buffer before executing anything — so keep buffering until the
    // statement closes. This is what makes `.dump` output replayable by
    // piping it back into the shell.
    std::string::size_type last = buffer.find_last_not_of(" \t\n");
    if (!force && (last == std::string::npos || buffer[last] != ';')) {
      continue;
    }

    pascalr::Status st = session.ExecuteScript(buffer);
    if (!force && !st.ok() &&
        st.ToString().find("found end of input") != std::string::npos) {
      continue;
    }
    if (!st.ok()) std::cout << "error: " << st.ToString() << "\n";
    buffer.clear();
  }
  std::cout << "\n";
  return 0;
}
