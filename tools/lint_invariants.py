#!/usr/bin/env python3
"""Engine-invariant linter for the pascalr repository.

Enforces cross-file conventions that the compiler cannot see and that have
each been broken (or nearly broken) by ordinary drift:

  execstats-merge       every ExecStats counter is accumulated in
                        ExecStats::Merge (src/exec/stats.cc)
  execstats-export      every ExecStats counter is exported as a
                        bench_util::ExportStats column (bench/bench_util.h)
  execstats-totalwork   every ExecStats counter is either summed in
                        TotalWork() or documented out of it (the field's
                        doc comment, or TotalWork's, must say why)
  execstats-sysstatements
                        every ExecStats counter is exposed as a
                        sys$statements column (the FillStatements body in
                        src/obs/system_relations.cc must read it) — the
                        queryable telemetry surface must not silently lag
                        the counter set
  span-name-literal     trace span names at call sites come from the
                        registered constants in src/obs/span_names.h,
                        never from string literals
  span-unregistered     every span constant declared in
                        src/obs/span_names.h appears in kAllSpanNames —
                        iteration-based validation and dashboards see the
                        whole vocabulary
  raw-mutex-member      no std::mutex / std::shared_mutex /
                        std::condition_variable members outside
                        src/base/mutex.h — the annotated wrappers are what
                        make -Werror=thread-safety meaningful
  mutex-unannotated     every Mutex/SharedMutex member is referenced by a
                        GUARDED_BY / REQUIRES / ACQUIRE annotation in its
                        file, or carries a `lint: mutex-protocol(...)`
                        justification comment (protocol locks guard a
                        discipline, not data)
  concurrency-unguarded no non-atomic mutable shared state in
                        src/concurrency/ headers: every data member is
                        atomic, GUARDED_BY a lock, a self-synchronised
                        type, const, or covered by a
                        `lint: thread-compatible(...)` class marker /
                        `lint: unguarded(...)` member marker
  hot-path-log          no PASCALR_LOG_INFO/WARNING/ERROR inside the
                        ::Next(), ::NextBatch() and ::NextImpl() bodies
                        of the per-row / per-chunk hot paths (logging in
                        a pull loop is an accidental O(rows) slowdown);
                        PASCALR_LOG_FATAL stays legal
  memory-order-relaxed  the bare token is banned outside src/base/ and
                        src/obs/ — relaxed operations go through the named
                        helpers in base/atomic_util.h
  planner-options-key   every PlannerOptions field (src/opt/planner.h)
                        appears in its operator== and in
                        EncodePlannerOptions (src/concurrency/
                        plan_cache.cc) — a field missing from the key lets
                        sessions with different options adopt each
                        other's plans
  stmt-accounting       FoldStatementStats is called from one function
                        only, and the "query.count" / "query.latency_us"
                        metric literals appear in that function only —
                        one accounting path for every query surface, so
                        Execute, cursors and EXPLAIN ANALYZE cannot drift
                        apart

Usage:
  lint_invariants.py --root <repo-root>          lint the tree
  lint_invariants.py --self-test <fixtures-dir>  run the fixture suite

Exit status 0 when clean / all fixtures behave, 1 otherwise. Stdlib only.
"""

import argparse
import os
import re
import sys

# Types that synchronise themselves (or are immutable-after-construction
# handles) and therefore need no GUARDED_BY when embedded as members.
SELF_SYNCHRONISED_TYPES = {
    "Mutex",
    "SharedMutex",
    "CondVar",
    "SnapshotRegistry",
    "ConcurrencyCounters",
    "DeltaLayer",
    "SharedPlanCache",
    "MetricsRegistry",
}

# Hot row-at-a-time files whose Next() bodies must not log.
HOT_PATH_FILES = ("src/exec/cursor.cc", "src/pipeline/iterators.cc")

SPAN_GUARD_CALLS = (
    "TraceSpanGuard",
    "QueryTraceGuard",
    "AddCompleteSpan",
    "BeginQuery",
    "OpenSpan",
)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments(text):
    """Replaces // and /* */ comment bodies (and string/char literals)
    with spaces, preserving line structure so line numbers survive."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c if c in ('"', "\n") else " ")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c if c in ("'", "\n") else " ")
        i += 1
    return "".join(out)


def iter_source_files(root, subdir, exts=(".h", ".cc")):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def extract_body(text, open_brace_index):
    """Returns text[open_brace_index+1 : matching_close]."""
    depth = 0
    for i in range(open_brace_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace_index + 1:i]
    return text[open_brace_index + 1:]


def find_function_body(text, pattern):
    """Body of the first function whose header matches `pattern` (which
    must end at or before the opening brace)."""
    m = re.search(pattern, text)
    if not m:
        return None
    brace = text.find("{", m.end() - 1)
    if brace < 0:
        return None
    return extract_body(text, brace)


# ---- execstats-* ------------------------------------------------------


def check_execstats(root, findings):
    stats_h_path = os.path.join(root, "src/exec/stats.h")
    if not os.path.exists(stats_h_path):
        return  # fixture tree without the ExecStats surface
    stats_h = read(stats_h_path)
    struct_m = re.search(r"struct\s+ExecStats\s*\{", stats_h)
    if not struct_m:
        return
    body_start = stats_h.find("{", struct_m.start())
    body = extract_body(stats_h, body_start)
    body_line0 = stats_h[:body_start].count("\n") + 1

    # Field declarations with their line numbers and attached doc text
    # (the ///-comments directly above plus any trailing comment).
    fields = []
    lines = body.split("\n")
    for i, line in enumerate(lines):
        m = re.match(r"\s*uint64_t\s+(\w+)\s*=\s*0\s*;(.*)$", line)
        if not m:
            continue
        name = m.group(1)
        doc = [m.group(2)]
        j = i - 1
        while j >= 0 and re.match(r"\s*///", lines[j]):
            doc.append(lines[j])
            j -= 1
        fields.append((name, body_line0 + i, " ".join(doc)))
    if not fields:
        return

    total_doc = []
    for i, line in enumerate(lines):
        if "TotalWork() const" in line:
            j = i - 1
            while j >= 0 and re.match(r"\s*///", lines[j]):
                total_doc.append(lines[j])
                j -= 1
            break
    total_doc = " ".join(total_doc)
    total_body = find_function_body(stats_h, r"TotalWork\(\)\s*const\s*\{")
    if total_body is None:
        total_body = ""

    merge_body = ""
    stats_cc_path = os.path.join(root, "src/exec/stats.cc")
    if os.path.exists(stats_cc_path):
        merge_body = find_function_body(
            read(stats_cc_path),
            r"void\s+ExecStats::Merge\s*\(") or ""

    export_body = ""
    bench_path = os.path.join(root, "bench/bench_util.h")
    if os.path.exists(bench_path):
        export_body = find_function_body(
            read(bench_path), r"void\s+ExportStats\s*\(") or ""

    # None (skip) in fixture trees without the system-relations surface.
    sys_text = None
    sys_path = os.path.join(root, "src/obs/system_relations.cc")
    if os.path.exists(sys_path):
        sys_text = read(sys_path)

    stats_h_rel = rel(root, stats_h_path)
    for name, line, doc in fields:
        word = re.compile(r"\b%s\b" % re.escape(name))
        if not word.search(merge_body):
            findings.append(Finding(
                "execstats-merge", "src/exec/stats.cc", 1,
                "ExecStats::%s is not accumulated in Merge(); "
                "runs that aggregate stats silently drop it" % name))
        if not re.search(r"stats\.%s\b" % re.escape(name), export_body):
            findings.append(Finding(
                "execstats-export", "bench/bench_util.h", 1,
                "ExecStats::%s has no ExportStats column; the BENCH_*.json "
                "perf trajectory cannot see it" % name))
        in_total = bool(word.search(total_body))
        documented_out = ("TotalWork" in doc) or bool(word.search(total_doc))
        if not in_total and not documented_out:
            findings.append(Finding(
                "execstats-totalwork", stats_h_rel, line,
                "ExecStats::%s is neither summed in TotalWork() nor "
                "documented out of it (mention TotalWork in the field's "
                "doc comment or list the field in TotalWork's)" % name))
        if sys_text is not None and not re.search(
                r"counters\.%s\b" % re.escape(name), sys_text):
            findings.append(Finding(
                "execstats-sysstatements", "src/obs/system_relations.cc", 1,
                "ExecStats::%s has no sys$statements column — add it to "
                "StatementsSchema() and FillStatements in "
                "src/obs/system_relations.cc so the queryable telemetry "
                "surface keeps up with the counter set" % name))


# ---- span-name-literal ------------------------------------------------


def check_span_literals(root, findings):
    for path in iter_source_files(root, "src", exts=(".cc",)):
        rp = rel(root, path)
        if rp.startswith("src/obs/"):
            continue  # the tracer/registry implementation itself
        text = read(path)
        for i, line in enumerate(text.split("\n"), start=1):
            for call in SPAN_GUARD_CALLS:
                for m in re.finditer(
                        r"\b%s\b\s*(?:\w+\s*)?\(\s*\"([^\"]*)\"" % call,
                        line):
                    findings.append(Finding(
                        "span-name-literal", rp, i,
                        "span name \"%s\" passed as a string literal to "
                        "%s — use a spans:: constant from "
                        "src/obs/span_names.h" % (m.group(1), call)))


# ---- span-unregistered ------------------------------------------------


def check_span_registry(root, findings):
    path = os.path.join(root, "src/obs/span_names.h")
    if not os.path.exists(path):
        return  # fixture tree without the span vocabulary
    text = read(path)
    rp = rel(root, path)
    constants = []
    for i, line in enumerate(text.split("\n"), start=1):
        m = re.search(r"inline\s+constexpr\s+char\s+(k\w+)\s*\[\]", line)
        if m:
            constants.append((m.group(1), i))
    if not constants:
        return
    array_m = re.search(r"kAllSpanNames\s*\[\]\s*=\s*\{", text)
    if not array_m:
        findings.append(Finding(
            "span-unregistered", rp, 1,
            "span_names.h declares span constants but no kAllSpanNames "
            "registry array — iteration-based validation sees nothing"))
        return
    array_body = extract_body(text, text.find("{", array_m.start()))
    for name, line in constants:
        if not re.search(r"\b%s\b" % re.escape(name), array_body):
            findings.append(Finding(
                "span-unregistered", rp, line,
                "span constant %s is not listed in kAllSpanNames — "
                "register it so validation code and dashboards iterate "
                "the full vocabulary" % name))


# ---- raw-mutex-member / mutex-unannotated -----------------------------

RAW_LOCK_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(mutex|shared_mutex|condition_variable)"
    r"\s+\w+\s*;")
WRAPPED_LOCK_RE = re.compile(
    r"^\s*(?:mutable\s+)?(Mutex|SharedMutex)\s+(\w+)\s*;")


def check_mutex_members(root, findings):
    for path in iter_source_files(root, "src"):
        rp = rel(root, path)
        if rp == "src/base/mutex.h":
            continue  # the wrappers themselves own the raw primitives
        raw_text = read(path)
        text = strip_comments(raw_text)
        code_lines = text.split("\n")
        raw_lines = raw_text.split("\n")
        for i, line in enumerate(code_lines, start=1):
            m = RAW_LOCK_RE.match(line)
            if m:
                findings.append(Finding(
                    "raw-mutex-member", rp, i,
                    "raw std::%s member — use the annotated wrappers in "
                    "base/mutex.h so -Werror=thread-safety can see the "
                    "acquisitions" % m.group(1)))
                continue
            m = WRAPPED_LOCK_RE.match(line)
            if not m:
                continue
            name = m.group(2)
            referenced = re.search(
                r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
                r"ACQUIRE|ACQUIRE_SHARED|EXCLUDES)\s*\(\s*%s\s*\)"
                % re.escape(name), text)
            # `lint: mutex-protocol(...)` in the comment block above the
            # declaration justifies a lock that guards a discipline
            # rather than members.
            protocol = False
            j = i - 2
            while j >= 0 and re.match(r"\s*(///|//)", raw_lines[j]):
                if "lint: mutex-protocol(" in raw_lines[j]:
                    protocol = True
                j -= 1
            if not referenced and not protocol:
                findings.append(Finding(
                    "mutex-unannotated", rp, i,
                    "%s member '%s' is never named by a GUARDED_BY/"
                    "REQUIRES annotation and carries no `lint: "
                    "mutex-protocol(...)` justification — the analysis "
                    "cannot check anything about it" % (m.group(1), name)))


# ---- concurrency-unguarded --------------------------------------------

MEMBER_SKIP_RE = re.compile(
    r"\s*(public|private|protected|using|typedef|friend|static|enum|"
    r"return|if|for|while|template|namespace|#)\b|\s*[}{]|^\s*$")
CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+(?:\w+\s+)*(\w+)\s*(.*)$")


def check_concurrency_members(root, findings):
    base = os.path.join(root, "src/concurrency")
    if not os.path.isdir(base):
        return
    for path in iter_source_files(root, "src/concurrency", exts=(".h",)):
        rp = rel(root, path)
        raw_text = read(path)
        text = strip_comments(raw_text)
        raw_lines = raw_text.split("\n")
        lines = text.split("\n")

        # (body_depth, exempt) for each open class/struct.
        class_stack = []
        depth = 0
        pending_class = None  # class seen, waiting for its '{'
        i = 0
        while i < len(lines):
            line = lines[i]
            stmt = line
            stmt_line = i + 1
            # Join continuation lines of member declarations so a
            # GUARDED_BY on the next line is seen.
            if (class_stack and depth == class_stack[-1][0]
                    and pending_class is None
                    and not MEMBER_SKIP_RE.match(line)):
                k = i
                while (";" not in stmt and "{" not in stmt
                       and k + 1 < len(lines)):
                    k += 1
                    stmt = stmt + " " + lines[k].strip()
                if ";" in stmt and "(" not in stmt.split(";")[0]:
                    decl = stmt.split(";")[0].strip()
                    if decl and not _member_is_safe(decl):
                        exempt = class_stack[-1][1]
                        marker = "lint: unguarded(" in "\n".join(
                            raw_lines[max(0, stmt_line - 4):stmt_line + 1])
                        if not exempt and not marker:
                            findings.append(Finding(
                                "concurrency-unguarded", rp, stmt_line,
                                "member '%s' in src/concurrency/ is "
                                "neither atomic, GUARDED_BY a lock, a "
                                "self-synchronised type, nor const — "
                                "mark the class `lint: thread-compatible"
                                "(...)` or the member `lint: unguarded"
                                "(...)` if it is safe by design" % decl))
                    i = k
            cm = CLASS_RE.match(line)
            if cm and ";" not in line.split("{")[0]:
                # Exemption marker in the comment block above the header.
                exempt = False
                j = stmt_line - 2
                while j >= 0 and re.match(r"\s*(///|//)", raw_lines[j]):
                    if "lint: thread-compatible(" in raw_lines[j]:
                        exempt = True
                    j -= 1
                pending_class = (depth, exempt)
            for c in lines[i]:
                if c == "{":
                    depth += 1
                    if pending_class is not None:
                        class_stack.append((depth, pending_class[1]))
                        pending_class = None
                elif c == "}":
                    if class_stack and class_stack[-1][0] == depth:
                        class_stack.pop()
                    depth -= 1
            i += 1


def _member_is_safe(decl):
    if "std::atomic" in decl or "GUARDED_BY" in decl:
        return True
    if re.search(r"\bconst\b", decl):
        return True
    if re.search(r"\bconstexpr\b", decl):
        return True
    first = re.sub(r"^(mutable|inline)\s+", "", decl)
    type_token = first.split()[0] if first.split() else ""
    return type_token.lstrip("*&") in SELF_SYNCHRONISED_TYPES


# ---- hot-path-log -----------------------------------------------------


def check_hot_path_logs(root, findings):
    for hot in HOT_PATH_FILES:
        path = os.path.join(root, hot)
        if not os.path.exists(path):
            continue
        text = read(path)
        for m in re.finditer(
                r"[\w>]+::(Next(?:Batch|Impl)?)\s*\([^)]*\)[^;{]*\{", text):
            brace = text.find("{", m.start())
            body = extract_body(text, brace)
            body_line0 = text[:brace].count("\n") + 1
            for lm in re.finditer(
                    r"PASCALR_LOG_(INFO|WARNING|ERROR)\b", body):
                line = body_line0 + body[:lm.start()].count("\n")
                findings.append(Finding(
                    "hot-path-log", hot, line,
                    "PASCALR_LOG_%s inside a ::%s() body — this runs "
                    "once per pull; log at Open/Close or use "
                    "PASCALR_LOG_FATAL for invariant failures"
                    % (lm.group(1), m.group(1))))


# ---- memory-order-relaxed ---------------------------------------------


def check_relaxed_tokens(root, findings):
    for path in iter_source_files(root, "src"):
        rp = rel(root, path)
        if rp.startswith(("src/base/", "src/obs/")):
            continue
        text = strip_comments(read(path))
        for i, line in enumerate(text.split("\n"), start=1):
            if "memory_order_relaxed" in line:
                findings.append(Finding(
                    "memory-order-relaxed", rp, i,
                    "bare memory_order_relaxed outside src/base/ and "
                    "src/obs/ — use RelaxedLoad/RelaxedStore/"
                    "RelaxedFetchAdd from base/atomic_util.h (acquire/"
                    "release stay allowed everywhere)"))


# ---- planner-options-key ----------------------------------------------


def check_planner_options_key(root, findings):
    planner_path = os.path.join(root, "src/opt/planner.h")
    if not os.path.exists(planner_path):
        return  # fixture tree without the planner surface
    planner = strip_comments(read(planner_path))
    struct_m = re.search(r"struct\s+PlannerOptions\s*\{", planner)
    if not struct_m:
        return
    body_start = planner.find("{", struct_m.start())
    body = extract_body(planner, body_start)
    body_line0 = planner[:body_start].count("\n") + 1
    fields = []
    for i, line in enumerate(body.split("\n")):
        m = re.match(r"\s*[\w:<>]+\s+(\w+)\s*(?:=[^;]*)?;", line)
        if m:
            fields.append((m.group(1), body_line0 + i))
    rp = rel(root, planner_path)

    eq_body = find_function_body(
        planner, r"operator==\s*\(\s*const\s+PlannerOptions\s*&")
    if eq_body is None:
        findings.append(Finding(
            "planner-options-key", rp, 1,
            "no operator==(const PlannerOptions&, ...) — the prepared-"
            "query plan cache cannot see option changes"))
        eq_body = ""
    else:
        for name, line in fields:
            if not re.search(r"\.%s\b" % re.escape(name), eq_body):
                findings.append(Finding(
                    "planner-options-key", rp, line,
                    "PlannerOptions::%s is not compared in operator== — "
                    "a prepared query keeps its plan when the option "
                    "changes" % name))

    cache_path = os.path.join(root, "src/concurrency/plan_cache.cc")
    cache = strip_comments(read(cache_path)) if os.path.exists(
        cache_path) else ""
    sig = re.search(r"EncodePlannerOptions\s*\(\s*const\s+PlannerOptions\s*&"
                    r"\s*(\w+)\s*\)\s*\{", cache)
    if sig is None:
        findings.append(Finding(
            "planner-options-key", "src/concurrency/plan_cache.cc", 1,
            "no EncodePlannerOptions(const PlannerOptions&) definition — "
            "the shared plan cache key cannot encode the options"))
        return
    encode_body = extract_body(cache, cache.find("{", sig.end() - 1))
    param = sig.group(1)
    for name, line in fields:
        if not re.search(r"\b%s\.%s\b" % (re.escape(param), re.escape(name)),
                         encode_body):
            findings.append(Finding(
                "planner-options-key", rp, line,
                "PlannerOptions::%s is not encoded by EncodePlannerOptions "
                "(src/concurrency/plan_cache.cc) — sessions that differ "
                "only in it share one cached plan" % name))


# ---- stmt-accounting --------------------------------------------------

STMT_FOLD = "FoldStatementStats"
STMT_METRIC_LITERALS = ('"query.count"', '"query.latency_us"')
NOT_FUNCTION_HEADER_RE = re.compile(
    r"^\s*(namespace|class|struct|union|enum|extern)\b|=\s*$")


def function_spans(code):
    """(name, body_start, body_end) of every outermost function body in
    `code` (comment- and string-stripped text): a brace block whose header
    (the text since the previous ';', '{' or '}') holds a parameter list
    and is not a namespace, class, enum or initializer. Bodies nested in a
    function (lambdas, local blocks) belong to it."""
    spans = []
    stack = []  # per open brace: index of its function span, or None
    header_start = 0
    for i, c in enumerate(code):
        if c == "{":
            in_function = any(entry is not None for entry in stack)
            header = code[header_start:i]
            entry = None
            if (not in_function and "(" in header
                    and not NOT_FUNCTION_HEADER_RE.search(header)):
                m = re.search(r"([~\w:]+)\s*\(", header)
                spans.append([m.group(1) if m else "?", i + 1, len(code)])
                entry = len(spans) - 1
            stack.append(entry)
            header_start = i + 1
        elif c == "}":
            if stack:
                entry = stack.pop()
                if entry is not None:
                    spans[entry][2] = i
            header_start = i + 1
        elif c == ";":
            header_start = i + 1
    return [tuple(span) for span in spans]


def check_stmt_accounting(root, findings):
    callers = {}  # (path, function) -> first call line
    literals = []  # (path, line, literal, enclosing function or None)
    for path in iter_source_files(root, "src"):
        rp = rel(root, path)
        raw = read(path)
        code = strip_comments(raw)  # length-preserving
        spans = function_spans(code)

        def enclosing(pos):
            for name, start, end in spans:
                if start <= pos < end:
                    return (rp, name, start)
            return None

        for m in re.finditer(r"\b%s\s*\(" % STMT_FOLD, code):
            fn = enclosing(m.start())
            if fn is not None:  # declarations and the definition are not
                callers.setdefault(fn, code[:m.start()].count("\n") + 1)
        for literal in STMT_METRIC_LITERALS:
            for m in re.finditer(re.escape(literal), raw):
                if code[m.start()] != '"':
                    continue  # inside a comment
                literals.append((rp, code[:m.start()].count("\n") + 1,
                                 literal, enclosing(m.start())))
    if len(callers) > 1:
        for (rp, name, _), line in sorted(callers.items(),
                                          key=lambda kv: kv[0]):
            findings.append(Finding(
                "stmt-accounting", rp, line,
                "%s is called from %d functions (here from %s) — every "
                "query surface must account through one helper"
                % (STMT_FOLD, len(callers), name)))
    allowed = next(iter(callers)) if len(callers) == 1 else None
    for rp, line, literal, fn in literals:
        if fn is None or fn != allowed:
            findings.append(Finding(
                "stmt-accounting", rp, line,
                "metric %s recorded outside the one function that calls "
                "%s — statement accounting belongs in that function"
                % (literal, STMT_FOLD)))


# ---- driver -----------------------------------------------------------

ALL_CHECKS = (
    check_execstats,
    check_span_literals,
    check_span_registry,
    check_mutex_members,
    check_concurrency_members,
    check_hot_path_logs,
    check_relaxed_tokens,
    check_planner_options_key,
    check_stmt_accounting,
)


def lint_tree(root):
    findings = []
    for check in ALL_CHECKS:
        check(root, findings)
    return findings


def run_self_test(fixtures_dir):
    failures = 0
    cases = sorted(
        d for d in os.listdir(fixtures_dir)
        if os.path.isdir(os.path.join(fixtures_dir, d)))
    if not cases:
        print("no fixture cases under %s" % fixtures_dir)
        return 1
    for case in cases:
        case_dir = os.path.join(fixtures_dir, case)
        expect_path = os.path.join(case_dir, "expect.txt")
        expected = set()
        if os.path.exists(expect_path):
            expected = {
                line.strip() for line in read(expect_path).splitlines()
                if line.strip() and not line.startswith("#")
            }
        findings = lint_tree(case_dir)
        fired = {f.rule for f in findings}
        if fired == expected:
            print("PASS %s (%s)" % (
                case, ", ".join(sorted(fired)) if fired else "clean"))
        else:
            failures += 1
            print("FAIL %s: expected {%s} got {%s}" % (
                case, ", ".join(sorted(expected)),
                ", ".join(sorted(fired))))
            for f in findings:
                print("    " + str(f))
    print("%d/%d fixture cases behaved" % (len(cases) - failures,
                                           len(cases)))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", help="repository root to lint")
    ap.add_argument("--self-test",
                    help="fixtures directory: run pass/fail cases")
    args = ap.parse_args()
    if bool(args.root) == bool(args.self_test):
        ap.error("exactly one of --root / --self-test is required")
    if args.self_test:
        return run_self_test(args.self_test)
    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print("%d invariant violation(s)" % len(findings))
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
