#!/usr/bin/env python3
"""smptree-lint: project-specific static checks for the smptree codebase.

The generic layers (clang-tidy, -Wthread-safety, TSan) catch generic bugs;
this pass enforces the contracts that are specific to *this* repository's
concurrency design (docs/STATIC_ANALYSIS.md has the full rationale):

  atomic-explicit-order   every std::atomic operation names its
                          std::memory_order at the call site
  guarded-by-coverage     mutable members of Mutex-owning classes carry
                          GUARDED_BY/PT_GUARDED_BY or a reasoned waiver
  raii-span-pairing       TraceRecorder binding/span APIs only via the
                          TraceSpan / TraceThreadBinding RAII types
  no-blocking-under-lock  no sleeps, Env/LevelStorage I/O, barrier waits,
                          or non-predicate-loop CondVar waits while a
                          MutexLock-style scope holds a lock
  status-must-use         util::Status results are never silently dropped
                          at statement level outside tests/
  stream-source-blocking-io
                          StreamSource implementations keep blocking I/O
                          (shard reads, ifstream, fopen) inside the
                          ReaderLoop read-ahead seam; the consumer-facing
                          surface (NextBatch et al.) must never touch disk

The tool is dependency-free on purpose: it runs on the stock python3 of any
dev container or CI runner, with no LLVM/libclang install. It carries its
own C++ lexer and a lightweight scope/class model -- enough syntax to state
the five contracts above precisely, pinned by the fixture suite under
tools/lint/testdata/ (tests/lint_selftest.sh runs it under ctest).

Waivers: a finding is silenced by a comment on the same line or the line
directly above:

    // lint: <tag>(<reason>)

where <tag> is one of: atomic-order, unguarded, raw-span, blocking,
status-discard, stream-io. The reason string is mandatory; an empty reason is itself
an (unwaivable) finding. Unused waivers are reported in the JSON summary.

Usage:
    smptree_lint.py [paths...]              # default: <repo>/src
    smptree_lint.py --compdb build/compile_commands.json   # src tools bench
    smptree_lint.py --json findings.json --check atomic-explicit-order src

Exit status: 0 clean, 1 unwaivered findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

TOOL_VERSION = 1

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# ---------------------------------------------------------------------------
# Check configuration (the project-specific knowledge lives here).
# ---------------------------------------------------------------------------

# Waiver tag -> check id.
WAIVER_TAGS = {
    "atomic-order": "atomic-explicit-order",
    "unguarded": "guarded-by-coverage",
    "raw-span": "raii-span-pairing",
    "blocking": "no-blocking-under-lock",
    "status-discard": "status-must-use",
    "stream-io": "stream-source-blocking-io",
}

# std::atomic member functions that take a std::memory_order parameter.
# `clear` and `wait` are deliberately absent: they collide with the
# std::string/std::vector/CondVar surface and the project does not use
# atomic_flag::clear or atomic::wait.
ATOMIC_ORDERED_METHODS = {
    "load", "store", "exchange",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set",
}

# Compound-assignment / increment operators on a declared atomic lvalue are
# sequentially-consistent RMWs in disguise.
ATOMIC_OPERATOR_TOKENS = {"++", "--", "+=", "-=", "|=", "&=", "^="}

# Thread-safety attribute macros (util/thread_annotations.h). Used to tell
# annotated function declarations from data members.
ATTR_MACROS = {
    "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRE", "RELEASE", "TRY_ACQUIRE",
    "REQUIRES", "REQUIRES_SHARED", "EXCLUDES", "CAPABILITY",
    "SCOPED_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS", "RETURN_CAPABILITY",
    "ACQUIRE_SHARED", "RELEASE_SHARED", "ASSERT_CAPABILITY",
}

# Types that synchronize internally; members of these types need no
# GUARDED_BY even inside a Mutex-owning class. The project entries are the
# classes whose headers document an internal lock or all-atomic state:
# Barrier, DynamicScheduler (atomic cursor), MwkLevelState (own
# mu_/cv_), ErrorSink (first-error latch),
# TraceRecorder (locked attach, quiescent reads), LatencyHistogram
# (atomic buckets).
SELF_SYNC_TYPES = {
    "Mutex", "CondVar", "SharedExclusiveCheck",
    "Barrier", "DynamicScheduler", "MwkLevelState",
    "ErrorSink", "TraceRecorder", "LatencyHistogram",
}

# RAII lock types: a declaration `<LockType> name(...)` (or with template
# args) marks the rest of the enclosing scope as lock-holding.
LOCK_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock",
              "shared_lock"}

# Calls that block the calling thread. Flagged whenever they happen in a
# scope that holds a lock. Method names are the project's Env / File /
# LevelStorage blocking surface; bare names are std/posix sleeps and
# socket syscalls.
BLOCKING_METHODS = {
    # storage/env.h File + Env surface (disk I/O on PosixEnv)
    "Read", "ReadView", "Append", "Truncate", "NewFile", "DeleteFile",
    "CreateDir", "RemoveDirRecursive",
    # storage/level_storage.h phase surface (fans out to File I/O)
    "AdvanceLevel", "AppendChild", "FlushAll", "FlushAlternate",
    "ReadSegment", "InitRoot", "FinishRootLoad", "Flush",
}
BLOCKING_BARE_CALLS = {
    "sleep_for", "sleep_until", "usleep", "nanosleep",
    "accept", "recv", "send", "connect", "poll", "select",
}

# Raw trace APIs (util/trace.h): builder code must go through the RAII
# types, never bind or touch thread buffers directly.
RAW_TRACE_IDENTS = {"AttachThread", "t_buffer", "trace_internal"}
# Files implementing the trace layer itself (relative to repo root).
TRACE_IMPL_FILES = {"src/util/trace.h", "src/util/trace.cc"}

# Return types whose results must be consumed. Result<T> carries a Status.
STATUS_RETURN_TYPES = {"Status"}

# Streaming ingest contract (src/stream/stream_source.h): classes derived
# from StreamSource feed the Hoeffding builder on its own thread, so the
# consumer-facing surface (NextBatch and friends) must never block on disk.
# Blocking shard loads belong in the ReaderLoop read-ahead seam, which runs
# on the source's private reader thread.
STREAM_SOURCE_ROOT = "StreamSource"
STREAM_READAHEAD_METHODS = {"ReaderLoop"}
STREAM_BLOCKING_IO = {
    # Project shard/file I/O (src/stream/shard_io.h, util file helpers).
    "ReadCsv", "ReadBinaryShard", "WriteBinaryShard",
    "ReadFile", "WriteFile",
    # Standard library / posix file surface.
    "ifstream", "ofstream", "fstream",
    "fopen", "fread", "fwrite", "fgets", "fclose", "getline",
}

ALL_CHECKS = [
    "atomic-explicit-order",
    "guarded-by-coverage",
    "raii-span-pairing",
    "no-blocking-under-lock",
    "status-must-use",
    "stream-source-blocking-io",
]

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind    # 'id' | 'num' | 'str' | 'chr' | 'punct'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = ("->", "::", "++", "--", "+=", "-=", "*=", "/=", "%=", "|=", "&=",
           "^=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>")

_ID_RE = re.compile(r"[A-Za-z_]\w*")
_NUM_RE = re.compile(r"\.?\d(?:[\w.']|[eEpP][+-])*")


def lex(text):
    """Tokenizes C++ source. Returns (tokens, comments) where comments is a
    list of (line, comment_text) with the leading // or /* stripped.
    Preprocessor directives are consumed whole (with continuations) and
    produce no tokens."""
    toks = []
    comments = []
    i, n = 0, len(text)
    line = 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comments.append((line, text[i + 2:j].strip()))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                j = n
            body = text[i + 2:j]
            comments.append((line, body.strip()))
            line += body.count("\n")
            i = j + 2
            continue
        if c == "#" and at_line_start:
            # Skip the directive including backslash continuations.
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                if text[j - 1] == "\\" or (j >= 2 and text[j - 2:j] == "\\\r"):
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        at_line_start = False
        if c == '"':
            j = None
            # Raw string: the previous token ends in R (R"", u8R"", LR"").
            if i > 0 and text[i - 1] == "R" and toks and \
                    toks[-1].kind == "id" and toks[-1].text.endswith("R"):
                m2 = re.match(r'"([^()\\ ]{0,16})\(', text[i:])
                if m2:
                    delim = ")" + m2.group(1) + '"'
                    j = text.find(delim, i + m2.end())
                    j = n if j == -1 else j + len(delim)
                    toks.pop()  # drop the prefix identifier
            if j is None:
                j = i + 1
                while j < n and text[j] != '"':
                    if text[j] == "\\":
                        j += 1
                    j += 1
                j = min(j + 1, n)
            seg = text[i:j]
            toks.append(Tok("str", '""', line))
            line += seg.count("\n")
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            toks.append(Tok("chr", "''", line))
            i = min(j + 1, n)
            continue
        m = _ID_RE.match(text, i)
        if m:
            toks.append(Tok("id", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            toks.append(Tok("num", m.group(0), line))
            i = m.end()
            continue
        three = text[i:i + 3]
        if three in _PUNCT3:
            toks.append(Tok("punct", three, line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
            continue
        toks.append(Tok("punct", c, line))
        i += 1
    return toks, comments


# ---------------------------------------------------------------------------
# Findings and waivers
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message
        self.waived = False
        self.waiver_reason = None

    def to_json(self):
        d = {"check": self.check, "file": self.path, "line": self.line,
             "message": self.message, "waived": self.waived}
        if self.waiver_reason is not None:
            d["reason"] = self.waiver_reason
        return d


_WAIVER_RE = re.compile(r"lint:\s*([a-z-]+)\s*\(\s*(.*?)\s*\)\s*$")
_WAIVER_LOOSE_RE = re.compile(r"lint:\s*([a-z-]+)")


class Waiver:
    def __init__(self, tag, reason, line, path):
        self.tag = tag
        self.reason = reason
        self.line = line
        self.path = path
        self.used = False


def parse_waivers(comments, path, findings):
    """Extracts waivers from comments. Malformed waivers (unknown tag or
    empty reason) become unwaivable `bad-waiver` findings."""
    waivers = []
    for line, body in comments:
        if "lint:" not in body:
            continue
        m = _WAIVER_RE.search(body)
        if not m:
            lm = _WAIVER_LOOSE_RE.search(body)
            tag = lm.group(1) if lm else "?"
            findings.append(Finding(
                "bad-waiver", path, line,
                f"malformed lint waiver (tag '{tag}'): expected "
                "'// lint: <tag>(<reason>)' with a non-empty reason"))
            continue
        tag, reason = m.group(1), m.group(2)
        if tag not in WAIVER_TAGS:
            findings.append(Finding(
                "bad-waiver", path, line,
                f"unknown lint waiver tag '{tag}' (valid: "
                + ", ".join(sorted(WAIVER_TAGS)) + ")"))
            continue
        if not reason:
            findings.append(Finding(
                "bad-waiver", path, line,
                f"lint waiver '{tag}' has an empty reason; every waiver "
                "must say why the contract does not apply"))
            continue
        waivers.append(Waiver(tag, reason, line, path))
    return waivers


def apply_waivers(findings, waivers):
    """A waiver on line L covers matching findings on L and L+1 (i.e. a
    comment line directly above the flagged code)."""
    by_line = {}
    for w in waivers:
        by_line.setdefault((WAIVER_TAGS[w.tag], w.line), []).append(w)
        by_line.setdefault((WAIVER_TAGS[w.tag], w.line + 1), []).append(w)
    for f in findings:
        if f.check == "bad-waiver":
            continue
        # Prefer a waiver on the finding's own line over one on the line
        # above, so adjacent per-line waivers each bind their own finding.
        candidates = sorted(by_line.get((f.check, f.line), ()),
                           key=lambda w: w.line != f.line)
        for w in candidates:
            f.waived = True
            f.waiver_reason = w.reason
            w.used = True
            break


# ---------------------------------------------------------------------------
# Token helpers
# ---------------------------------------------------------------------------

_OPEN = {"(": ")", "[": "]", "{": "}"}


def match_bracket(toks, i):
    """Index of the bracket matching toks[i], or len(toks)."""
    close = _OPEN[toks[i].text]
    opened = toks[i].text
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == opened:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def match_template_args(toks, i, limit):
    """If toks[i] is '<' opening a plausible template argument list, returns
    the index of the matching '>'; else None. Conservative: gives up at ';',
    '{', '&&', '||', or statement end."""
    if toks[i].text != "<":
        return None
    depth = 0
    j = i
    while j < limit:
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j
        elif t in (";", "{", "&&", "||") :
            return None
        j += 1
    return None


# ---------------------------------------------------------------------------
# Check 1: atomic-explicit-order
# ---------------------------------------------------------------------------

def collect_atomic_names(toks):
    """Identifiers declared as std::atomic<...> / atomic_flag variables or
    members anywhere in this file."""
    names = set()
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("atomic", "atomic_flag",
                                            "atomic_bool", "atomic_int",
                                            "atomic_uint64_t"):
            continue
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            end = match_template_args(toks, j, min(len(toks), j + 64))
            if end is None:
                continue
            j = end + 1
        # Optional declarator qualifiers, then the declared name.
        while j < len(toks) and toks[j].text in ("*", "&", "const"):
            j += 1
        if j < len(toks) and toks[j].kind == "id":
            names.add(toks[j].text)
    return names


def check_atomic_explicit_order(path, toks, findings):
    atomics = collect_atomic_names(toks)
    n = len(toks)
    for i, t in enumerate(toks):
        # Method form: `.load(...)` / `->fetch_add(...)`.
        if t.kind == "id" and t.text in ATOMIC_ORDERED_METHODS and i >= 1 \
                and toks[i - 1].text in (".", "->") \
                and i + 1 < n and toks[i + 1].text == "(":
            close = match_bracket(toks, i + 1)
            has_order = any(
                toks[k].kind == "id" and toks[k].text.startswith("memory_order")
                for k in range(i + 2, close))
            # `.load(...)` on a non-atomic (e.g. a Tok in this very file)
            # is possible in principle; the project's method style is
            # CamelCase, so lowercase atomic verbs are atomics in practice.
            if not has_order:
                findings.append(Finding(
                    "atomic-explicit-order", path, t.line,
                    f"atomic {t.text}() without an explicit std::memory_order "
                    "(defaulted seq_cst hides the intended pairing; name the "
                    "order at the call site)"))
            continue
        # Operator form on a declared atomic: ++ / -- / |= / compound ops,
        # and plain assignment `a = x`.
        if t.kind == "id" and t.text in atomics:
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            if nxt in ATOMIC_OPERATOR_TOKENS or prev in ("++", "--"):
                findings.append(Finding(
                    "atomic-explicit-order", path, t.line,
                    f"operator {nxt or prev} on std::atomic '{t.text}' is an "
                    "implicit seq_cst RMW; use an explicit fetch_* with a "
                    "named std::memory_order"))
            elif nxt == "=" and i + 2 < n and toks[i + 2].text != "=":
                # Assignment through operator= (not ==). Skip declarations:
                # `std::atomic<T> x = ...` has the type right before.
                if prev in (">", "*", "&") or \
                        (i > 0 and toks[i - 1].kind == "id"):
                    continue
                findings.append(Finding(
                    "atomic-explicit-order", path, t.line,
                    f"assignment to std::atomic '{t.text}' is an implicit "
                    "seq_cst store; use store() with a named "
                    "std::memory_order"))


# ---------------------------------------------------------------------------
# Check 2: guarded-by-coverage
# ---------------------------------------------------------------------------

_MEMBER_SKIP_LEADS = {
    "public", "private", "protected", "using", "typedef", "friend",
    "static_assert", "template", "enum", "operator", "explicit",
}


def _is_all_caps_macro(name):
    return name.isupper() and len(name) > 1


def _scan_class_bodies(toks):
    """Yields (class_name, base_names, body_start, body_end) for every
    class/struct with a body, including nested ones. base_names is the set
    of identifiers from the base clause (access specifiers and template
    argument lists stripped)."""
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("class", "struct"):
            # Skip elaborated-type uses: `class Foo;`, `class Foo*`, etc.
            j = i + 1
            # Attribute macro e.g. `class CAPABILITY("mutex") Mutex {`.
            while j < n and toks[j].kind == "id" and \
                    _is_all_caps_macro(toks[j].text):
                if j + 1 < n and toks[j + 1].text == "(":
                    j = match_bracket(toks, j + 1) + 1
                else:
                    j += 1
            if j < n and toks[j].kind == "id":
                name = toks[j].text
                j += 1
                if j < n and toks[j].kind == "id" and toks[j].text == "final":
                    j += 1
                # Base clause.
                bases = set()
                if j < n and toks[j].text == ":":
                    j += 1
                    while j < n and toks[j].text not in ("{", ";"):
                        tj = toks[j]
                        if tj.text == "<":
                            endt = match_template_args(toks, j,
                                                       min(n, j + 64))
                            if endt is not None:
                                j = endt + 1
                                continue
                        if tj.kind == "id" and tj.text not in (
                                "public", "protected", "private", "virtual"):
                            bases.add(tj.text)
                        j += 1
                if j < n and toks[j].text == "{":
                    end = match_bracket(toks, j)
                    yield (name, bases, j + 1, end)
        i += 1


def _split_member_statements(toks, start, end):
    """Splits a class body [start, end) into top-level statements, skipping
    nested class/struct bodies and function bodies. Yields token-slice
    (list of Tok) per statement."""
    stmts = []
    i = start
    cur = []
    while i < end:
        t = toks[i]
        if t.text == ";":
            if cur:
                stmts.append(cur)
            cur = []
            i += 1
            continue
        if t.text == ":" and cur and len(cur) == 1 and \
                cur[0].text in ("public", "private", "protected"):
            cur = []
            i += 1
            continue
        if t.text == "{":
            close = match_bracket(toks, i)
            prev = cur[-1] if cur else None
            is_body = prev is not None and (
                prev.text in (")", "const", "override", "noexcept", "try")
                or (prev.kind == "id" and _is_all_caps_macro(prev.text)))
            leads_class = any(x.kind == "id" and x.text in ("class", "struct",
                                                            "enum", "union")
                              for x in cur)
            if is_body and not leads_class:
                # Function definition: drop the whole statement.
                cur = []
                i = close + 1
                continue
            if leads_class:
                # Nested type: handled by the outer class scan; drop.
                cur = []
                i = close + 1
                if i < end and toks[i].text == ";":
                    i += 1
                continue
            # Brace initializer on a member: keep a placeholder and go on.
            cur.append(t)
            i = close + 1
            continue
        if t.text in ("(", "["):
            close = match_bracket(toks, i)
            cur.extend(toks[i:close + 1])
            i = close + 1
            continue
        cur.append(t)
        i += 1
    if cur:
        stmts.append(cur)
    return stmts


def _statement_is_function(stmt):
    """True if a class-scope statement declares a function (vs. a data
    member). The discriminator: a top-level '(' directly preceded by an
    identifier that is not an annotation macro, with template argument
    lists skipped."""
    i, n = 0, len(stmt)
    while i < n:
        t = stmt[i]
        if t.text == "<":
            end = match_template_args(stmt, i, n)
            if end is not None:
                i = end + 1
                continue
        if t.text == "(":
            prev = stmt[i - 1] if i > 0 else None
            if prev is not None and prev.kind == "id" and \
                    prev.text not in ("GUARDED_BY", "PT_GUARDED_BY") and \
                    not _is_all_caps_macro(prev.text):
                return True
            # Not a function opener: skip the group.
            depth = 0
            while i < n:
                if stmt[i].text == "(":
                    depth += 1
                elif stmt[i].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
        i += 1
    return False


def _member_info(stmt):
    """For a data-member statement, returns (name_token, is_exempt).
    Exempt: static/constexpr, top-level const, reference members,
    self-synchronizing and atomic types."""
    texts = [t.text for t in stmt]
    if any(x in ("static", "constexpr") for x in texts):
        return None, True
    if any(t.kind == "id" and t.text in SELF_SYNC_TYPES for t in stmt):
        return None, True
    if any(t.kind == "id" and t.text in ("atomic", "atomic_flag",
                                         "atomic_bool") for t in stmt):
        return None, True
    # Find the declared name: last identifier before an initializer ('=' or
    # '{') or annotation macro, at top level.
    name_tok = None
    i, n = 0, len(stmt)
    while i < n:
        t = stmt[i]
        if t.text == "<":
            end = match_template_args(stmt, i, n)
            if end is not None:
                i = end + 1
                continue
        if t.text in ("=", "{"):
            break
        if t.kind == "id" and t.text in ("GUARDED_BY", "PT_GUARDED_BY"):
            break
        if t.text == "(":
            depth = 0
            while i < n:
                if stmt[i].text == "(":
                    depth += 1
                elif stmt[i].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            i += 1
            continue
        if t.kind == "id" and not _is_all_caps_macro(t.text):
            name_tok = t
        i += 1
    if name_tok is None:
        return None, True
    # Top-level const: a 'const' with no '*' or '&' after it (before the
    # name). `const char* p_` is a mutable pointer; `T* const p_` and
    # `const T x_` are immutable.
    last_const = -1
    last_ptr = -1
    for k, t in enumerate(stmt):
        if t is name_tok:
            break
        if t.text == "const":
            last_const = k
        if t.text in ("*", "&", "&&"):
            last_ptr = k
    if last_const >= 0 and last_const > last_ptr:
        return name_tok, True
    if last_ptr >= 0 and stmt[last_ptr].text in ("&", "&&") and \
            last_const < 0:
        # Reference member: the binding itself is immutable.
        return name_tok, True
    return name_tok, False


def check_guarded_by_coverage(path, toks, findings):
    for cls, _bases, start, end in _scan_class_bodies(toks):
        stmts = _split_member_statements(toks, start, end)
        # Does this class own a Mutex directly?
        owns_mutex = False
        for stmt in stmts:
            texts = [t.text for t in stmt]
            if "Mutex" in texts and not _statement_is_function(stmt) and \
                    "&" not in texts and "*" not in texts:
                owns_mutex = True
                break
        if not owns_mutex:
            continue
        for stmt in stmts:
            if not stmt:
                continue
            lead = stmt[0]
            if lead.kind == "id" and lead.text in _MEMBER_SKIP_LEADS:
                continue
            if lead.kind == "id" and _is_all_caps_macro(lead.text):
                continue  # macro invocation at class scope
            if _statement_is_function(stmt):
                continue
            texts = [t.text for t in stmt]
            if "GUARDED_BY" in texts or "PT_GUARDED_BY" in texts:
                continue
            name_tok, exempt = _member_info(stmt)
            if exempt or name_tok is None:
                continue
            findings.append(Finding(
                "guarded-by-coverage", path, name_tok.line,
                f"member '{cls}::{name_tok.text}' of a Mutex-owning class "
                "has no GUARDED_BY/PT_GUARDED_BY annotation; annotate it or "
                "waive with '// lint: unguarded(<why it needs no lock>)'"))


# ---------------------------------------------------------------------------
# Check 3: raii-span-pairing
# ---------------------------------------------------------------------------

def check_raii_span_pairing(path, toks, findings, relpath):
    if relpath in TRACE_IMPL_FILES:
        return
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in RAW_TRACE_IDENTS:
            continue
        if t.text == "AttachThread":
            findings.append(Finding(
                "raii-span-pairing", path, t.line,
                "raw TraceRecorder::AttachThread call: thread binding must "
                "go through the TraceThreadBinding RAII type so the previous "
                "buffer is always restored"))
        else:
            findings.append(Finding(
                "raii-span-pairing", path, t.line,
                f"direct use of trace-internal symbol '{t.text}': span and "
                "binding state may only be touched via TraceSpan / "
                "TraceThreadBinding"))


# ---------------------------------------------------------------------------
# Check 4: no-blocking-under-lock
# ---------------------------------------------------------------------------

class _Scope:
    __slots__ = ("kind", "locked")

    def __init__(self, kind, locked):
        self.kind = kind      # 'plain' | 'loop' | 'class'
        self.locked = locked


def check_no_blocking_under_lock(path, toks, findings, relpath):
    if relpath in TRACE_IMPL_FILES or relpath == "src/util/mutex.h":
        return
    n = len(toks)
    scopes = [_Scope("plain", False)]
    # Kind to assign to the next '{' (loop bodies) and whether the next
    # *unbraced* statement is a loop body.
    pending_kind = "plain"
    unbraced_loop_depth = 0   # >0 while inside `while (...) <stmt>;`
    i = 0
    while i < n:
        t = toks[i]
        tx = t.text
        if t.kind == "id" and tx in ("while", "for", "do"):
            # Consume the condition group (a wait inside it is re-evaluated
            # per iteration, i.e. looped by construction), then decide
            # whether the body is braced.
            j = i + 1
            if j < n and toks[j].text == "(":
                j = match_bracket(toks, j) + 1
            if j < n and toks[j].text == "{":
                pending_kind = "loop"
            elif j < n and toks[j].text != ";":
                unbraced_loop_depth += 1  # `while (...) stmt;`
            i = j
            continue
        if tx == "{":
            kind = pending_kind
            pending_kind = "plain"
            scopes.append(_Scope(kind, scopes[-1].locked))
            i += 1
            continue
        if tx == "}":
            if len(scopes) > 1:
                scopes.pop()
            i += 1
            continue
        if tx == ";":
            if unbraced_loop_depth > 0:
                unbraced_loop_depth -= 1
            i += 1
            continue
        # Lock acquisition: `MutexLock l(mu);` / `std::lock_guard<...> l(m);`
        if t.kind == "id" and tx in LOCK_TYPES:
            j = i + 1
            if j < n and toks[j].text == "<":
                endt = match_template_args(toks, j, min(n, j + 32))
                if endt is not None:
                    j = endt + 1
            if j < n and toks[j].kind == "id" and j + 1 < n and \
                    toks[j + 1].text in ("(", "{"):
                scopes[-1].locked = True
                i = match_bracket(toks, j + 1) + 1
                continue
        locked = scopes[-1].locked
        in_loop = (unbraced_loop_depth > 0 or
                   any(s.kind == "loop" for s in scopes))
        # CondVar wait: `x.Wait(mu)` (>=1 arg). Needs a predicate loop.
        if t.kind == "id" and tx == "Wait" and i > 0 and \
                toks[i - 1].text in (".", "->") and i + 1 < n and \
                toks[i + 1].text == "(":
            close = match_bracket(toks, i + 1)
            has_args = close > i + 2
            if has_args:
                if locked and not in_loop:
                    findings.append(Finding(
                        "no-blocking-under-lock", path, t.line,
                        "CondVar Wait() outside a predicate loop: spurious "
                        "wakeups make a non-looped wait a protocol bug "
                        "(write `while (!pred) cv.Wait(mu);`)"))
                i = close + 1
                continue
            # Zero-arg Wait(): barrier-style rendezvous -- blocking.
            if locked:
                findings.append(Finding(
                    "no-blocking-under-lock", path, t.line,
                    "barrier-style Wait() while holding a lock: a "
                    "rendezvous under a mutex deadlocks as soon as another "
                    "participant needs the same lock"))
            i = close + 1
            continue
        if locked and t.kind == "id" and i + 1 < n and \
                toks[i + 1].text == "(":
            is_method = i > 0 and toks[i - 1].text in (".", "->")
            if is_method and tx in BLOCKING_METHODS:
                findings.append(Finding(
                    "no-blocking-under-lock", path, t.line,
                    f"blocking I/O call {tx}() while holding a lock: "
                    "Env/LevelStorage operations can touch disk; stage the "
                    "data and drop the lock first"))
            elif tx in BLOCKING_BARE_CALLS:
                findings.append(Finding(
                    "no-blocking-under-lock", path, t.line,
                    f"blocking call {tx}() while holding a lock"))
        i += 1


# ---------------------------------------------------------------------------
# Check 5: status-must-use
# ---------------------------------------------------------------------------

def collect_status_functions(file_tokens):
    """Two-pass registry: names declared with a util::Status return type in
    any scanned file, minus names that are also declared with a different
    return type somewhere (conservative de-ambiguation)."""
    status_names = set()
    other_names = set()
    for toks in file_tokens.values():
        n = len(toks)
        for i in range(n - 2):
            a, b, c = toks[i], toks[i + 1], toks[i + 2]
            if b.kind != "id" or c.text != "(":
                continue
            if a.kind != "id":
                continue
            if b.text in ("if", "while", "for", "switch", "return", "sizeof",
                          "operator"):
                continue
            if a.text in STATUS_RETURN_TYPES:
                status_names.add(b.text)
            elif a.text in ("const", "virtual", "inline", "explicit",
                            "static", "friend", "return", "new", "case",
                            "else", "do", "co_return", "throw"):
                continue
            elif a.text[0].isupper() or a.text in (
                    "void", "bool", "int", "double", "float", "auto",
                    "size_t", "uint64_t", "int64_t", "uint32_t", "int32_t",
                    "char", "unsigned", "long", "short", "string"):
                # Looks like a declaration (or a variable construction)
                # with a non-Status type.
                other_names.add(b.text)
    return status_names - other_names


def check_status_must_use(path, toks, findings, status_names):
    n = len(toks)
    i = 0
    stmt_start = True
    while i < n:
        t = toks[i]
        if t.text in (";", "{", "}"):
            stmt_start = True
            i += 1
            continue
        if stmt_start and t.text == "(" and i + 2 < n and \
                toks[i + 1].text == "void" and toks[i + 2].text == ")":
            # `(void)Call();` -- explicit, visible discard: allowed.
            i += 3
            stmt_start = False
            # Skip to end of statement.
            while i < n and toks[i].text != ";":
                i += 1
            continue
        if stmt_start and t.kind == "id":
            # Try to parse: name (::|.|-> name)* '(' ... ')' ';'
            j = i
            last_name = None
            while j < n and toks[j].kind == "id":
                last_name = toks[j]
                j += 1
                if j < n and toks[j].text in ("::", ".", "->"):
                    j += 1
                    continue
                break
            if j < n and toks[j].text == "(" and last_name is not None:
                close = match_bracket(toks, j)
                if close + 1 < n and toks[close + 1].text == ";":
                    if last_name.text in status_names:
                        findings.append(Finding(
                            "status-must-use", path, last_name.line,
                            f"result of Status-returning {last_name.text}() "
                            "is discarded; handle it, propagate it, or make "
                            "the discard explicit"))
                    i = close + 2
                    stmt_start = True
                    continue
        stmt_start = False
        i += 1


# ---------------------------------------------------------------------------
# Check 6: stream-source-blocking-io
# ---------------------------------------------------------------------------

def collect_stream_source_classes(file_tokens):
    """Names of classes deriving (transitively) from StreamSource across
    all scanned files. Cross-file so out-of-line method definitions in a
    .cc are matched against the hierarchy declared in the header."""
    bases_by_class = {}
    for toks in file_tokens.values():
        for name, bases, _, _ in _scan_class_bodies(toks):
            bases_by_class.setdefault(name, set()).update(bases)
    derived = {STREAM_SOURCE_ROOT}
    changed = True
    while changed:
        changed = False
        for name, bases in bases_by_class.items():
            if name not in derived and bases & derived:
                derived.add(name)
                changed = True
    derived.discard(STREAM_SOURCE_ROOT)
    return derived


def _method_bodies(toks, start, end):
    """Yields (method_name, body_start, body_end) for in-class method
    definitions inside a class body [start, end)."""
    i = start
    while i < end:
        t = toks[i]
        if t.kind == "id" and i + 1 < end and toks[i + 1].text == "(":
            close = match_bracket(toks, i + 1)
            j = close + 1
            # Trailing qualifiers and annotation macros.
            while j < end and toks[j].kind == "id" and \
                    (toks[j].text in ("const", "override", "final",
                                      "noexcept", "try")
                     or _is_all_caps_macro(toks[j].text)):
                if j + 1 < end and toks[j + 1].text == "(":
                    j = match_bracket(toks, j + 1) + 1
                else:
                    j += 1
            # Constructor member-initializer list.
            if j < end and toks[j].text == ":":
                while j < end and toks[j].text not in ("{", ";"):
                    if toks[j].text == "(":
                        j = match_bracket(toks, j) + 1
                    else:
                        j += 1
            if j < end and toks[j].text == "{":
                bclose = match_bracket(toks, j)
                yield (t.text, j + 1, bclose)
                i = bclose + 1
                continue
            i = close + 1
            continue
        i += 1


def check_stream_source_blocking_io(path, toks, findings, stream_classes):
    if not stream_classes:
        return
    n = len(toks)
    regions = []  # (class, method, body_start, body_end) to scan

    # In-class method definitions of StreamSource-derived classes.
    for cls, _bases, start, end in _scan_class_bodies(toks):
        if cls not in stream_classes:
            continue
        for meth, bstart, bend in _method_bodies(toks, start, end):
            if meth not in STREAM_READAHEAD_METHODS:
                regions.append((cls, meth, bstart, bend))

    # Out-of-line definitions: `Type Class::Method(...) [quals] [: init] {`.
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "::" and i >= 1 and toks[i - 1].kind == "id" and \
                toks[i - 1].text in stream_classes and i + 1 < n and \
                toks[i + 1].kind == "id" and i + 2 < n and \
                toks[i + 2].text == "(":
            cls, meth = toks[i - 1].text, toks[i + 1].text
            close = match_bracket(toks, i + 2)
            j = close + 1
            while j < n and toks[j].kind == "id" and \
                    (toks[j].text in ("const", "override", "noexcept")
                     or _is_all_caps_macro(toks[j].text)):
                j += 1
            if j < n and toks[j].text == ":":
                while j < n and toks[j].text not in ("{", ";"):
                    if toks[j].text == "(":
                        j = match_bracket(toks, j) + 1
                    else:
                        j += 1
            if j < n and toks[j].text == "{":
                bend = match_bracket(toks, j)
                if meth not in STREAM_READAHEAD_METHODS:
                    regions.append((cls, meth, j + 1, bend))
                i = bend + 1
                continue
            i = close + 1
            continue
        i += 1

    for cls, meth, bstart, bend in regions:
        for k in range(bstart, bend):
            tk = toks[k]
            if tk.kind == "id" and tk.text in STREAM_BLOCKING_IO:
                findings.append(Finding(
                    "stream-source-blocking-io", path, tk.line,
                    f"blocking I/O ({tk.text}) in StreamSource method "
                    f"'{cls}::{meth}': the consumer-facing surface feeds "
                    "the builder thread and must stay non-blocking; move "
                    "the I/O into the ReaderLoop read-ahead seam or waive "
                    "with '// lint: stream-io(<why>)'"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

# Trees the --compdb (build target) run scans. Walking a directory skips
# tools/lint/testdata -- deliberately bad code for the selftest -- unless
# the directory asked for lies inside it.
COMPDB_SCAN_DIRS = ("src", "tools", "bench")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "lint", "testdata")


def gather_files(args):
    files = []
    seen = set()

    def add(p):
        p = os.path.abspath(p)
        if p in seen:
            return
        if p.endswith((".cc", ".h", ".cpp", ".hpp", ".cxx")):
            seen.add(p)
            files.append(p)

    def walk(top):
        top = os.path.abspath(top)
        in_fixtures = os.path.commonpath([top, FIXTURE_DIR]) == FIXTURE_DIR
        for root, dirs, names in os.walk(top):
            if not in_fixtures:
                dirs[:] = [d for d in dirs
                           if os.path.join(root, d) != FIXTURE_DIR]
            for nm in names:
                add(os.path.join(root, nm))

    if args.compdb:
        try:
            with open(args.compdb, encoding="utf-8") as f:
                entries = json.load(f)
        except (OSError, ValueError) as e:
            print(f"smptree-lint: cannot read compdb {args.compdb}: {e}",
                  file=sys.stderr)
            sys.exit(2)
        roots = [os.path.join(REPO_ROOT, d) for d in COMPDB_SCAN_DIRS]
        for e in entries:
            p = os.path.normpath(os.path.join(e.get("directory", ""),
                                              e.get("file", "")))
            if any(p.startswith(r + os.sep) for r in roots) and \
                    not p.startswith(FIXTURE_DIR + os.sep):
                add(p)
        # compile_commands.json lists TUs only; headers carry the class
        # definitions the guarded-by check needs.
        for root in roots:
            walk(root)
    for path in args.paths:
        if os.path.isdir(path):
            walk(path)
        else:
            add(path)
    if not args.compdb and not args.paths:
        walk(os.path.join(REPO_ROOT, "src"))
    return sorted(files)


def relpath_for(path):
    try:
        return os.path.relpath(path, REPO_ROOT)
    except ValueError:
        return path


def main():
    ap = argparse.ArgumentParser(
        prog="smptree-lint",
        description="project-specific static checks for smptree")
    ap.add_argument("paths", nargs="*", help="files or directories to scan "
                    "(default: <repo>/src)")
    ap.add_argument("--compdb", help="compile_commands.json; scans its "
                    "src/, tools/ and bench/ translation units plus every "
                    "file under those trees except tools/lint/testdata")
    ap.add_argument("--json", dest="json_out", help="write machine-readable "
                    "findings to this path")
    ap.add_argument("--check", action="append", default=[],
                    choices=ALL_CHECKS, help="run only these checks "
                    "(repeatable; default: all)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress per-finding output")
    args = ap.parse_args()

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0

    checks = args.check or ALL_CHECKS
    files = gather_files(args)
    if not files:
        print("smptree-lint: no input files", file=sys.stderr)
        return 2

    file_tokens = {}
    file_comments = {}
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"smptree-lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        toks, comments = lex(text)
        file_tokens[path] = toks
        file_comments[path] = comments

    status_names = collect_status_functions(file_tokens) \
        if "status-must-use" in checks else set()
    stream_classes = collect_stream_source_classes(file_tokens) \
        if "stream-source-blocking-io" in checks else set()

    findings = []
    all_waivers = []
    for path in files:
        toks = file_tokens[path]
        rel = relpath_for(path)
        per_file = []
        if "atomic-explicit-order" in checks:
            check_atomic_explicit_order(rel, toks, per_file)
        if "guarded-by-coverage" in checks:
            check_guarded_by_coverage(rel, toks, per_file)
        if "raii-span-pairing" in checks:
            check_raii_span_pairing(rel, toks, per_file, rel)
        if "no-blocking-under-lock" in checks:
            check_no_blocking_under_lock(rel, toks, per_file, rel)
        if "status-must-use" in checks and "tests/" not in rel and \
                not rel.startswith("tests"):
            check_status_must_use(rel, toks, per_file, status_names)
        if "stream-source-blocking-io" in checks:
            check_stream_source_blocking_io(rel, toks, per_file,
                                            stream_classes)
        waivers = parse_waivers(file_comments[path], rel, per_file)
        apply_waivers(per_file, waivers)
        findings.extend(per_file)
        all_waivers.extend(waivers)

    unwaivered = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]
    unused_waivers = [w for w in all_waivers if not w.used]

    if not args.quiet:
        for f in sorted(unwaivered, key=lambda f: (f.path, f.line)):
            print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
        if waived:
            print(f"smptree-lint: {len(waived)} finding(s) waived",
                  file=sys.stderr)
        for w in unused_waivers:
            print(f"{w.path}:{w.line}: warning: unused lint waiver "
                  f"'{w.tag}'", file=sys.stderr)

    if args.json_out:
        doc = {
            "tool": "smptree-lint",
            "version": TOOL_VERSION,
            "checks": checks,
            "files_scanned": len(files),
            "findings": [f.to_json() for f in
                         sorted(findings, key=lambda f: (f.path, f.line))],
            "summary": {
                "total": len(findings),
                "unwaivered": len(unwaivered),
                "waived": len(waived),
                "unused_waivers": [
                    {"file": w.path, "line": w.line, "tag": w.tag}
                    for w in unused_waivers
                ],
            },
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")

    if unwaivered:
        print(f"smptree-lint: {len(unwaivered)} unwaivered finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"smptree-lint: clean ({len(files)} files, "
              f"{len(waived)} waived)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
