#!/usr/bin/env python3
"""umon-sca -- static analysis for the uMon tree.

uMon's correctness rests on rules the compiler never checks: nanosecond
timestamps shifted into 8.192 us windows, wire structs that must decode
bit-exactly under loss, deterministic replay from a seed, and a reviewed
atomics policy.  umon-sca parses every translation unit into a small
intermediate representation (functions with an ordered event stream of lock
acquisitions, calls, atomic operations, allocations, and profiler scopes,
plus the comment- and string-stripped source lines) and runs ten rules:

  SA001  lock-order inversion: build the global mutex-acquisition graph from
         lock_guard/unique_lock/scoped_lock sites (including locks taken by
         callees while a mutex is held); any cycle is a potential deadlock
         and fails with both witness stacks printed.
  SA002  blocking call under lock: no fsync/fdatasync/write/send/recv/sleep/
         condition-variable wait reachable while a mutex is held.  A
         cv.wait(guard) releases its own guard atomically and is exempt for
         that one mutex.
  SA003  allocation in the per-packet hot path: interprocedural -- no
         new/malloc/container growth reachable from a function whose
         UMON_PROF_SCOPE stage is sampled 1-in-64 or sparser in the
         profiler's stage table (kProfPeriod >= HOT_PERIOD).
  SA004  atomics policy (tools/sca/atomics_policy.txt): memory_order_relaxed
         may appear only in files matched by the relaxed allowlist, and every
         allowlist glob must still match a relaxed site; every non-relaxed
         atomic operation (explicit acquire/release/acq_rel/seq_cst, or the
         implicit seq_cst default) must be named in the [pairs] ledger, and
         every ledger pair must have both a release-side and an
         acquire-side row.
  SA005  wire structs: every `// umon-sca: wire-struct` struct needs a
         static_assert naming it within 12 lines of its closing brace, and
         its field names/offsets/sizes must match the checked-in
         tools/sca/wire_schema.lock (catches reordering and silent renames
         that keep sizeof unchanged).
  SA006  raw time-unit literal (1'000, 1'000'000, 1'000'000'000) as a unit
         factor in time-typed context outside src/common/types.hpp; use
         kMicro/kMilli/kSecond or a named constexpr on the same line.
  SA007  rand()/srand()/std::chrono::system_clock in src/netsim,
         src/sketch, or src/collector: replay must be deterministic from a
         seed (umon::Rng) and wall-clock free.
  SA008  float/double arithmetic on a Nanos/WindowId value without an
         explicit static_cast (64-bit timestamps lose precision past 2^53).
  SA009  direct send() on an upload channel outside the reliable uplink
         (src/resilience/reliable.cpp) and src/netsim/: raw sends bypass CRC
         framing, retransmits, and confidence-flag accounting.
  SA010  rdtsc/__rdtsc/clock_gettime in a hot-path directory outside the
         profiler shim (src/obs/prof.{hpp,cpp}); use UMON_PROF_SCOPE, or
         telemetry::monotonic_ns off the hot path.

SA006-SA010 are line-local: each decides from one stripped source line.

Suppressions: `// umon-sca: allow(SA002) <justification>` on the finding
line or the line above.  A suppression without a justification does not
suppress and is itself reported (SA000).

Self-test fixtures may stand in for a file elsewhere in the tree (for the
path-sensitive rules) with `// umon-sca-fixture: path=src/sketch/x.cpp` in
their first lines.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys

SCHEMA_VERSION = 2
TOOL = "umon-sca"

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SOURCE_EXTENSIONS = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".hxx"}
SKIP_DIR_NAMES = {"build", "build-tsan", ".git", "fixtures", "__pycache__"}
DEFAULT_ROOTS = ["src", "tests", "bench", "examples"]

DEFAULT_LOCKFILE = os.path.join("tools", "sca", "wire_schema.lock")
DEFAULT_LEDGER = os.path.join("tools", "sca", "atomics_policy.txt")
DEFAULT_PROF_TABLE = os.path.join("src", "obs", "prof.hpp")
HOT_PERIOD = 64

RULES = {
    "SA001": "lock-order inversion (potential deadlock cycle)",
    "SA002": "blocking call reachable while a mutex is held",
    "SA003": "allocation reachable from a per-packet hot path",
    "SA004": "atomic op outside the relaxed allowlist / happens-before "
             "ledger",
    "SA005": "wire struct without an adjacent static_assert, or drifted "
             "from wire_schema.lock",
    "SA006": "raw time-unit literal; use kMicro/kMilli/kSecond or a named "
             "constexpr",
    "SA007": "rand()/system_clock in a deterministic hot path",
    "SA008": "float/double arithmetic on Nanos/WindowId without an explicit "
             "static_cast",
    "SA009": "direct upload-channel send outside the reliable uplink",
    "SA010": "raw rdtsc/clock_gettime on a hot path outside the profiler "
             "shim",
}
META_RULE = "SA000"  # malformed suppression comments

# Functions that block the calling thread.  Matched against the last
# component of a callee name ("::fsync" and "fsync" both match "fsync").
BLOCKING_CALLS = {
    "fsync", "fdatasync", "syncfs", "sync_file_range", "msync",
    "write", "pwrite", "pwritev", "writev",
    "send", "sendto", "sendmsg", "recv", "recvfrom", "recvmsg",
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
    "wait", "wait_for", "wait_until", "join",
    "poll", "select", "epoll_wait", "accept", "connect", "flock",
}
CV_WAITS = {"wait", "wait_for", "wait_until"}

# Container growth / allocation entry points (member calls), plus the
# direct allocators matched separately (new / malloc family).
GROWTH_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
    "insert", "resize", "reserve", "assign", "append",
}
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared",
}

ATOMIC_METHODS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set",
}

GUARD_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}

NOT_A_FUNCTION = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "do", "else", "new", "delete", "case", "default", "static_assert",
    "noexcept", "decltype", "alignas", "throw", "assert", "defined",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "co_await", "co_return", "co_yield", "requires",
}

GTEST_MACROS = {"TEST", "TEST_F", "TEST_P", "TYPED_TEST", "TYPED_TEST_P"}

ALLOW_RE = re.compile(
    r"//\s*umon-sca:\s*allow\(\s*([A-Z0-9_,\s]+?)\s*\)\s*:?\s*(.*?)\s*$")
WIRE_MARKER_RE = re.compile(r"umon-sca:\s*wire-struct\b")

# Sizes/alignments of the fixed-width scalar vocabulary wire structs use.
SCALAR_LAYOUT = {
    "bool": 1, "char": 1, "signed char": 1, "unsigned char": 1,
    "std::int8_t": 1, "std::uint8_t": 1, "int8_t": 1, "uint8_t": 1,
    "std::int16_t": 2, "std::uint16_t": 2, "int16_t": 2, "uint16_t": 2,
    "std::int32_t": 4, "std::uint32_t": 4, "int32_t": 4, "uint32_t": 4,
    "int": 4, "unsigned": 4, "unsigned int": 4, "float": 4,
    "std::int64_t": 8, "std::uint64_t": 8, "int64_t": 8, "uint64_t": 8,
    "double": 8, "std::size_t": 8, "size_t": 8,
}


class Finding:
    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def as_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Event:
    """One ordered happening inside a function body."""
    __slots__ = ("kind", "line", "name", "receiver", "args", "order",
                 "mutexes", "guard")

    def __init__(self, kind, line, name, receiver="", args="", order="",
                 mutexes=None, guard=""):
        self.kind = kind          # lock | unlock | call | atomic | alloc | prof
        self.line = line
        self.name = name          # callee base / mutex expr / stage / var
        self.receiver = receiver  # receiver base identifier for member calls
        self.args = args          # raw argument text (truncated)
        self.order = order        # memory order for atomic events
        self.mutexes = mutexes or []  # resolved mutex ids (lock/unlock)
        self.guard = guard        # guard variable name (lock/unlock)


class FunctionIR:
    __slots__ = ("name", "qual", "cls", "file", "line", "events",
                 "statements", "local_vars")

    def __init__(self, name, cls, file, line):
        self.name = name          # base name (last component)
        self.cls = cls            # enclosing/owning class name ("" if free)
        self.file = file          # repo-relative path
        self.line = line
        self.qual = f"{cls}::{name}" if cls else name
        self.events = []
        self.statements = []      # (line, text) for deferred atomic sweep
        self.local_vars = {}      # var -> class name (poor man's types)


class StructField:
    __slots__ = ("name", "type", "array")

    def __init__(self, name, type_, array):
        self.name = name
        self.type = type_
        self.array = array        # 0 scalar, else element count


class StructIR:
    __slots__ = ("name", "qual", "file", "line", "end", "fields", "wire")

    def __init__(self, name, qual, file, line, wire):
        self.name = name
        self.qual = qual
        self.file = file
        self.line = line
        self.end = line           # line of the closing brace
        self.fields = []
        self.wire = wire


class FileIR:
    __slots__ = ("rel", "raw", "code", "functions", "structs",
                 "atomic_decls", "mutex_decls", "member_types", "classes",
                 "allows", "malformed")

    def __init__(self, rel, raw):
        self.rel = rel
        self.raw = raw
        self.code = []                # comment/string-stripped lines
        self.functions = []
        self.structs = []
        self.atomic_decls = set()     # names declared std::atomic here
        self.mutex_decls = {}         # mutex name -> set(owning class)
        self.member_types = {}        # (owner class, var) -> member class
        self.classes = set()
        self.allows = {}              # line -> (set(rules), justification)
        self.malformed = []           # (line, message) bad suppressions


def strip_comments_and_strings(text):
    """Blank comments, string/char literals, and preprocessor directives
    while preserving line structure exactly."""
    out = []
    i, n = 0, len(text)
    state = "code"
    line_start = True
    raw_delim = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if line_start and c in " \t":
                out.append(c)
                i += 1
                continue
            if line_start and c == "#":
                state = "pp"
                out.append(" ")
                i += 1
                line_start = False
                continue
            line_start = c == "\n"
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw_string"
                    out.append('"')
                    out.append(" " * (len(m.group(0)) - 1))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                # A quote straight after an identifier/number character is a
                # C++14 digit separator (1'000'000), not a char literal.
                prev = text[i - 1] if i > 0 else ""
                if prev.isalnum() or prev == "_":
                    out.append("'")
                    i += 1
                    continue
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
            continue
        if state == "pp":
            if c == "\n":
                # Preserve continuation lines as part of the directive.
                if out and text[i - 1] == "\\":
                    out.append("\n")
                    i += 1
                    continue
                state = "code"
                line_start = True
                out.append("\n")
                i += 1
                continue
            if c == "/" and nxt == "*":
                state = "pp_block_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "/":
                state = "pp_line_comment"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\\" else " ")
            i += 1
            continue
        if state == "pp_line_comment":
            if c == "\n":
                state = "code"
                line_start = True
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        if state == "pp_block_comment":
            if c == "*" and nxt == "/":
                state = "pp"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if state == "line_comment":
            if c == "\n":
                state = "code"
                line_start = True
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if state == "raw_string":
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1))
                out.append('"')
                i += len(raw_delim)
                state = "code"
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                out.append('"')
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                out.append("'")
                state = "code"
            else:
                out.append(" ")
            i += 1
            continue
    return "".join(out)


def parse_allows(raw_lines):
    """Collect `// umon-sca: allow(...)` suppressions, keyed by the lines
    they shield (their own line, the rest of the comment block the
    justification wraps onto, and the first code line after it)."""
    allows = {}
    malformed = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            if "umon-sca:" in line and "allow" in line:
                malformed.append(
                    (idx, "unparseable umon-sca suppression comment"))
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        justification = m.group(2).strip()
        if not justification:
            malformed.append(
                (idx, f"suppression for {', '.join(sorted(rules))} has no "
                      "justification; write `// umon-sca: allow(RULE) why`"))
            continue
        allows[idx] = (rules, justification)
        # The justification may wrap onto further comment lines; the
        # suppression shields the whole block plus the first code line.
        j = idx + 1
        while j <= len(raw_lines) and \
                raw_lines[j - 1].lstrip().startswith("//"):
            allows[j] = (rules, justification)
            j += 1
        allows[j] = (rules, justification)
    return allows, malformed

# ---------------------------------------------------------------------------
# Structural parser
# ---------------------------------------------------------------------------

CLASS_RE = re.compile(
    r"(?:template\s*<[^{}]*>\s*)?\b(?:class|struct|union)\s+"
    r"(?:\[\[[^\]]*\]\]\s*)?(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)\b(?!\s*[;*&)])")
NAMESPACE_RE = re.compile(r"\bnamespace\s*([A-Za-z_][\w:]*)?\s*$")
GUARD_RE = re.compile(
    r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\s*"
    r"(?:<[^<>;]*(?:<[^<>]*>)?[^<>;]*>)?\s+([A-Za-z_]\w*)\s*[({](.*)[)}]\s*$",
    re.S)
CALL_RE = re.compile(r"([A-Za-z_][\w:]*)\s*\(")
DECL_RE = re.compile(
    r"^(?:mutable\s+|static\s+|inline\s+|constexpr\s+|const\s+|extern\s+)*"
    r"((?:std::)?[A-Za-z_][\w:]*(?:\s*<[^;=]*>)?)\s*(?:\*|&)?\s*"
    r"([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*(?:=[^=].*|\{.*|;?\s*)$", re.S)
MEMORDER_RE = re.compile(r"\bmemory_order(?:::|_)(\w+)")
PROF_RE = re.compile(r"\bUMON_PROF_SCOPE\s*\(\s*(?:[\w:]*::)?(k\w+)")
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
FIELD_SKIP_RE = re.compile(
    r"^\s*(?:public|private|protected|using|friend|typedef|template|enum|"
    r"class|struct|union|static|operator|virtual|explicit|~)\b|^\s*$")


class _Ctx:
    __slots__ = ("kind", "name", "fn", "struct", "guards")

    def __init__(self, kind, name="", fn=None, struct=None):
        self.kind = kind      # ns | class | enum | fn | block
        self.name = name
        self.fn = fn
        self.struct = struct
        self.guards = []      # guard dicts opened directly in this scope


def _split_top_commas(text):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth -= 1
        if ch == "," and depth <= 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _balanced_args(text, open_idx):
    """Return the argument text inside the paren starting at open_idx."""
    depth = 0
    for j in range(open_idx, min(len(text), open_idx + 4000)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:j]
    return text[open_idx + 1:open_idx + 200]


def _receiver_of(text, idx):
    """Identifier base of the member-call receiver ending just before idx
    (``a.b->name(`` -> ``b``); empty string for a plain call."""
    j = idx - 1
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    if j >= 1 and text[j] == ".":
        j -= 1
    elif j >= 1 and text[j - 1:j + 1] == "->":
        j -= 2
    else:
        return ""
    while j >= 0 and text[j] in " \t\n":
        j -= 1
    if j >= 0 and text[j] == "]":
        depth = 0
        while j >= 0:
            if text[j] == "]":
                depth += 1
            elif text[j] == "[":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
    end = j + 1
    while j >= 0 and (text[j].isalnum() or text[j] == "_"):
        j -= 1
    ident = text[j + 1:end]
    return ident if re.fullmatch(r"[A-Za-z_]\w*", ident or "") else ""


def _extract_fn_name(sig):
    """Name of the function a signature declares, or None."""
    depth = 0
    first_open = -1
    for i, ch in enumerate(sig):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            first_open = i
            break
    if first_open < 0:
        return None
    prefix = sig[:first_open].rstrip()
    m = re.search(r"(operator\s*(?:\(\)|\[\]|[^\s\w(]{1,3}))\s*$", prefix)
    if m:
        name = re.sub(r"\s+", "", m.group(1))
        return name
    m = re.search(r"([~A-Za-z_][\w]*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*$", prefix)
    if not m:
        return None
    name = re.sub(r"\s+", "", m.group(1))
    base = name.split("::")[-1].lstrip("~")
    if base in NOT_A_FUNCTION or name in NOT_A_FUNCTION:
        return None
    if prefix.endswith(("=", ",", "&", "|", "+", "-", "*", "/", "<", ">",
                        "!", "(", "return")):
        return None
    if name in GTEST_MACROS:
        args = _split_top_commas(_balanced_args(sig, first_open))
        if len(args) >= 2:
            return f"{args[0]}::{args[1]}"
        return None
    return name


class Parser:
    """Structural parser: no toolchain required, fully hermetic."""

    def parse(self, rel, raw):
        fir = FileIR(rel, raw)
        raw_lines = raw.splitlines()
        allows, malformed = parse_allows(raw_lines)
        fir.allows = allows
        fir.malformed = malformed
        marker_lines = {i for i, l in enumerate(raw_lines, start=1)
                        if WIRE_MARKER_RE.search(l)}
        text = strip_comments_and_strings(raw)
        fir.code = text.split("\n")
        stack = [_Ctx("ns", "")]
        pending = []
        pending_line = 1
        line = 1
        paren_depth = 0
        pending_fresh = True  # no non-space content buffered yet
        i, n = 0, len(text)

        def cur_fn():
            for ctx in reversed(stack):
                if ctx.fn is not None:
                    return ctx.fn
            return None

        def cur_class():
            for ctx in reversed(stack):
                if ctx.kind == "class":
                    return ctx
            return None

        def cur_ns():
            parts = [c.name for c in stack if c.kind == "ns" and c.name]
            return "::".join(parts)

        def flush(stmt_line):
            stmt = "".join(pending)
            pending.clear()
            s = stmt.strip()
            if s:
                self._statement(fir, stack, s, stmt_line,
                                cur_fn(), cur_class())

        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                pending.append(" ")
                i += 1
                continue
            if c == "(":
                paren_depth += 1
                if pending_fresh:
                    pending_line = line
                    pending_fresh = False
                pending.append(c)
                i += 1
                continue
            if c == ")":
                paren_depth = max(0, paren_depth - 1)
                if pending_fresh:
                    pending_line = line
                    pending_fresh = False
                pending.append(c)
                i += 1
                continue
            if c == ";" and paren_depth == 0:
                flush(pending_line)
                pending_line = line
                pending_fresh = True
                i += 1
                continue
            if c == "{":
                sig = "".join(pending).strip()
                ctx = self._classify(sig, stack, paren_depth, cur_fn())
                if ctx.kind in ("fn", "class", "ns", "enum"):
                    # Signature, not a statement: do not emit events from it.
                    pending.clear()
                    pending_line = line
                    pending_fresh = True
                    if ctx.kind == "fn":
                        ctx.fn.file = rel
                        ctx.fn.line = line  # the line its body opens on
                        if not ctx.fn.cls:
                            encl = cur_class()
                            if encl is not None:
                                ctx.fn.cls = encl.name
                                ctx.fn.qual = (f"{encl.name}::{ctx.fn.name}"
                                               if encl.name else ctx.fn.name)
                        fir.functions.append(ctx.fn)
                    elif ctx.kind == "class" and ctx.struct is not None:
                        ctx.struct.file = rel
                        ctx.struct.line = line
                        ns = cur_ns()
                        encl = cur_class()
                        outer = (f"{encl.name}::" if encl else "")
                        ctx.struct.qual = (f"{ns}::" if ns else "") + outer \
                            + ctx.struct.name
                        ctx.struct.wire = any(
                            ln in marker_lines
                            for ln in range(max(1, line - 4), line + 1))
                        fir.structs.append(ctx.struct)
                        fir.classes.add(ctx.struct.name)
                else:
                    flush(pending_line)
                    pending_line = line
                    pending_fresh = True
                stack.append(ctx)
                i += 1
                continue
            if c == "}":
                flush(pending_line)
                pending_line = line
                pending_fresh = True
                if len(stack) > 1:
                    closing = stack.pop()
                    if closing.struct is not None:
                        closing.struct.end = line
                    fn = cur_fn() if closing.fn is None else closing.fn
                    if fn is not None:
                        for g in closing.guards:
                            if g["locked"]:
                                fn.events.append(Event(
                                    "unlock", line, g["var"],
                                    guard=g["var"],
                                    mutexes=list(g["mutex_exprs"])))
                i += 1
                continue
            if pending_fresh and not c.isspace():
                pending_line = line
                pending_fresh = False
            pending.append(c)
            i += 1
        flush(pending_line)
        return fir

    def _classify(self, sig, stack, paren_depth, enclosing_fn):
        if paren_depth > 0 or not sig:
            return _Ctx("block")
        top = stack[-1].kind
        m = NAMESPACE_RE.search(sig)
        if m and "(" not in sig:
            return _Ctx("ns", m.group(1) or "")
        if re.search(r"\benum\b", sig) and "(" not in sig:
            return _Ctx("enum")
        if sig.endswith(("=", ",", "return", "else", "do", "try", "->",
                         "&&", "||", "(")):
            return _Ctx("block")
        cm = CLASS_RE.search(sig)
        if cm and "(" not in sig and not sig.endswith("="):
            name = cm.group(1)
            s = StructIR(name, name, "", 0, False)
            return _Ctx("class", name, struct=s)
        if enclosing_fn is not None:
            return _Ctx("block")
        if top in ("ns", "class"):
            name = _extract_fn_name(sig)
            if name:
                base = name.split("::")[-1].lstrip("~")
                cls = ""
                if "::" in name:
                    cls = name.split("::")[-2]
                fn = FunctionIR(base, cls, "", 0)
                return _Ctx("fn", base, fn=fn)
        return _Ctx("block")

    # -- statement-level event extraction ---------------------------------

    def _statement(self, fir, stack, s, line, fn, cls_ctx):
        # Access specifiers are not statement boundaries; shed them so the
        # following member declaration parses ("private: std::mutex m_;").
        s = re.sub(r"^(?:public|private|protected)\s*:\s*", "", s).strip()
        if not s:
            return
        if fn is None:
            self._scope_decl(fir, s, line, cls_ctx)
            return
        fn.statements.append((line, s))
        gm = GUARD_RE.search(s)
        if gm:
            kind, var, argtext = gm.group(1), gm.group(2), gm.group(3)
            args = [a for a in _split_top_commas(argtext)
                    if not re.search(r"defer_lock|adopt_lock|try_to_lock", a)]
            deferred = "defer_lock" in argtext
            mutex_exprs = [a for a in args if a]
            g = {"var": var, "mutex_exprs": mutex_exprs,
                 "locked": not deferred, "kind": kind}
            stack[-1].guards.append(g)
            if g["locked"] and mutex_exprs:
                fn.events.append(Event("lock", line, argtext, guard=var,
                                       mutexes=list(mutex_exprs)))
            return
        # guard.unlock() / guard.lock() / raw_mutex.lock()
        for m in re.finditer(r"([A-Za-z_]\w*)\s*\.\s*(unlock|lock)\s*\(", s):
            var, op = m.group(1), m.group(2)
            g = self._find_guard(stack, var)
            if g is not None:
                if op == "unlock" and g["locked"]:
                    g["locked"] = False
                    fn.events.append(Event("unlock", line, var, guard=var,
                                           mutexes=list(g["mutex_exprs"])))
                elif op == "lock" and not g["locked"]:
                    g["locked"] = True
                    fn.events.append(Event("lock", line, var, guard=var,
                                           mutexes=list(g["mutex_exprs"])))
            else:
                # Direct mutex lock/unlock: treat the object itself as the
                # mutex expression; scope tracked like a guard in this block.
                if op == "lock":
                    g = {"var": var, "mutex_exprs": [var], "locked": True,
                         "kind": "manual"}
                    stack[-1].guards.append(g)
                    fn.events.append(Event("lock", line, var, guard=var,
                                           mutexes=[var]))
                else:
                    for ctx in reversed(stack):
                        for g in ctx.guards:
                            if g["var"] == var and g["locked"]:
                                g["locked"] = False
                                fn.events.append(Event(
                                    "unlock", line, var, guard=var,
                                    mutexes=list(g["mutex_exprs"])))
                                break
        pm = PROF_RE.search(s)
        if pm:
            fn.events.append(Event("prof", line, pm.group(1)))
        if NEW_RE.search(s) and "= default" not in s:
            fn.events.append(Event("alloc", line, "new"))
        for m in CALL_RE.finditer(s):
            full = m.group(1)
            base = full.split("::")[-1]
            if base in NOT_A_FUNCTION or base in GUARD_TYPES:
                continue
            if re.match(r"^\s*(?:if|for|while|switch|catch)\b", full):
                continue
            recv = _receiver_of(s, m.start(1))
            args = _balanced_args(s, m.end(1) + s[m.end(1):].find("("))
            open_idx = s.find("(", m.end(1) - 1)
            if open_idx >= 0:
                args = _balanced_args(s, open_idx)
            ev = Event("call", line, full, receiver=recv,
                       args=args[:400])
            fn.events.append(ev)
            if base in GROWTH_METHODS and recv:
                fn.events.append(Event("alloc", line, base, receiver=recv))
            elif base in ALLOC_CALLS:
                fn.events.append(Event("alloc", line, base, receiver=recv))
            if base in ATOMIC_METHODS and recv:
                orders = MEMORDER_RE.findall(args)
                order = "seq_cst"
                if orders:
                    non_relaxed = [o for o in orders if o != "relaxed"]
                    order = non_relaxed[0] if non_relaxed else "relaxed"
                fn.events.append(Event("atomic", line, base, receiver=recv,
                                       args=args[:200], order=order))
        # Local declarations (poor man's type inference for receivers).
        dm = DECL_RE.match(s)
        if dm and "(" not in dm.group(1):
            type_text, var = dm.group(1), dm.group(2)
            cls = _class_of_type(type_text)
            if cls:
                fn.local_vars[var] = cls
            if re.match(r"(?:std::)?(?:recursive_|shared_|timed_)*mutex\b",
                        type_text.replace("std::", "", 1)):
                fir.mutex_decls.setdefault(var, set()).add(fn.qual)
            if type_text.startswith("std::atomic"):
                fir.atomic_decls.add(var)

    @staticmethod
    def _find_guard(stack, var):
        for ctx in reversed(stack):
            for g in ctx.guards:
                if g["var"] == var and g["kind"] != "manual":
                    return g
        return None

    def _scope_decl(self, fir, s, line, cls_ctx):
        dm = DECL_RE.match(s)
        if not dm:
            return
        type_text, var, array = dm.group(1), dm.group(2), dm.group(3)
        owner = cls_ctx.name if cls_ctx is not None else ""
        bare = type_text.replace("mutable ", "").strip()
        if re.fullmatch(r"(?:std::)?(?:recursive_|shared_|timed_)*mutex",
                        bare):
            fir.mutex_decls.setdefault(var, set()).add(owner)
        if bare.startswith("std::atomic"):
            fir.atomic_decls.add(var)
        cls = _class_of_type(type_text)
        if cls:
            fir.member_types[(owner, var)] = cls
        if cls_ctx is not None and cls_ctx.struct is not None:
            if not FIELD_SKIP_RE.match(s) and "(" not in s.split("=")[0]:
                count = 0
                if array:
                    inner = array.strip("[]").strip()
                    count = int(inner) if inner.isdigit() else -1
                cls_ctx.struct.fields.append(
                    StructField(var, re.sub(r"\s+", " ", type_text).strip(),
                                count))


def _class_of_type(type_text):
    """Last user-type component of a declared type, unwrapping smart
    pointers and containers one level (``std::unique_ptr<SegmentWriter>``
    -> ``SegmentWriter``)."""
    t = type_text.strip()
    m = re.match(r"(?:std::)?(?:unique_ptr|shared_ptr|optional|vector|deque|"
                 r"array)\s*<\s*(.*?)\s*[,>]", t)
    if m:
        t = m.group(1)
    t = t.split("<")[0].strip().rstrip("*& ")
    if not t or t.startswith("std::"):
        return ""
    last = t.split("::")[-1]
    if re.fullmatch(r"[A-Z]\w*", last):
        return last
    return ""

# ---------------------------------------------------------------------------
# Line-local rules (SA006-SA010) over the stripped source lines
# ---------------------------------------------------------------------------

# SA006: the one file allowed to define the raw unit constants, the unit
# values, and what makes a line "time-typed context" (deliberately
# conservative: plain loop bounds and byte counts do not match).
TIME_CONSTANT_HOME = "src/common/types.hpp"
TIME_UNIT_VALUES = {1000, 1000000, 1000000000}
TIME_CONTEXT_RE = re.compile(
    r"\b(Nanos|WindowId|nanos\w*|ns|usec\w*|micro\w*|milli\w*|"
    r"timestamp\w*|deadline\w*|timeout\w*|latency\w*|delay\w*|"
    r"jitter\w*|duration\w*|window_of|window_start|window_length|"
    r"deliver_at|sent_at)\b|\w+_ns\b",
    re.IGNORECASE)
NAMED_CONSTEXPR_RE = re.compile(r"\bconstexpr\b[^=;]*\bk[A-Z]\w*\s*=")
INT_LITERAL_RE = re.compile(r"(?<![\w.])(\d+)(?:[uUlL]{0,3})(?![\w.'])")

DETERMINISTIC_DIRS = ("src/netsim", "src/sketch", "src/collector")
NONDETERMINISTIC_RE = re.compile(
    r"(?<![\w:])(?:std::)?s?rand\s*\(|\bsystem_clock\b")

FLOAT_LITERAL_RE = re.compile(
    r"(?<![\w.])(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+[eE][+-]?\d+)[fF]?(?![\w.])")
TIME_TOKEN_RE = re.compile(r"\b(Nanos|WindowId)\b|\b\w+_ns\b")
EXPLICIT_CAST_RE = re.compile(
    r"static_cast<\s*(?:double|float|Nanos|WindowId|long double|"
    r"std::u?int\d+_t|u?int\d+_t)\s*>")

CHANNEL_SEND_EXEMPT = ("src/resilience/reliable.cpp", "src/netsim/")
CHANNEL_SEND_RE = re.compile(r"\b\w*[Cc]hannel\w*\s*(?:\.|->)\s*send\s*\(")

HOT_CLOCK_DIRS = ("src/sketch", "src/wavelet", "src/collector", "src/store",
                  "src/resilience", "src/analyzer", "src/netsim", "src/obs")
PROF_SHIM = ("src/obs/prof.hpp", "src/obs/prof.cpp")
RAW_CLOCK_RE = re.compile(
    r"\b(__builtin_ia32_rdtscp?|__rdtscp?|rdtscp?|clock_gettime)\s*\(")


def _unit_factor(norm, m):
    """True when the literal acts as a unit factor: operand of * / %, or the
    value of an assignment/return.  Loop bounds, comparisons, and plain call
    arguments are not unit positions."""
    before = norm[:m.start()].rstrip()
    after = norm[m.end():].lstrip()
    if before.endswith(("*", "/", "%")) or after[:1] in ("*", "/", "%"):
        return True
    if before.endswith("=") and not before.endswith(("==", "<=", ">=", "!=")):
        return True
    return bool(re.search(r"\breturn$", before))


def line_findings(fir, rules):
    """Yield (rule, line, message) for SA006-SA010 over fir.code."""
    rel = fir.rel.replace(os.sep, "/")
    active = set(rules)
    if rel.endswith(TIME_CONSTANT_HOME):
        active.discard("SA006")
    if not any(d in rel for d in DETERMINISTIC_DIRS):
        active.discard("SA007")
    if any(p in rel for p in CHANNEL_SEND_EXEMPT):
        active.discard("SA009")
    if not any(d in rel for d in HOT_CLOCK_DIRS) or rel.endswith(PROF_SHIM):
        active.discard("SA010")
    for lineno, code in enumerate(fir.code, start=1):
        if not code or code.isspace():
            continue
        norm = re.sub(r"(?<=\d)'(?=\d)", "", code) if "'" in code else code
        if "SA006" in active and TIME_CONTEXT_RE.search(norm) and \
                not NAMED_CONSTEXPR_RE.search(norm):
            for m in INT_LITERAL_RE.finditer(norm):
                if int(m.group(1)) in TIME_UNIT_VALUES and \
                        _unit_factor(norm, m):
                    yield ("SA006", lineno,
                           f"raw time-unit literal {m.group(1)} in "
                           "time-typed context; use kMicro/kMilli/kSecond "
                           "or a named constexpr")
                    break
        m = "SA007" in active and NONDETERMINISTIC_RE.search(code)
        if m:
            yield ("SA007", lineno,
                   f"non-deterministic primitive `{m.group(0).strip()}` in "
                   "a deterministic hot path; use the seeded umon::Rng / "
                   "simulation time")
        if "SA008" in active and TIME_TOKEN_RE.search(norm) and \
                FLOAT_LITERAL_RE.search(norm):
            # Arithmetic must remain once the float literals are gone (the
            # '-' in 1e-9 is not arithmetic); ++/-- do not count.
            residue = FLOAT_LITERAL_RE.sub("", norm)
            residue = residue.replace("++", "").replace("--", "")
            if re.search(r"[+\-*/]", residue) and \
                    not EXPLICIT_CAST_RE.search(norm):
                yield ("SA008", lineno,
                       "float/double arithmetic mixed with Nanos/WindowId "
                       "without an explicit static_cast (precision loss "
                       "past 2^53 ns)")
        m = "SA009" in active and CHANNEL_SEND_RE.search(code)
        if m:
            yield ("SA009", lineno,
                   f"direct upload-channel send `{m.group(0).strip()}` "
                   "bypasses the reliable uplink (CRC framing, retransmits, "
                   "confidence flags); route through "
                   "resilience::ReliableLink")
        m = "SA010" in active and RAW_CLOCK_RE.search(code)
        if m:
            yield ("SA010", lineno,
                   f"raw clock `{m.group(1)}` on a hot path outside the "
                   "profiler shim; use UMON_PROF_SCOPE or "
                   "telemetry::monotonic_ns off the hot path")

# ---------------------------------------------------------------------------
# Cross-TU analysis
# ---------------------------------------------------------------------------

class LedgerRow:
    __slots__ = ("pair", "glob", "var", "role", "line", "used")

    def __init__(self, pair, glob, var, role, line):
        self.pair = pair
        self.glob = glob
        self.var = var
        self.role = role
        self.line = line
        self.used = False


def load_ledger(path):
    """Parse atomics_policy.txt.

    Lines before the first section header are the relaxed allowlist, one
    fnmatch glob per line.  The [pairs] section holds the happens-before
    ledger, one row per line:
    ``pair <pair-name> <file-glob> <var> <release|acquire|both>``.
    Returns (globs as [(glob, line)], rows, errors)."""
    globs, rows, errors = [], [], []
    if not os.path.exists(path):
        return globs, rows, errors
    section = ""
    with open(path, encoding="utf-8") as fh:
        for idx, line in enumerate(fh, start=1):
            s = line.split("#", 1)[0].strip()
            if not s:
                continue
            m = re.fullmatch(r"\[(\w+)\]", s)
            if m:
                section = m.group(1)
                continue
            if not section:
                globs.append((s, idx))
                continue
            if section != "pairs":
                continue
            parts = s.split()
            if len(parts) != 5 or parts[0] != "pair" or \
                    parts[4] not in ("release", "acquire", "both"):
                errors.append((idx, f"malformed ledger row: {s!r} (want "
                                    "`pair <name> <glob> <var> <role>`)"))
                continue
            rows.append(LedgerRow(parts[1], parts[2], parts[3], parts[4],
                                  idx))
    return globs, rows, errors


def load_prof_table(path):
    """Stage -> sampling period, parsed from the ProfStage enum and the
    kProfPeriod initializer in src/obs/prof.hpp (or a fixture stub)."""
    if not os.path.exists(path):
        return {}
    text = strip_comments_and_strings(open(path, encoding="utf-8").read())
    em = re.search(r"enum\s+class\s+ProfStage[^{]*\{(.*?)\}", text, re.S)
    if not em:
        return {}
    names = []
    for tok in em.group(1).split(","):
        name = tok.split("=")[0].strip()
        if re.fullmatch(r"k\w+", name) and name != "kCount":
            names.append(name)
    pm = re.search(r"kProfPeriod\s*\[[^\]]*\]\s*=\s*\{(.*?)\}", text, re.S)
    if not pm:
        return {}
    periods = [int(t) for t in re.findall(r"\d+", pm.group(1))]
    return dict(zip(names, periods))


class Analyzer:
    def __init__(self, files, relaxed_globs, ledger_rows, prof_table):
        self.files = files
        self.relaxed_globs = relaxed_globs
        self.ledger_rows = ledger_rows
        self.prof_table = prof_table
        self.findings = []
        self.suppressed = 0
        self._seen = set()
        self.allows = {f.rel: f.allows for f in files}

        self.methods = {}        # base -> [FunctionIR] (class methods)
        self.free = {}           # base -> [FunctionIR]
        self.class_methods = {}  # (cls, base) -> [FunctionIR]
        self.var_class = {}      # member var -> class (conflict-dropped)
        self.member_of = {}      # (owner class, var) -> class
        self.mutex_owner = {}    # mutex name -> set(owner)
        self.atomic_global = set()
        self.atomic_by_file = {}
        var_conflicts = set()
        for f in files:
            self.atomic_by_file[f.rel] = set(f.atomic_decls)
            self.atomic_global |= f.atomic_decls
            for name, owners in f.mutex_decls.items():
                self.mutex_owner.setdefault(name, set()).update(owners)
            for (owner, var), cls in f.member_types.items():
                self.member_of[(owner, var)] = cls
                if var in self.var_class and self.var_class[var] != cls:
                    var_conflicts.add(var)
                self.var_class[var] = cls
            for fn in f.functions:
                if fn.cls:
                    self.methods.setdefault(fn.name, []).append(fn)
                    self.class_methods.setdefault(
                        (fn.cls, fn.name), []).append(fn)
                else:
                    self.free.setdefault(fn.name, []).append(fn)
        for var in var_conflicts:
            self.var_class.pop(var, None)
        self.all_fns = [fn for f in files for fn in f.functions]
        self._finalize_atomics()
        self._resolved = {}
        self.may_block = self._fixpoint_block()
        self.may_alloc = self._fixpoint_alloc()
        self.locks_acq = self._fixpoint_locks()

    # -- shared plumbing ---------------------------------------------------

    def emit(self, rule, path, line, message):
        key = (rule, path, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        allow = self.allows.get(path, {}).get(line)
        if allow and (rule in allow[0]):
            self.suppressed += 1
            return
        self.findings.append(Finding(rule, path, line, message))

    def mutex_id(self, expr, fn):
        e = expr.strip().lstrip("&*")
        e = e.replace("this->", "").replace("this .", "")
        e = re.sub(r"\[[^\]]*\]", "", e)
        parts = [p for p in re.split(r"\.|->", e) if p.strip()]
        base = re.sub(r"[^\w]", "", parts[-1]) if parts else ""
        if not base:
            return f"?::{expr.strip()[:40]}"
        if len(parts) > 1:
            owner_var = re.sub(r"[^\w]", "", parts[-2].split("(")[0])
            cls = self.var_class.get(owner_var) or fn.local_vars.get(owner_var)
            if cls:
                return f"{cls}::{base}"
        owners = self.mutex_owner.get(base, set())
        if fn.cls and fn.cls in owners:
            return f"{fn.cls}::{base}"
        if fn.qual in owners:
            return f"{fn.qual}::{base}"
        if len(owners) == 1:
            return f"{next(iter(owners))}::{base}"
        return f"?::{base}"

    def resolve_call(self, ev, fn):
        cached = self._resolved.get(id(ev))
        if cached is not None:
            return cached
        full = ev.name
        base = full.split("::")[-1]
        out = []
        if "::" in full:
            cls = full.split("::")[-2]
            out = self.class_methods.get((cls, base), []) or \
                self.free.get(base, [])
        elif ev.receiver == "this":
            out = self.class_methods.get((fn.cls, base), [])
        elif not ev.receiver:
            if fn.cls:
                out = self.class_methods.get((fn.cls, base), [])
            if not out:
                out = self.free.get(base, [])
        else:
            cls = fn.local_vars.get(ev.receiver) or \
                self.member_of.get((fn.cls, ev.receiver)) or \
                self.var_class.get(ev.receiver)
            if cls:
                out = self.class_methods.get((cls, base), [])
            else:
                out = self.methods.get(base, [])
        self._resolved[id(ev)] = out
        return out

    def _finalize_atomics(self):
        """Keep member-call atomic events only for receivers that are
        declared std::atomic somewhere; add operator-form ops (=, ++, +=)
        on atomics declared in the same file (the implicit seq_cst forms)."""
        for f in self.files:
            local_atomics = self.atomic_by_file.get(f.rel, set())
            for fn in f.functions:
                fn.events = [
                    ev for ev in fn.events
                    if ev.kind != "atomic" or ev.receiver in self.atomic_global
                ]
                if not local_atomics:
                    continue
                pat = re.compile(
                    r"(?:(?<![\w.>])(" + "|".join(map(re.escape,
                                                      local_atomics)) +
                    r")(?:\[[^\]]*\])?\s*(\+\+|--|[-+|&^]?=(?!=))"
                    r"|(\+\+|--)\s*(" + "|".join(map(re.escape,
                                                     local_atomics)) + r")\b)")
                for line, stmt in fn.statements:
                    if "std::atomic" in stmt:
                        continue  # the declaration itself
                    for m in pat.finditer(stmt):
                        var = m.group(1) or m.group(4)
                        op = m.group(2) or m.group(3)
                        fn.events.append(Event(
                            "atomic", line, op, receiver=var,
                            order="seq_cst"))

    # -- interprocedural fixpoints ----------------------------------------

    def _fixpoint(self, seed):
        """Generic may-reach fixpoint.  `seed(fn)` returns a (event, detail)
        tuple for direct occurrences or None.  Returns
        {id(fn): (fn, event, callee_or_None)}."""
        reach = {}
        for fn in self.all_fns:
            hit = seed(fn)
            if hit is not None:
                reach[id(fn)] = (fn, hit, None)
        changed = True
        while changed:
            changed = False
            for fn in self.all_fns:
                if id(fn) in reach:
                    continue
                for ev in fn.events:
                    if ev.kind != "call":
                        continue
                    for callee in self.resolve_call(ev, fn):
                        if id(callee) in reach and callee is not fn:
                            reach[id(fn)] = (fn, ev, callee)
                            changed = True
                            break
                    if id(fn) in reach:
                        break
        return reach

    def _fixpoint_block(self):
        def seed(fn):
            for ev in fn.events:
                if ev.kind == "call" and \
                        ev.name.split("::")[-1] in BLOCKING_CALLS:
                    return ev
            return None
        return self._fixpoint(seed)

    def _fixpoint_alloc(self):
        def seed(fn):
            for ev in fn.events:
                if ev.kind == "alloc":
                    return ev
            return None
        return self._fixpoint(seed)

    def _fixpoint_locks(self):
        """{id(fn): {mutex_id: (fn, event)}} -- locks a call to fn may take,
        directly or transitively."""
        acq = {id(fn): {} for fn in self.all_fns}
        for fn in self.all_fns:
            for ev in fn.events:
                if ev.kind == "lock":
                    for expr in ev.mutexes:
                        acq[id(fn)].setdefault(self.mutex_id(expr, fn),
                                               (fn, ev))
        changed = True
        while changed:
            changed = False
            for fn in self.all_fns:
                mine = acq[id(fn)]
                for ev in fn.events:
                    if ev.kind != "call":
                        continue
                    for callee in self.resolve_call(ev, fn):
                        for mid, site in acq[id(callee)].items():
                            if mid not in mine:
                                mine[mid] = site
                                changed = True
        return acq

    def _chain(self, fn, reach, primitive_set_name):
        """Human-readable call chain from fn down to the seeding event."""
        hops = []
        cur = fn
        depth = 0
        while depth < 8:
            entry = reach.get(id(cur))
            if entry is None:
                break
            _, ev, callee = entry
            if callee is None:
                hops.append(f"{cur.qual} ({cur.file}:{ev.line} `{ev.name}`)")
                break
            hops.append(f"{cur.qual} ({cur.file}:{ev.line})")
            cur = callee
            depth += 1
        return " -> ".join(hops)

    # -- SA001 -------------------------------------------------------------

    def run_sa001(self):
        edges = {}  # (held, acquired) -> witness string
        for fn in self.all_fns:
            held = []  # (mid, line, guard)
            for ev in fn.events:
                if ev.kind == "lock":
                    mids = [self.mutex_id(e, fn) for e in ev.mutexes]
                    for mid in mids:
                        for (h, hline, _) in held:
                            if h.startswith("?::") or mid.startswith("?::"):
                                continue
                            if h == mid:
                                self.emit(
                                    "SA001", fn.file, ev.line,
                                    f"{fn.qual} acquires {mid} at line "
                                    f"{ev.line} while already holding it "
                                    f"(locked at line {hline}): "
                                    "self-deadlock on a non-recursive mutex")
                                continue
                            edges.setdefault((h, mid), (
                                f"{fn.qual} holds {h} ({fn.file}:{hline}) "
                                f"then locks {mid} ({fn.file}:{ev.line})",
                                fn.file, ev.line))
                    # scoped_lock acquires its arguments deadlock-free, so
                    # no intra-set edges; they all join the held set.
                    for mid in mids:
                        held.append((mid, ev.line, ev.guard))
                elif ev.kind == "unlock":
                    mids = {self.mutex_id(e, fn) for e in ev.mutexes}
                    held = [h for h in held
                            if not (h[0] in mids and h[2] == ev.guard)]
                elif ev.kind == "call" and held:
                    for callee in self.resolve_call(ev, fn):
                        for mid, (sfn, sev) in \
                                self.locks_acq[id(callee)].items():
                            if mid.startswith("?::"):
                                continue
                            for (h, hline, _) in held:
                                if h.startswith("?::") or h == mid:
                                    continue
                                edges.setdefault((h, mid), (
                                    f"{fn.qual} holds {h} ({fn.file}:"
                                    f"{hline}) and calls {ev.name} ("
                                    f"{fn.file}:{ev.line}) -> {sfn.qual} "
                                    f"locks {mid} ({sfn.file}:{sev.line})",
                                    fn.file, ev.line))
        # Cycle detection over the acquisition graph.
        adj = {}
        for (a, b) in edges:
            adj.setdefault(a, set()).add(b)
        reported = set()
        for start in sorted(adj):
            path, on_path = [], {}
            stack = [(start, iter(sorted(adj.get(start, ()))))]
            on_path[start] = 0
            path.append(start)
            visited = set()
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt in on_path:
                        cycle = path[on_path[nxt]:] + [nxt]
                        key = frozenset(cycle)
                        if key not in reported:
                            reported.add(key)
                            self._report_cycle(cycle, edges)
                        continue
                    if nxt in visited:
                        continue
                    visited.add(nxt)
                    on_path[nxt] = len(path)
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    on_path.pop(path.pop(), None)

    def _report_cycle(self, cycle, edges):
        legs = []
        first_site = None
        for a, b in zip(cycle, cycle[1:]):
            witness, file, line = edges[(a, b)]
            legs.append(witness)
            if first_site is None:
                first_site = (file, line)
        order = " -> ".join(cycle)
        self.emit("SA001", first_site[0], first_site[1],
                  f"lock-order inversion: {order}. Witnesses: " +
                  " | ".join(legs))

    # -- SA002 -------------------------------------------------------------

    def run_sa002(self):
        for fn in self.all_fns:
            held = []  # (mid, line, guardvar)
            for ev in fn.events:
                if ev.kind == "lock":
                    for expr in ev.mutexes:
                        held.append((self.mutex_id(expr, fn), ev.line,
                                     ev.guard))
                elif ev.kind == "unlock":
                    mids = {self.mutex_id(e, fn) for e in ev.mutexes}
                    held = [h for h in held
                            if not (h[0] in mids and h[2] == ev.guard)]
                elif ev.kind == "call" and held:
                    base = ev.name.split("::")[-1]
                    eff = held
                    if base in CV_WAITS:
                        first_arg = re.sub(
                            r"[^\w]", "",
                            (ev.args.split(",")[0] if ev.args else ""))
                        eff = [h for h in held if h[2] != first_arg]
                    if not eff:
                        continue
                    held_desc = ", ".join(sorted({h[0] for h in eff}))
                    if base in BLOCKING_CALLS:
                        self.emit(
                            "SA002", fn.file, ev.line,
                            f"{fn.qual} makes blocking call `{base}` while "
                            f"holding {held_desc}")
                        continue
                    for callee in self.resolve_call(ev, fn):
                        entry = self.may_block.get(id(callee))
                        if entry is None:
                            continue
                        chain = self._chain(callee, self.may_block, "block")
                        self.emit(
                            "SA002", fn.file, ev.line,
                            f"{fn.qual} holds {held_desc} and calls "
                            f"{ev.name}, which can block: {chain}")
                        break

    # -- SA003 -------------------------------------------------------------

    def hot_roots(self):
        roots = []
        for fn in self.all_fns:
            for ev in fn.events:
                if ev.kind == "prof":
                    period = self.prof_table.get(ev.name, 0)
                    if period >= HOT_PERIOD:
                        roots.append((fn, ev.name))
                        break
        return roots

    def run_sa003(self):
        if not self.prof_table:
            return
        reported_sites = set()
        for root, stage in self.hot_roots():
            # BFS over the call graph collecting allocation events.
            parent = {id(root): None}
            queue = [root]
            seen = {id(root)}
            while queue:
                fn = queue.pop(0)
                for ev in fn.events:
                    if ev.kind == "alloc":
                        site = (fn.file, ev.line)
                        if site in reported_sites:
                            continue
                        reported_sites.add(site)
                        chain = []
                        cur = id(fn)
                        while cur is not None and parent.get(cur) is not None:
                            pfn, pev = parent[cur]
                            chain.append(f"{pfn.qual} ({pfn.file}:"
                                         f"{pev.line})")
                            cur = id(pfn)
                        chain.reverse()
                        via = (" via " + " -> ".join(chain)) if chain else ""
                        what = ev.name if not ev.receiver else \
                            f"{ev.receiver}.{ev.name}"
                        self.emit(
                            "SA003", fn.file, ev.line,
                            f"allocation `{what}` in {fn.qual} is reachable "
                            f"from per-packet hot stage {stage} (root "
                            f"{root.qual}, period >= {HOT_PERIOD})"
                            f"{via}")
                    elif ev.kind == "call":
                        for callee in self.resolve_call(ev, fn):
                            if id(callee) in seen:
                                continue
                            if self.may_alloc.get(id(callee)) is None:
                                continue  # prune alloc-free subtrees
                            seen.add(id(callee))
                            parent[id(callee)] = (fn, ev)
                            queue.append(callee)

    # -- SA004 -------------------------------------------------------------

    @staticmethod
    def _op_side(opname):
        if opname == "load":
            return "acquire"
        if opname == "store" or opname.endswith("="):
            return "release"
        return "both"

    def run_sa004(self, ledger_path):
        scanned_rels = [f.rel for f in self.files]
        relaxed_files = set()
        for f in self.files:
            lines = [i for i, code in enumerate(f.code, start=1)
                     if "memory_order_relaxed" in code]
            if not lines:
                continue
            relaxed_files.add(f.rel)
            if any(fnmatch.fnmatch(f.rel, g) for g, _ in self.relaxed_globs):
                continue
            for line in lines:
                self.emit(
                    "SA004", f.rel, line,
                    "memory_order_relaxed outside the relaxed allowlist in "
                    f"{ledger_path}; register the file after review or use "
                    "release/acquire")
        for glob, line in self.relaxed_globs:
            matched = [rel for rel in scanned_rels
                       if fnmatch.fnmatch(rel, glob)]
            if matched and not relaxed_files.intersection(matched):
                self.emit(
                    "SA004", ledger_path, line,
                    f"stale relaxed-allowlist glob '{glob}' matches "
                    f"{len(matched)} scanned file(s) but no "
                    "memory_order_relaxed site")
        for fn in self.all_fns:
            for ev in fn.events:
                if ev.kind != "atomic" or ev.order == "relaxed":
                    continue
                side = self._op_side(ev.name)
                rows = [r for r in self.ledger_rows
                        if r.var == ev.receiver and
                        fnmatch.fnmatch(fn.file, r.glob)]
                if not rows:
                    self.emit(
                        "SA004", fn.file, ev.line,
                        f"non-relaxed atomic op `{ev.receiver} {ev.name}` "
                        f"({ev.order}) in {fn.qual} has no [pairs] ledger "
                        f"entry in {ledger_path}; name its release/acquire "
                        "partner (or make it relaxed in an allowlisted file)")
                    continue
                side_ok = any(r.role in (side, "both") or side == "both"
                              for r in rows)
                for r in rows:
                    r.used = True
                if not side_ok:
                    roles = ",".join(sorted({r.role for r in rows}))
                    self.emit(
                        "SA004", fn.file, ev.line,
                        f"atomic op `{ev.receiver} {ev.name}` is "
                        f"{side}-side but ledger pair "
                        f"'{rows[0].pair}' only lists role(s) {roles}")
        # Pair completeness + stale rows.
        pairs = {}
        for r in self.ledger_rows:
            pairs.setdefault(r.pair, []).append(r)
        for pair, rows in sorted(pairs.items()):
            relevant = [r for r in rows
                        if any(fnmatch.fnmatch(rel, r.glob)
                               for rel in scanned_rels)]
            if not relevant:
                continue
            roles = {r.role for r in relevant}
            if "both" not in roles and not (
                    "release" in roles and "acquire" in roles):
                self.emit(
                    "SA004", ledger_path, relevant[0].line,
                    f"ledger pair '{pair}' is one-sided (roles: "
                    f"{', '.join(sorted(roles))}); a release needs its "
                    "acquire partner and vice versa")
            for r in relevant:
                if not r.used:
                    self.emit(
                        "SA004", ledger_path, r.line,
                        f"stale ledger row: pair '{pair}' var "
                        f"'{r.var}' glob '{r.glob}' matched no "
                        "non-relaxed atomic op in the scanned tree")

# ---------------------------------------------------------------------------
# SA005: wire structs (adjacent static_assert + schema lockfile)
# ---------------------------------------------------------------------------

def _round_up(v, a):
    return (v + a - 1) // a * a


class LayoutComputer:
    """Deterministic POD layout for wire structs: fixed-width scalars,
    nested wire structs, enums with an explicit underlying type, and
    numeric-bound arrays, laid out with natural alignment.  This mirrors
    exactly what the wire structs' static_asserts pin."""

    def __init__(self, files):
        self.enum_bases = {}
        self.aliases = {}
        self.structs = {}
        self._memo = {}
        for f in files:
            for m in re.finditer(
                    r"\benum\s+(?:class|struct)?\s*([A-Za-z_]\w*)\s*:\s*"
                    r"([\w:]+)", f.raw):
                self.enum_bases[m.group(1)] = m.group(2)
            for m in re.finditer(
                    r"^\s*using\s+([A-Za-z_]\w*)\s*=\s*([^;]+);", f.raw,
                    re.M):
                self.aliases[m.group(1)] = m.group(2).strip()
            for s in f.structs:
                self.structs.setdefault(s.name, s)
                self.structs.setdefault(s.qual, s)

    def size_align(self, type_text, depth=0):
        if depth > 8:
            return None
        t = re.sub(r"\s+", " ", type_text).strip()
        t = re.sub(r"^(?:const|volatile) ", "", t)
        if t in SCALAR_LAYOUT:
            sz = SCALAR_LAYOUT[t]
            return (sz, sz)
        m = re.match(r"(?:std::)?array\s*<\s*(.+)\s*,\s*(\d+)\s*>$", t)
        if m:
            inner = self.size_align(m.group(1), depth + 1)
            if inner is None:
                return None
            return (inner[0] * int(m.group(2)), inner[1])
        base = t.split("<")[0].split("::")[-1].strip()
        if t in self.aliases:
            return self.size_align(self.aliases[t], depth + 1)
        if base in self.aliases:
            return self.size_align(self.aliases[base], depth + 1)
        if base in self.enum_bases:
            return self.size_align(self.enum_bases[base], depth + 1)
        st = self.structs.get(t) or self.structs.get(base)
        if st is not None:
            lay = self.layout(st)
            if lay["fixed"]:
                return (lay["size"], lay["align"])
        return None

    def layout(self, struct):
        key = struct.qual or struct.name
        if key in self._memo:
            return self._memo[key]
        # Pre-seed to break self-recursive struct cycles.
        self._memo[key] = {"fixed": False, "fields": [
            (f.name, f.type, None, None) for f in struct.fields]}
        off, maxal = 0, 1
        fields = []
        fixed = True
        for f in struct.fields:
            sa = self.size_align(f.type)
            if sa is None or f.array < 0:
                fixed = False
                break
            size, align = sa
            count = f.array if f.array > 0 else 1
            off = _round_up(off, align)
            fields.append((f.name, f.type, off, size * count))
            off += size * count
            maxal = max(maxal, align)
        if fixed:
            result = {"fixed": True, "size": _round_up(off, maxal),
                      "align": maxal, "fields": fields}
        else:
            result = {"fixed": False, "fields": [
                (f.name, f.type, None, None) for f in struct.fields]}
        self._memo[key] = result
        return result

    def render_lock(self, structs):
        lines = [
            "# umon-sca wire-schema lock v1",
            "# Field names, offsets, and sizes of every",
            "# `// umon-sca: wire-struct` marked struct.  Regenerate after",
            "# an intentional wire format change with:",
            "#   python3 tools/sca/umon_sca.py --update-lock",
            "# (and bump the format version the struct carries on the wire).",
        ]
        for s in sorted(structs, key=lambda s: s.qual):
            lay = self.layout(s)
            if lay["fixed"]:
                lines.append(f"struct {s.qual} file={s.file} "
                             f"size={lay['size']} align={lay['align']}")
                for (name, type_, off, size) in lay["fields"]:
                    lines.append(f"  field {name} type={type_} "
                                 f"offset={off} size={size}")
            else:
                lines.append(f"struct {s.qual} file={s.file} "
                             "layout=variable")
                for (name, type_, _, _) in lay["fields"]:
                    lines.append(f"  field {name} type={type_}")
        return "\n".join(lines) + "\n"


def parse_lockfile(path):
    """Lockfile text -> {qual: {file, header, fields: [field lines]}}."""
    entries = {}
    if not os.path.exists(path):
        return entries
    cur = None
    with open(path, encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.rstrip("\n")
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if s.startswith("struct "):
                parts = s.split()
                qual = parts[1]
                attrs = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
                cur = {"file": attrs.get("file", ""), "header": s,
                       "fields": []}
                entries[qual] = cur
            elif s.startswith("field ") and cur is not None:
                cur["fields"].append(s)
    return entries


def render_struct_entry(lay, struct):
    if lay["fixed"]:
        header = (f"struct {struct.qual} file={struct.file} "
                  f"size={lay['size']} align={lay['align']}")
        fields = [f"field {n} type={t} offset={o} size={sz}"
                  for (n, t, o, sz) in lay["fields"]]
    else:
        header = f"struct {struct.qual} file={struct.file} layout=variable"
        fields = [f"field {n} type={t}" for (n, t, _, _) in lay["fields"]]
    return header, fields


WIRE_ASSERT_WINDOW = 12  # lines past the closing brace


def run_sa005(analyzer, files, lockfile_path, lockfile_rel, update):
    layouts = LayoutComputer(files)
    wire_structs = []
    for f in files:
        for s in f.structs:
            if not s.wire:
                continue
            wire_structs.append(s)
            window = "\n".join(f.code[s.line - 1:s.end + WIRE_ASSERT_WINDOW])
            if not re.search(r"static_assert\s*\([^;]*\b" +
                             re.escape(s.name) + r"\b", window):
                analyzer.emit(
                    "SA005", s.file, s.line,
                    f"wire struct {s.qual} has no static_assert pinning its "
                    "sizeof/copyability within "
                    f"{WIRE_ASSERT_WINDOW} lines of its closing brace")
    # Cross-check the layout computer against the tree's own sizeof
    # static_asserts: a disagreement means the computer (not the code) is
    # wrong, and must fail loudly rather than bless a bogus lockfile.
    assert_re = re.compile(
        r"static_assert\s*\(\s*sizeof\s*\(\s*([A-Za-z_][\w:]*)\s*\)\s*==\s*"
        r"(\d+)")
    by_name = {}
    for s in wire_structs:
        by_name.setdefault(s.name, s)
        by_name.setdefault(s.qual, s)
    for f in files:
        for m in assert_re.finditer(f.raw):
            s = by_name.get(m.group(1)) or by_name.get(
                m.group(1).split("::")[-1])
            if s is None:
                continue
            lay = layouts.layout(s)
            if lay["fixed"] and lay["size"] != int(m.group(2)):
                analyzer.emit(
                    "SA005", s.file, s.line,
                    f"internal layout computer disagrees with the tree: "
                    f"computed sizeof({s.qual}) == {lay['size']} but "
                    f"{f.rel} static_asserts {m.group(2)}")
    if update:
        with open(lockfile_path, "w", encoding="utf-8") as fh:
            fh.write(layouts.render_lock(wire_structs))
        return
    locked = parse_lockfile(lockfile_path)
    scanned_rels = {f.rel for f in files}
    if not locked and wire_structs:
        analyzer.emit(
            "SA005", lockfile_rel, 1,
            f"wire-schema lockfile {lockfile_rel} is missing or empty; "
            "generate it with --update-lock and check it in")
        return
    seen_quals = set()
    for s in wire_structs:
        seen_quals.add(s.qual)
        lay = layouts.layout(s)
        header, fields = render_struct_entry(lay, s)
        entry = locked.get(s.qual)
        if entry is None:
            analyzer.emit(
                "SA005", s.file, s.line,
                f"wire struct {s.qual} is not in {lockfile_rel}; if the "
                "new struct is intentional, run --update-lock and review "
                "the diff")
            continue
        if entry["header"] != header:
            analyzer.emit(
                "SA005", s.file, s.line,
                f"wire struct {s.qual} layout drifted: lockfile says "
                f"`{entry['header']}`, tree says `{header}`; an "
                "intentional wire change needs --update-lock plus a "
                "format-version bump")
            continue
        if entry["fields"] != fields:
            old = set(entry["fields"])
            new = set(fields)
            gone = sorted(old - new)
            added = sorted(new - old)
            detail = []
            if gone:
                detail.append("lockfile-only: " + "; ".join(gone))
            if added:
                detail.append("tree-only: " + "; ".join(added))
            if not detail:  # same lines, different order
                detail.append("field order changed")
            analyzer.emit(
                "SA005", s.file, s.line,
                f"wire struct {s.qual} fields drifted from "
                f"{lockfile_rel}: " + " | ".join(detail))
    for qual, entry in sorted(locked.items()):
        if qual in seen_quals:
            continue
        if entry["file"] in scanned_rels:
            analyzer.emit(
                "SA005", entry["file"], 1,
                f"wire struct {qual} is in {lockfile_rel} but no longer "
                f"pinned in {entry['file']}; removing a wire struct needs "
                "--update-lock and a format-version bump")

# ---------------------------------------------------------------------------
# Scan driver
# ---------------------------------------------------------------------------

def iter_source_files(roots, repo_root):
    seen = set()
    for root in roots:
        path = root if os.path.isabs(root) else os.path.join(repo_root, root)
        if os.path.isfile(path):
            rel = os.path.relpath(path, repo_root)
            if rel not in seen:
                seen.add(rel)
                yield path, rel
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in SKIP_DIR_NAMES)
            for name in sorted(filenames):
                if os.path.splitext(name)[1] not in SOURCE_EXTENSIONS:
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, repo_root)
                if rel not in seen:
                    seen.add(rel)
                    yield full, rel


def run_scan(sources, repo_root, *, rules, ledger_path, lockfile_path,
             prof_table_path, update_lock=False):
    """Full pipeline over (full path, repo-relative path) pairs.  Returns
    (findings, suppressed)."""
    files = []
    parser = Parser()
    for full, rel in sources:
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SystemExit(f"{TOOL}: cannot read {full}: {exc}")
        files.append(parser.parse(rel, raw))
    relaxed_globs, ledger_rows, ledger_errors = load_ledger(ledger_path)
    prof_table = load_prof_table(prof_table_path)
    analyzer = Analyzer(files, relaxed_globs, ledger_rows, prof_table)
    ledger_rel = os.path.relpath(ledger_path, repo_root) \
        if os.path.isabs(ledger_path) else ledger_path
    lock_rel = os.path.relpath(lockfile_path, repo_root) \
        if os.path.isabs(lockfile_path) else lockfile_path
    for f in files:
        for line, msg in f.malformed:
            analyzer.emit(META_RULE, f.rel, line, msg)
        for rule, line, msg in line_findings(f, rules):
            analyzer.emit(rule, f.rel, line, msg)
    for line, msg in ledger_errors:
        analyzer.emit(META_RULE, ledger_rel, line, msg)
    if "SA001" in rules:
        analyzer.run_sa001()
    if "SA002" in rules:
        analyzer.run_sa002()
    if "SA003" in rules:
        analyzer.run_sa003()
    if "SA004" in rules:
        analyzer.run_sa004(ledger_rel)
    if "SA005" in rules or update_lock:
        abs_lock = lockfile_path if os.path.isabs(lockfile_path) \
            else os.path.join(repo_root, lockfile_path)
        run_sa005(analyzer, files, abs_lock, lock_rel, update_lock)
    analyzer.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return analyzer.findings, analyzer.suppressed


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

FIXTURE_PATH_RE = re.compile(r"umon-sca-fixture:\s*path=(\S+)")


def _scan_fixture(path, fixtures_dir, repo_root):
    """Scan one fixture, under the repo path its `umon-sca-fixture: path=`
    directive names (path-sensitive rules), else under its own path."""
    with open(path, encoding="utf-8") as fh:
        pm = FIXTURE_PATH_RE.search(fh.read(2048))
    rel = pm.group(1) if pm else os.path.relpath(path, repo_root)
    findings, _ = run_scan(
        [(path, rel)], repo_root,
        rules=set(RULES),
        ledger_path=os.path.join(fixtures_dir, "atomics_policy.txt"),
        lockfile_path=os.path.join(fixtures_dir, "wire_schema.lock"),
        prof_table_path=os.path.join(fixtures_dir, "prof_stub.hpp"))
    return findings


def run_self_test(fixtures_dir, repo_root, rules=None):
    import glob as globmod
    import tempfile
    failures = []
    rules = set(RULES) if rules is None else rules

    def check(cond, what):
        if not cond:
            failures.append(what)

    # 1. Golden fixtures: each fail fixture trips exactly its own rule;
    #    each pass fixture is clean. A rule subset checks only its own.
    for rule in sorted(rules):
        for kind in ("pass", "fail"):
            pattern = os.path.join(fixtures_dir, f"{rule}_{kind}_*.cpp")
            matches = sorted(globmod.glob(pattern))
            check(matches, f"missing fixture {rule}_{kind}_*.cpp")
            for fixture in matches:
                findings = _scan_fixture(fixture, fixtures_dir, repo_root)
                hit = {f.rule for f in findings}
                name = os.path.basename(fixture)
                if kind == "pass":
                    check(not hit,
                          f"{name}: expected clean, got " +
                          "; ".join(f.render() for f in findings))
                else:
                    check(hit == {rule},
                          f"{name}: expected exactly {{{rule}}}, got "
                          f"{sorted(hit)}: " +
                          "; ".join(f.render() for f in findings))

    with tempfile.TemporaryDirectory(prefix="umon_sca_selftest") as tmp:
        if "SA002" in rules:
            _self_test_lock_models(tmp, fixtures_dir, repo_root, check)
        if "SA005" in rules:
            _self_test_layout(tmp, check)

    if failures:
        sys.stderr.write(f"{TOOL} self-test: {len(failures)} failure(s)\n")
        for f in failures:
            sys.stderr.write(f"  FAIL: {f}\n")
        return 1
    sys.stdout.write(f"{TOOL} self-test: all checks passed\n")
    return 0


def _self_test_lock_models(tmp, fixtures_dir, repo_root, check):
    # 2. A suppression without a justification is itself a finding and
    #    does not suppress.
    bad = os.path.join(tmp, "bad_suppress.cpp")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(
            "#include <mutex>\n"
            "struct S {\n"
            "  std::mutex m_;\n"
            "  void f() {\n"
            "    std::lock_guard<std::mutex> lock(m_);\n"
            "    // umon-sca: allow(SA002)\n"
            "    fsync(3);\n"
            "  }\n"
            "};\n")
    findings = _scan_fixture(bad, fixtures_dir, repo_root)
    hit = {f.rule for f in findings}
    check(hit == {META_RULE, "SA002"},
          f"justification-less suppression: expected SA000+SA002, got "
          f"{sorted(hit)}")

    # 3. A justified suppression silences the finding.
    good = os.path.join(tmp, "good_suppress.cpp")
    with open(good, "w", encoding="utf-8") as fh:
        fh.write(
            "#include <mutex>\n"
            "struct S {\n"
            "  std::mutex m_;\n"
            "  void f() {\n"
            "    std::lock_guard<std::mutex> lock(m_);\n"
            "    // umon-sca: allow(SA002) cold path, bounded write\n"
            "    fsync(3);\n"
            "  }\n"
            "};\n")
    findings = _scan_fixture(good, fixtures_dir, repo_root)
    check(not findings,
          "justified suppression should silence SA002, got " +
          "; ".join(f.render() for f in findings))

    # 4. unique_lock .unlock() releases: no SA002 after the unlock.
    unl = os.path.join(tmp, "unlock_model.cpp")
    with open(unl, "w", encoding="utf-8") as fh:
        fh.write(
            "#include <mutex>\n"
            "struct S {\n"
            "  std::mutex m_;\n"
            "  void f() {\n"
            "    std::unique_lock<std::mutex> el(m_);\n"
            "    int x = 1;\n"
            "    el.unlock();\n"
            "    fsync(x);\n"
            "  }\n"
            "};\n")
    findings = _scan_fixture(unl, fixtures_dir, repo_root)
    check(not findings,
          "unique_lock::unlock() model: expected clean, got " +
          "; ".join(f.render() for f in findings))


def _self_test_layout(tmp, check):
    # 5. Layout computer agrees with the compiler on the tree's own
    #    canonical wire structs (sizes pinned by static_asserts).
    layout_src = os.path.join(tmp, "layout.hpp")
    with open(layout_src, "w", encoding="utf-8") as fh:
        fh.write(
            "#include <cstdint>\n"
            "// umon-sca: wire-struct\n"
            "struct Inner {\n"
            "  std::uint32_t a = 0;\n"
            "  std::uint16_t b = 0;\n"
            "  std::uint8_t c = 0;\n"
            "};\n"
            "// umon-sca: wire-struct\n"
            "struct Outer {\n"
            "  Inner inner;\n"
            "  std::int64_t t = 0;\n"
            "  std::uint8_t k = 0;\n"
            "};\n")
    parser = Parser()
    fir = parser.parse("layout.hpp",
                       open(layout_src, encoding="utf-8").read())
    comp = LayoutComputer([fir])
    by_name = {s.name: s for s in fir.structs}
    inner = comp.layout(by_name["Inner"])
    outer = comp.layout(by_name["Outer"])
    check(inner["fixed"] and inner["size"] == 8 and inner["align"] == 4,
          f"Inner layout wrong: {inner}")
    check(outer["fixed"] and outer["size"] == 24 and
          outer["align"] == 8,
          f"Outer layout wrong: {outer}")
    offs = [(f[0], f[2]) for f in outer["fields"]]
    check(offs == [("inner", 0), ("t", 8), ("k", 16)],
          f"Outer offsets wrong: {offs}")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Static analysis for the uMon tree (SA001-SA010); see "
                    "the module docstring for the rules.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan (default: "
                             + " ".join(DEFAULT_ROOTS) + ")")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--rules", default=",".join(sorted(RULES)),
                        help="comma-separated rule subset")
    parser.add_argument("--lock", default=None,
                        help=f"wire-schema lockfile (default {DEFAULT_LOCKFILE})")
    parser.add_argument("--update-lock", action="store_true",
                        help="regenerate the wire-schema lockfile and exit")
    parser.add_argument("--ledger", default=None,
                        help="atomics policy: relaxed allowlist + [pairs] "
                             f"ledger (default {DEFAULT_LEDGER})")
    parser.add_argument("--prof-table", default=None,
                        help="header with ProfStage/kProfPeriod (default "
                             f"{DEFAULT_PROF_TABLE})")
    parser.add_argument("--repo-root", default=None)
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--fixtures", default=None,
                        help="fixtures directory for --self-test")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0

    repo_root = os.path.abspath(args.repo_root or REPO_ROOT)

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        sys.stderr.write(f"{TOOL}: unknown rules: {sorted(unknown)}\n")
        return 2

    if args.self_test:
        fixtures = args.fixtures or os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "fixtures")
        return run_self_test(fixtures, repo_root, rules)

    findings, suppressed = run_scan(
        iter_source_files(args.paths or DEFAULT_ROOTS, repo_root), repo_root,
        rules=rules,
        ledger_path=args.ledger or os.path.join(repo_root, DEFAULT_LEDGER),
        lockfile_path=args.lock or os.path.join(repo_root, DEFAULT_LOCKFILE),
        prof_table_path=args.prof_table or os.path.join(
            repo_root, DEFAULT_PROF_TABLE),
        update_lock=args.update_lock)

    if args.update_lock:
        lock = args.lock or os.path.join(repo_root, DEFAULT_LOCKFILE)
        sys.stdout.write(f"{TOOL}: wrote {lock}\n")
        return 0

    if args.json:
        print(json.dumps({
            "tool": TOOL,
            "schema_version": SCHEMA_VERSION,
            "findings": [f.as_dict() for f in findings],
            "suppressed": suppressed,
        }, indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"{TOOL}: {len(findings)} finding(s), {suppressed} suppressed")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
