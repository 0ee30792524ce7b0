#!/usr/bin/env python3
"""Project-rule linter for the Compresso tree (DESIGN.md §13).

Enforces the project rules that clang-tidy's fixed check set cannot
express. Run from the repository root:

    python3 tools/compresso_lint.py [src] [--json report.json]

Rules (ids are stable; suppressions and reports use them):

  raw-sync-primitive
      No raw std synchronization primitives (std::mutex, lock_guard,
      unique_lock, scoped_lock, condition_variable, call_once, ...)
      outside src/common/sync.h. Raw primitives are invisible to
      Clang's thread-safety analysis; everything must go through the
      annotated Mutex/MutexLock/CondVar wrappers so the GUARDED_BY
      proofs stay airtight.

  nondeterminism
      No wall-clock / libc randomness (rand, srand, time(), clock(),
      gettimeofday, std::random_device, std::chrono::system_clock):
      simulated results must depend only on the seed. Also flags
      range-for iteration over std::unordered_* containers whose loop
      body feeds an export (stream <<, JsonWriter, printf family) —
      hash order leaking into JSON/CSV breaks golden-file stability.
      steady_clock is allowed (host-side timing), as is the project
      Rng (seed-deterministic by construction).

  statgroup-hot-path
      Inside a profiled hot block (one containing CPR_PROF_SCOPE),
      and anywhere in the per-reference and per-line files of
      HOT_PATH_FILES,
      StatGroup counters may only be bumped through cached uint64_t&
      handles (the `st_*_ = stats_.stat("...")` member-initializer
      idiom). Name-based lookups — `stats_["key"]` or `.stat("key")`
      at the use site — are per-event map walks on the paths the
      profiler says are hot.

  raw-new-delete
      No raw new/delete expressions outside core/chunk_allocator.*
      (the one module allowed to own storage).

Suppression syntax — on the offending line or the line directly above:

    // compresso-lint: allow(rule-id[, rule-id...]) -- reason text

The reason is mandatory; a suppression without one does not count.
File-wide: `// compresso-lint: allow-file(rule-id) -- reason` anywhere
in the file.

Report: --json writes a machine-readable compresso-lint-v1 document
(per-finding rule/file/line/column/message/snippet plus suppression
records). Exit status: 0 = clean (suppressed findings are fine),
1 = unsuppressed findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

SCHEMA = "compresso-lint-v1"

RULES = {
    "raw-sync-primitive": "raw std sync primitive outside common/sync.h",
    "nondeterminism": "wall clock / libc randomness / hash-order export",
    "statgroup-hot-path": "name-based StatGroup lookup on a profiled hot path",
    "raw-new-delete": "raw new/delete outside the chunk allocator",
}

# Pseudo-rule for malformed suppression comments; not suppressible.
BAD_SUPPRESSION_RULE = "bad-suppression"

# Files exempt per rule (repo-relative, forward slashes).
ALLOWLIST = {
    "raw-sync-primitive": {
        "src/common/sync.h",
    },
    "raw-new-delete": {
        "src/core/chunk_allocator.h",
        "src/core/chunk_allocator.cpp",
    },
}

SYNC_PRIMITIVE_RE = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex\b"
    r"|std\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std\s*::\s*condition_variable(?:_any)?\b"
    r"|std\s*::\s*(?:call_once|once_flag)\b"
    r"|\bpthread_(?:mutex|cond|rwlock)_\w+"
)

NONDET_CALL_RES = [
    (re.compile(r"(?<![\w.>])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w.>])srand\s*\("), "srand()"),
    (re.compile(r"\brand_r\b|\bdrand48\b|\blrand48\b"), "*rand48/rand_r"),
    (re.compile(r"(?<![\w.>])random\s*\("), "random()"),
    (re.compile(r"std\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"(?<![\w.>:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bgettimeofday\b|\bclock_gettime\b"), "host clock call"),
    (re.compile(r"\blocaltime\b|\bgmtime\b"), "calendar time"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
EXPORT_MARK_RE = re.compile(
    r"<<|\bbeginObject\b|\bbeginArray\b|\.field\s*\(|\.key\s*\(|\bwriteCsv\b"
    r"|\bfprintf\s*\(|\bprintf\s*\(|\bsnprintf\s*\("
)

STAT_LOOKUP_RES = [
    (re.compile(r"\w+\s*\[\s*\""), "operator[](\"...\") lookup"),
    (re.compile(r"(?:\.|->)\s*stat\s*\(\s*\""), ".stat(\"...\") lookup"),
]

PROF_SCOPE_RE = re.compile(r"\bCPR_PROF_SCOPE\s*\(")

# Files every function of which runs once or more per simulated
# reference, or per line of every populate (the codecs);
# statgroup-hot-path covers them whole. Glob patterns matched against
# the end of the path.
HOT_PATH_FILES = (
    "src/cache/*.cpp",
    "src/compress/*.cpp",
    "src/meta/metadata_cache.cpp",
    "src/dram/dram_model.cpp",
    "src/workloads/access_stream.cpp",
)

NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b(?!\s*;)")
DELETED_FN_RE = re.compile(r"=\s*delete\s*[;,)]")

SUPPRESS_RE = re.compile(
    r"//\s*compresso-lint:\s*(allow|allow-file)\s*\(([^)]*)\)\s*(?:--\s*(\S.*))?"
)


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    column: int
    message: str
    snippet: str
    suppressed: bool = False
    reason: str = ""

    def as_json(self) -> dict:
        d = {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
        }
        if self.suppressed:
            d["suppressed"] = True
            d["reason"] = self.reason
        return d


@dataclass
class FileModel:
    """What the rules run on: raw lines plus code text with comments,
    string and char literals blanked (newlines preserved)."""

    path: Path
    rel: str
    raw_lines: list[str]
    code: str
    code_lines: list[str] = field(default_factory=list)
    # line -> set of rule ids allowed there (with a reason)
    line_allows: dict[int, set[str]] = field(default_factory=dict)
    file_allows: set[str] = field(default_factory=set)
    bad_suppressions: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.code_lines = self.code.splitlines()


# ---------------------------------------------------------------------
# The file model: a lexer that blanks comments and literals.
# ---------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blank comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            seg = text[i : (n if j < 0 else j + 2)]
            out.append("\n" * seg.count("\n"))
            i = n if j < 0 else j + 2
        elif c == '"' and text[i - 2 : i + 1].endswith('R"'):
            # Raw string literal R"delim(...)delim".
            m = re.match(r'R"([^(\s]*)\(', text[i - 1 : i + 32])
            if m:
                end = ")" + m.group(1) + '"'
                j = text.find(end, i)
                seg = text[i : (n if j < 0 else j + len(end))]
                out.append('"' + "\n" * seg.count("\n") + '"')
                i = n if j < 0 else j + len(end)
            else:
                i += 1
        elif c in "\"'":
            # Keep the delimiters (rules match e.g. `["`), blank the body.
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + quote)
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_suppressions(model: FileModel) -> None:
    for lineno, ln in enumerate(model.raw_lines, 1):
        m = SUPPRESS_RE.search(ln)
        if not m:
            continue
        kind, rules_text, reason = m.group(1), m.group(2), m.group(3)
        rules = {r.strip() for r in rules_text.split(",") if r.strip()}
        if not reason or not rules or not rules.issubset(RULES):
            model.bad_suppressions.append(lineno)
            continue
        if kind == "allow-file":
            model.file_allows |= rules
            continue
        # A standalone suppression comment covers the next line; an
        # end-of-line one covers its own line.
        target = lineno
        before = ln[: m.start()].strip()
        if before == "":
            target = lineno + 1
        model.line_allows.setdefault(target, set()).update(rules)


def build_model(path: Path, rel: str) -> FileModel:
    raw = path.read_text(encoding="utf-8", errors="replace")
    model = FileModel(
        path=path,
        rel=rel,
        raw_lines=raw.splitlines(),
        code=strip_comments_and_strings(raw),
    )
    parse_suppressions(model)
    return model


# ---------------------------------------------------------------------
# Shared structure helpers (operate on the blanked code text).
# ---------------------------------------------------------------------


def brace_pairs(code: str) -> list[tuple[int, int]]:
    """Offsets of every matched {...} pair."""
    pairs = []
    stack = []
    for i, c in enumerate(code):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def enclosing_block(pairs: list[tuple[int, int]], offset: int):
    """Innermost {...} pair containing @p offset, or None."""
    best = None
    for lo, hi in pairs:
        if lo < offset < hi:
            if best is None or lo > best[0]:
                best = (lo, hi)
    return best


def line_of(code: str, offset: int) -> int:
    return code.count("\n", 0, offset) + 1


def line_start_offsets(code: str) -> list[int]:
    offs = [0]
    for i, c in enumerate(code):
        if c == "\n":
            offs.append(i + 1)
    return offs


# ---------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------


def rule_raw_sync(model: FileModel, findings: list[Finding]) -> None:
    if model.rel in ALLOWLIST["raw-sync-primitive"]:
        return
    for lineno, ln in enumerate(model.code_lines, 1):
        m = SYNC_PRIMITIVE_RE.search(ln)
        if m:
            findings.append(
                Finding(
                    "raw-sync-primitive",
                    model.rel,
                    lineno,
                    m.start() + 1,
                    f"raw sync primitive `{m.group(0).strip()}`: use the "
                    f"annotated Mutex/MutexLock/CondVar from common/sync.h",
                    model.raw_lines[lineno - 1].strip(),
                )
            )


def rule_nondeterminism(model: FileModel, findings: list[Finding]) -> None:
    for lineno, ln in enumerate(model.code_lines, 1):
        for pat, what in NONDET_CALL_RES:
            m = pat.search(ln)
            if m:
                findings.append(
                    Finding(
                        "nondeterminism",
                        model.rel,
                        lineno,
                        m.start() + 1,
                        f"nondeterminism source {what}: results must depend "
                        f"only on the seed (use common/rng.h or steady_clock "
                        f"for host timing)",
                        model.raw_lines[lineno - 1].strip(),
                    )
                )

    # Range-for over an unordered container whose body feeds an export.
    unordered_names = set()
    for m in UNORDERED_DECL_RE.finditer(model.code):
        # Balance <> to find the declarator name after the template args.
        i = m.end() - 1  # at '<'
        depth = 0
        while i < len(model.code):
            c = model.code[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    break
            elif c == ";":
                break
            i += 1
        tail = model.code[i + 1 : i + 120]
        nm = re.match(r"\s*&?\s*(\w+)", tail)
        if nm and nm.group(1) not in ("const",):
            unordered_names.add(nm.group(1))
    if not unordered_names:
        return
    pairs = brace_pairs(model.code)
    for m in re.finditer(r"\bfor\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)", model.code):
        head = m.group(1)
        rm = re.search(r":\s*(.+)$", head, re.S)
        if not rm:
            continue
        range_expr = rm.group(1)
        if not any(
            re.search(rf"\b{re.escape(nm)}\b", range_expr)
            for nm in unordered_names
        ):
            continue
        # Loop body: the block opened right after the for header (a
        # braceless single-statement body is scanned to end of line+1).
        open_brace = model.code.find("{", m.end())
        body = ""
        if open_brace != -1 and model.code[m.end() : open_brace].strip() == "":
            for lo, hi in pairs:
                if lo == open_brace:
                    body = model.code[lo:hi]
                    break
        else:
            eol = model.code.find("\n", m.end())
            nxt = model.code.find("\n", eol + 1)
            body = model.code[m.end() : nxt if nxt != -1 else len(model.code)]
        if EXPORT_MARK_RE.search(body) or EXPORT_MARK_RE.search(head):
            lineno = line_of(model.code, m.start())
            findings.append(
                Finding(
                    "nondeterminism",
                    model.rel,
                    lineno,
                    m.start() - model.code.rfind("\n", 0, m.start()),
                    "iteration over an unordered container feeds an export: "
                    "hash order leaks into the output — copy into a sorted "
                    "container first",
                    model.raw_lines[lineno - 1].strip(),
                )
            )


def rule_statgroup_hot_path(model: FileModel, findings: list[Finding]) -> None:
    hot_file = any(PurePosixPath(model.rel).match(p) for p in HOT_PATH_FILES)
    scopes = list(PROF_SCOPE_RE.finditer(model.code))
    if not scopes and not hot_file:
        return
    pairs = brace_pairs(model.code)
    starts = line_start_offsets(model.code)
    # Union of profiled block spans (a CPR_PROF_SCOPE covers the rest
    # of its enclosing block, and hot helpers are inlined into it —
    # conservatively take the whole block); a hot file is one span.
    spans = [(-1, len(model.code))] if hot_file else []
    where = ("in a per-reference hot file" if hot_file
             else "inside a CPR_PROF_SCOPE block")
    for s in scopes:
        blk = enclosing_block(pairs, s.start())
        if blk:
            spans.append(blk)
    flagged = set()
    for lineno, ln in enumerate(model.code_lines, 1):
        off = starts[lineno - 1]
        if not any(lo < off < hi for lo, hi in spans):
            continue
        for pat, what in STAT_LOOKUP_RES:
            m = pat.search(ln)
            # `foo["literal"]` must look like a StatGroup, not any
            # array: require the object name to mention stat(s).
            if m and (pat is not STAT_LOOKUP_RES[0][0] or "stat" in ln[: m.end()].rsplit("[", 1)[0].lower()):
                if (lineno, what) in flagged:
                    continue
                flagged.add((lineno, what))
                findings.append(
                    Finding(
                        "statgroup-hot-path",
                        model.rel,
                        lineno,
                        m.start() + 1,
                        f"{what} {where}: hot-path "
                        f"counters must use a cached handle "
                        f"(`uint64_t &st_x_ = stats_.stat(\"x\")` member "
                        f"initializer)",
                        model.raw_lines[lineno - 1].strip(),
                    )
                )


def rule_raw_new_delete(model: FileModel, findings: list[Finding]) -> None:
    if model.rel in ALLOWLIST["raw-new-delete"]:
        return
    for lineno, ln in enumerate(model.code_lines, 1):
        m = NEW_RE.search(ln)
        if m:
            findings.append(
                Finding(
                    "raw-new-delete",
                    model.rel,
                    lineno,
                    m.start() + 1,
                    "raw `new` expression: lifetime must flow through "
                    "ChunkAllocator, containers, or smart pointers",
                    model.raw_lines[lineno - 1].strip(),
                )
            )
        m = DELETE_RE.search(ln)
        if m and not DELETED_FN_RE.search(ln):
            findings.append(
                Finding(
                    "raw-new-delete",
                    model.rel,
                    lineno,
                    m.start() + 1,
                    "raw `delete` expression: lifetime must flow through "
                    "ChunkAllocator, containers, or smart pointers",
                    model.raw_lines[lineno - 1].strip(),
                )
            )


RULE_FNS = [
    rule_raw_sync,
    rule_nondeterminism,
    rule_statgroup_hot_path,
    rule_raw_new_delete,
]


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------


def lint_file(model: FileModel) -> list[Finding]:
    findings: list[Finding] = []
    for fn in RULE_FNS:
        fn(model, findings)
    for f in findings:
        allowed = model.file_allows | model.line_allows.get(f.line, set())
        if f.rule in allowed:
            f.suppressed = True
            f.reason = "suppressed by compresso-lint: allow"
    for lineno in model.bad_suppressions:
        findings.append(
            Finding(
                "bad-suppression",
                model.rel,
                lineno,
                1,
                "malformed compresso-lint suppression (need a known rule "
                "id and a `-- reason`)",
                model.raw_lines[lineno - 1].strip(),
            )
        )
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to lint (default: src)")
    ap.add_argument("--json", metavar="FILE", help="write findings JSON")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rid, desc in RULES.items():
            print(f"{rid}: {desc}")
        return 0

    roots = [Path(p) for p in (args.paths or ["src"])]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*")) if p.suffix in (".h", ".cpp")
            )
        else:
            print(f"compresso_lint: no such path: {root}", file=sys.stderr)
            return 2

    all_findings: list[Finding] = []
    for path in files:
        rel = path.as_posix()
        model = build_model(path, rel)
        all_findings.extend(lint_file(model))

    live = [f for f in all_findings if not f.suppressed]
    suppressed = [f for f in all_findings if f.suppressed]

    if args.json:
        doc = {
            "schema": SCHEMA,
            "files_scanned": len(files),
            "rules": RULES,
            "counts": {"findings": len(live), "suppressed": len(suppressed)},
            "findings": [f.as_json() for f in live],
            "suppressed": [f.as_json() for f in suppressed],
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")

    for f in live:
        print(f"{f.path}:{f.line}:{f.column}: [{f.rule}] {f.message}",
              file=sys.stderr)
        print(f"    {f.snippet}", file=sys.stderr)
    summary = (
        f"compresso_lint: {len(files)} file(s), "
        f"{len(live)} finding(s), {len(suppressed)} suppressed"
    )
    if live:
        print(summary, file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
