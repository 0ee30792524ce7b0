#!/usr/bin/env python3
"""Include-hygiene lint for the Compresso tree.

Run from the repository root (the `check_includes` CMake target and
ctest do); exits non-zero listing every violation. Rules:

 1. Every header under src/ carries an include guard named
    COMPRESSO_<SUBDIR>_<FILE>_H matching its path (so a moved file
    whose guard was not updated is caught).
 2. Project includes use the subsystem-relative quoted form
    ("core/chunk_allocator.h"); no "../", no "src/" prefix, and no
    quoted includes of system headers. Inside a git work tree the
    included file must be tracked (`git ls-files`), so a header that
    exists on disk but is untracked or ignored fails here instead of
    in a clean checkout; outside one it must exist on disk.
 3. Every src/ .cpp includes its own header first — the cheapest test
    that each header is self-contained.
 4. No `using namespace` at file scope in headers.
 5. Any file using the Clang thread-safety annotation macros
    (GUARDED_BY, REQUIRES, CAPABILITY, ...) must include
    "common/thread_annotations.h" directly — relying on a transitive
    include (e.g. via common/sync.h) breaks the moment the middleman
    drops it, and on non-Clang builds that surfaces as a baffling
    parse error instead of a clean miss.

Raw `new` / `delete` is compresso_lint.py's `raw-new-delete` rule.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SRC = Path("src")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
USING_NS_RE = re.compile(r"^\s*using\s+namespace\s+\w")

# Thread-safety annotation macros (common/thread_annotations.h). Any
# use requires a direct include of that header. The defining header
# itself is exempt.
THREAD_ANNOTATIONS_HEADER = "common/thread_annotations.h"
ANNOTATION_MACRO_RE = re.compile(
    r"\b(?:CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY"
    r"|REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED"
    r"|RELEASE|RELEASE_SHARED|RELEASE_GENERIC"
    r"|TRY_ACQUIRE|TRY_ACQUIRE_SHARED|EXCLUDES"
    r"|ASSERT_CAPABILITY|ASSERT_SHARED_CAPABILITY|RETURN_CAPABILITY"
    r"|ACQUIRED_BEFORE|ACQUIRED_AFTER|NO_THREAD_SAFETY_ANALYSIS)\b"
)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines."""
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
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(path: Path) -> str:
    rel = path.relative_to(SRC)
    parts = [p.upper() for p in rel.parts[:-1]]
    stem = rel.stem.upper()
    return "COMPRESSO_" + "_".join(parts + [stem]) + "_H"


def git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, check=True, text=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def tracked_src_files() -> set[Path] | None:
    """Files under src/ that git tracks (index included), or None when
    this tree is not the root of a git work tree (e.g. an unpacked
    `git archive`, even one inside some other repository)."""
    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != Path.cwd().resolve():
        return None
    out = git("ls-files", "-z", "--", str(SRC))
    if out is None:
        return None
    return {Path(p) for p in out.split("\0") if p}


def check_file(
    path: Path, errors: list[str], tracked: set[Path] | None
) -> None:
    raw = path.read_text(encoding="utf-8", errors="replace")
    # Preprocessor directives are scanned on the raw lines (the quoted
    # include path IS a string); code rules use the stripped text.
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    is_header = path.suffix == ".h"

    # Rule 1: include guard.
    if is_header:
        guard = next(
            (
                m.group(1)
                for ln in raw_lines
                if (m := GUARD_IFNDEF_RE.match(ln))
            ),
            None,
        )
        want = expected_guard(path)
        if guard != want:
            errors.append(
                f"{path}: include guard is {guard or 'missing'}, "
                f"expected {want}"
            )

    first_project_include = None
    project_includes: set[str] = set()
    for lineno, ln in enumerate(raw_lines, 1):
        m = INCLUDE_RE.match(ln)
        if m:
            style, inc = m.group(1), m.group(2)
            if style == '"':
                if first_project_include is None:
                    first_project_include = inc
                project_includes.add(inc)
                if inc.startswith("src/"):
                    errors.append(
                        f"{path}:{lineno}: include \"{inc}\" must not "
                        f"carry the src/ prefix"
                    )
                if ".." in inc.split("/"):
                    errors.append(
                        f"{path}:{lineno}: relative include \"{inc}\""
                    )
                target = SRC / inc
                if not target.exists():
                    errors.append(
                        f"{path}:{lineno}: include \"{inc}\" does not "
                        f"resolve under src/"
                    )
                elif tracked is not None and target not in tracked:
                    errors.append(
                        f"{path}:{lineno}: include \"{inc}\" is not "
                        f"tracked by git (untracked or ignored)"
                    )

    # Rule 4: using namespace in headers.
    if is_header:
        for lineno, ln in enumerate(code_lines, 1):
            if USING_NS_RE.match(ln):
                errors.append(
                    f"{path}:{lineno}: `using namespace` at file scope "
                    f"in a header"
                )

    # Rule 3: own header first.
    if path.suffix == ".cpp":
        own = path.relative_to(SRC).with_suffix(".h")
        if (SRC / own).exists() and first_project_include != str(own).replace(
            "\\", "/"
        ):
            errors.append(
                f"{path}: first project include must be its own header "
                f"\"{own}\" (found \"{first_project_include}\")"
            )

    # Rule 5: annotation macros require a direct thread_annotations.h
    # include.
    if path != SRC / THREAD_ANNOTATIONS_HEADER:
        first_use = next(
            (
                lineno
                for lineno, ln in enumerate(code_lines, 1)
                if ANNOTATION_MACRO_RE.search(ln)
            ),
            None,
        )
        if first_use is not None and (
            THREAD_ANNOTATIONS_HEADER not in project_includes
        ):
            errors.append(
                f"{path}:{first_use}: uses thread-safety annotation "
                f"macros without including "
                f"\"{THREAD_ANNOTATIONS_HEADER}\" directly"
            )


def main() -> int:
    if not SRC.is_dir():
        print("check_includes.py: run from the repository root", file=sys.stderr)
        return 2
    errors: list[str] = []
    tracked = tracked_src_files()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".h", ".cpp"):
            check_file(path, errors, tracked)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"check_includes: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("check_includes: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
