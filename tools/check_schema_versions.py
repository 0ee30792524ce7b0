#!/usr/bin/env python3
"""Assert src/sim/schema_versions.h (one k*JsonSchema constant per
document family) and tools/obs_report.py agree on every versioned JSON
schema. Run as a ctest from the repo root, it enforces two rules:

 1. The header's schema strings are the keys of obs_report.FAMILIES.
 2. No C++ code re-declares a "compresso-*-v*" string literal outside
    the header (doc comments may mention them; code may not).

Exit 0 when both hold, 1 otherwise, listing every violation.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = os.path.join(REPO, "src", "sim", "schema_versions.h")

sys.path.insert(0, os.path.join(REPO, "tools"))
import obs_report  # noqa: E402

LITERAL = re.compile(r'"(compresso-[a-z0-9_]+-v[0-9]+)"')
CONSTANT = re.compile(
    r'\bk\w+JsonSchema\s*=\s*\n?\s*"(compresso-[a-z0-9_]+-v[0-9]+)"')


def strip_comments(text):
    """Drop // and /* */ comments so doc mentions don't count."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def scan_strays():
    strays = []
    for sub in ("src", "bench", "examples", "tests"):
        for root, _, names in os.walk(os.path.join(REPO, sub)):
            for name in sorted(names):
                if not name.endswith((".cpp", ".h")):
                    continue
                path = os.path.join(root, name)
                if os.path.samefile(path, HEADER):
                    continue
                with open(path, encoding="utf-8") as f:
                    code = strip_comments(f.read())
                for m in LITERAL.finditer(code):
                    strays.append((os.path.relpath(path, REPO),
                                   m.group(1)))
    return strays


def main():
    with open(HEADER, encoding="utf-8") as f:
        header = set(CONSTANT.findall(f.read()))
    tool = set(obs_report.FAMILIES)
    problems = [f"{s} is in {HEADER} but not in obs_report.FAMILIES"
                for s in sorted(header - tool)]
    problems += [f"{s} is in obs_report.FAMILIES but not in {HEADER}"
                 for s in sorted(tool - header)]
    problems += [f"{path}: stray schema literal {literal!r} — use the "
                 "constant from src/sim/schema_versions.h"
                 for path, literal in scan_strays()]
    if problems:
        for p in problems:
            print(f"PROBLEM: {p}")
        print(f"\n{len(problems)} schema-version problem(s)")
        return 1
    print(f"schema versions consistent: {', '.join(sorted(header))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
