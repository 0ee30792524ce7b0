#!/usr/bin/env python3
"""Driver for the compresso_lint fixture suite (ctest: lint_fixtures).

Runs tools/compresso_lint.py over tests/lint_fixtures/ and asserts
exact agreement with the in-file markers:

    // LINT: <rule>            an unsuppressed finding on this line
    // LINT-SUPPRESSED: <rule> a finding fired here but a valid
                               suppression covered it

Agreement is checked in BOTH directions — a marker that does not fire
and a finding without a marker are both failures — so the fixtures pin
each rule's true-positive *and* false-positive behavior.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent
REPO_ROOT = FIXTURE_DIR.parents[1]
LINTER = REPO_ROOT / "tools" / "compresso_lint.py"

MARKER_RE = re.compile(r"//\s*LINT(-SUPPRESSED)?:\s*([\w-]+)")


def expected_markers():
    live, suppressed = set(), set()
    for path in sorted(FIXTURE_DIR.rglob("*.cpp")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        for lineno, ln in enumerate(path.read_text().splitlines(), 1):
            for m in MARKER_RE.finditer(ln):
                (suppressed if m.group(1) else live).add(
                    (rel, lineno, m.group(2))
                )
    return live, suppressed


def main() -> int:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        report_path = tf.name
    proc = subprocess.run(
        [
            sys.executable,
            str(LINTER),
            str(FIXTURE_DIR),
            "--json",
            report_path,
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    doc = json.loads(Path(report_path).read_text())

    def key(f):
        # Report paths are as given on the command line (absolute here);
        # normalize to repo-relative to match the marker keys.
        rel = Path(f["file"])
        if rel.is_absolute():
            rel = rel.relative_to(REPO_ROOT)
        return (rel.as_posix(), f["line"], f["rule"])

    got_live = {key(f) for f in doc["findings"]}
    got_supp = {key(f) for f in doc["suppressed"]}
    want_live, want_supp = expected_markers()

    failures = []
    for name, got, want in (
        ("unsuppressed", got_live, want_live),
        ("suppressed", got_supp, want_supp),
    ):
        for miss in sorted(want - got):
            failures.append(f"expected {name} finding did not fire: "
                            f"{miss[0]}:{miss[1]} [{miss[2]}]")
        for extra in sorted(got - want):
            failures.append(f"unexpected {name} finding: "
                            f"{extra[0]}:{extra[1]} [{extra[2]}]")

    # The fixture set contains live findings, so the linter must have
    # signalled failure; and the clean/suppressed-only files must pass
    # when linted alone.
    if proc.returncode != 1:
        failures.append(
            f"linter exit code on fixtures was {proc.returncode}, want 1\n"
            f"stderr:\n{proc.stderr}"
        )
    clean = subprocess.run(
        [
            sys.executable,
            str(LINTER),
            str(FIXTURE_DIR / "clean_ok.cpp"),
            str(FIXTURE_DIR / "suppressed_ok.cpp"),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if clean.returncode != 0:
        failures.append(
            f"clean+suppressed fixtures should exit 0, got "
            f"{clean.returncode}\nstderr:\n{clean.stderr}"
        )

    if failures:
        print("lint fixture FAILURES:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"lint fixtures OK: {len(want_live)} findings + "
        f"{len(want_supp)} suppressed, exact match"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
