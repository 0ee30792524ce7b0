#!/usr/bin/env python3
"""Rerun a figure binary at full budget and check its pinned digests.

    python3 tests/figure_digests.py <path/to/figure-binary>

Runs the binary once with `--json`, with CPR_BENCH_QUICK unset, and
hashes (sha256) two things: its stdout, and the simulated fields of its
run document, which are the fields `obs_report.py diff` compares
(obs_report's family records), with the schema and tool names. Both
must equal the digests pinned below for the binary's name. Exit 0 when
they do, 1 on any difference (printing the measured digests, to paste
here when a change moves a figure on purpose), 2 for an unknown figure.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
import obs_report  # noqa: E402

PINNED = {
    "fig02_compression_ratio": {
        "stdout": "6fabbbb198f7859af596ce4be181f881"
                  "ff2fda0adec01a9268ab09a1215a0489",
        "json": "5800207a810c06bbc6aeb5d890e2ff59"
                "16891a6d19ecffcfe323a18b94ba0c08",
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def measure(binary):
    env = {k: v for k, v in os.environ.items() if k != "CPR_BENCH_QUICK"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        out = subprocess.run([binary, "--json", path], env=env, check=True,
                             stdout=subprocess.PIPE).stdout
        d = obs_report.load(path)
    if d.problems:
        raise SystemExit(f"{binary}: invalid run document: {d.problems}")
    fields = {"schema": d.doc["schema"], "tool": d.doc["tool"],
              "records": d.family.records(d.doc)}
    return {"stdout": sha256(out),
            "json": sha256(json.dumps(fields, sort_keys=True).encode())}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    name = os.path.basename(argv[1])
    if name not in PINNED:
        print(f"no pinned digests for {name}", file=sys.stderr)
        return 2
    got = measure(argv[1])
    bad = [k for k in PINNED[name] if got[k] != PINNED[name][k]]
    for k in bad:
        print(f"{name}: {k} digest {got[k]} != pinned {PINNED[name][k]}")
    if not bad:
        print(f"{name}: stdout and json digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
