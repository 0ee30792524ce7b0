#!/usr/bin/env python3
"""Seeded mutation pass of tools/obs_report.py over JSON documents.

Usage: report_tool_mutations.py <obs_report.py> <seed> <doc.json>...

Every node of every document (each leaf, object and list) is deleted,
set to null, retyped and bumped in turn. Each variant goes through
`check`, in-process. A variant that passes the schema also goes
through every other subcommand that reads its family: diff against the
original and summary (gate against the original for bench documents),
triage for post-mortem bundles, breakdown and exemplars for run and
campaign documents. A rejected variant needs no more: those
subcommands share check's loader and stop where it does. Every call
must return 0 or 1; an uncaught exception or any other exit code is a
failure and is printed with its traceback. The seed picks each
retype's replacement value.

Exit 0 when every call passed, 1 otherwise.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
import traceback

REPLACEMENTS = (0, 1.5, "x", True, [], {})


def load_tool(path):
    spec = importlib.util.spec_from_file_location("obs_report", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def node_paths(v, path=()):
    children = v.items() if isinstance(v, dict) else \
        enumerate(v) if isinstance(v, list) else ()
    for k, x in children:
        yield path + (k,)
        yield from node_paths(x, path + (k,))


def mutate(doc, path, kind, rng):
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    old = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "null":
        parent[key] = None
    elif kind == "retype":
        parent[key] = rng.choice([r for r in REPLACEMENTS
                                  if type(r) is not type(old)])
    elif isinstance(old, bool):
        parent[key] = not old
    elif isinstance(old, (int, float)):
        parent[key] = old + 1
    elif isinstance(old, str):
        parent[key] = old + "x"
    elif isinstance(old, list):
        parent[key] = old + old[-1:] if old else [0]
    else:
        parent[key] = {**old, "bumped": 1}


def call(tool, argv):
    """(exit code, traceback or None) of one in-process run."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return tool.main(argv), None
    except SystemExit as e:
        return e.code, None
    except Exception:  # noqa: BLE001 (the failure this pass looks for)
        return None, traceback.format_exc()


def commands(family, orig, mutant):
    """The subcommands after `check` that read @p family."""
    if family == "bench":
        return [["gate", orig, mutant]]
    cmds = [["diff", orig, mutant], ["summary", mutant]]
    if family == "postmortem":
        cmds.append(["triage", mutant])
    if family in ("run", "campaign"):
        cmds += [["breakdown", mutant], ["exemplars", mutant]]
    return cmds


def main():
    tool = load_tool(sys.argv[1])
    rng = random.Random(int(sys.argv[2]))
    runs = failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        mutant = os.path.join(tmp, "mutant.json")
        for orig in sys.argv[3:]:
            with open(orig, encoding="utf-8") as f:
                text = f.read()
            family = tool.FAMILIES[json.loads(text)["schema"]].name
            for path in list(node_paths(json.loads(text))):
                for kind in ("delete", "null", "retype", "bump"):
                    doc = json.loads(text)
                    mutate(doc, path, kind, rng)
                    with open(mutant, "w", encoding="utf-8") as f:
                        json.dump(doc, f)
                    argvs = [["check", mutant]]
                    if not tool.load(mutant).problems:
                        argvs += commands(family, orig, mutant)
                    for argv in argvs:
                        runs += 1
                        rc, tb = call(tool, argv)
                        if rc in (0, 1):
                            continue
                        failures += 1
                        if failures <= 5:
                            print(f"{orig}: {kind} {list(path)}: "
                                  f"{argv[0]} exited {rc}\n{tb or ''}")
    print(f"{runs} runs, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
