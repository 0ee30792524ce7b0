#!/usr/bin/env python3
"""Validate, summarize, diff and gate every compresso JSON document.

One tool reads all six document families. Each is keyed by the schema
string its writer stamps (src/sim/schema_versions.h):

  run         `--json` of every bench/example (src/sim/run_export.h)
  campaign    `--campaign-json` (src/exec/campaign_export.h)
  soak        `balloon_oom --soak --out` (src/pressure/soak_export.h)
  service     `tenant_service --out` (src/service/service_export.h)
  postmortem  `--postmortem <dir>` bundles (src/sim/postmortem_export.h)
  bench       `bench_runner` (bench/bench_runner.cpp)

A document is valid when it passes its family's field table (FAMILIES
below: the type of every field) and then every cross-field rule of the
family; a campaign's ok run-jobs read as a run document's results.
Stdlib-only, so CI and users need nothing beyond python3.

Subcommands (<path> = a file, or a directory read as its *.json):
  check <path>...       validate; also fails a soak with a failed
                        controller and a service run that breached an
                        isolation gate
  summary <path>...     per-family digest
  diff <a> <b>          compare the fields each family lists, pairing
                        results by label, soak reports by controller,
                        tenants by name (a directory: its first file)
  breakdown <run.json>  per-result cycle-attribution table
  exemplars <run.json>  worst-reference tail exemplars
  triage <path>...      post-mortem bundles grouped by trigger, with
                        the tenant behind each storm in service mode
  gate <base> <cand>    bench (or bench campaign) host-time gate: a
                        host_ns_per_ref median past --fail-threshold
                        fails unless within the spread (NOISY), past
                        --warn-threshold warns; a moved simulated
                        metric fails

Exit codes: 0 = clean or identical; 1 = findings (schema problems,
failed gates, a compared field that differs, a gate regression);
2 = usage error, or a diff across document families.
"""

import argparse
import json
import os
import sys
from collections import namedtuple

# --- Vocabularies, in writer order ---

# Attribution taxonomy (src/obs/attrib.h).
ATTRIB_COMPS = (
    "mdcache_hit", "mdcache_miss", "bst_walk", "decompress", "compress",
    "device_data", "device_extra", "repack", "overflow_relayout",
    "fault_recovery", "pressure_stall", "swap_io", "os_fault")
# Post-mortem triggers (postmortemTriggerName, src/obs/flight_recorder.h).
TRIGGERS = (
    "watchdog_breach", "op_throttled", "pressure_critical",
    "pressure_emergency", "oom_rescue", "swap_full", "fault_ladder",
    "conservation", "audit_violation", "chaos_storm", "cross_partition")
# Event-ring kinds (obsEventName, src/obs/event_tracer.h).
EVENTS = (
    "split_access", "line_overflow", "page_overflow", "inflation",
    "repack", "md_miss", "md_eviction", "predictor_flip",
    "fault_recovery", "page_fault", "pressure_level", "watchdog_breach",
    "op_throttled", "oom_rescue", "swap_full")
# Pressure levels (pressureLevelName, src/pressure/governor.h).
LEVELS = ("normal", "elevated", "critical", "emergency")
JOB_STATUSES = ("ok", "failed")
SOAK_SCENARIOS = ("calm", "collapse_storm", "balloon_thrash",
                  "swap_storm", "metadata_pressure", "fault_burst")
SOAK_OPS = ("repack", "relocation", "meta_rebuild", "inflation")

RESULT_NUMBERS = (
    "cycles", "insts", "perf", "comp_ratio", "effective_ratio",
    "extra_split", "extra_overflow", "extra_repack", "extra_metadata",
    "extra_total", "md_hit_rate", "zero_access_frac", "audit_violations")
SOAK_REPORT_NUMBERS = (
    "total_refs", "silent_corruptions", "audit_violations",
    "watchdog_breaches", "watchdog_denials", "throttled", "ladder_steps",
    "oom_events", "oom_rescued", "oom_unrescued", "stall_p99_max")
SOAK_PHASE_NUMBERS = (
    "refs", "reads", "writes", "verify_failures", "zero_tolerated",
    "audit_violations", "max_level", "machine_oom", "oom_rescues",
    "oom_dropped_writes", "throttled", "ladder_steps", "swap_full",
    "budget_overruns")
SERVICE_ISOLATION_NUMBERS = (
    "rebalances", "rebalance_pages", "cross_partition_attempts",
    "balloon_partition_rejects", "os_window_rejects", "audit_violations",
    "partition_audit_violations", "silent_corruptions")
SERVICE_TENANT_NUMBERS = (
    "refs", "reads", "writes", "shed", "faults", "md_ops", "gov_denied",
    "inflation_denied", "oom_dropped_writes", "verify_failures",
    "zero_tolerated", "unverified", "pages_lost", "touched_pages")
# Any nonzero isolation counter here fails `check` on a service run.
SERVICE_GATES = ("silent_corruptions", "audit_violations",
                 "partition_audit_violations")
BUNDLE_NUMBERS = (
    "bundle_index", "tick", "triggers_total", "triggers_suppressed",
    "chain_dropped", "ring_total", "ring_dropped", "watermarks_dropped")
# Simulated metrics a bench records; `gate` fails when one moves.
SIM_FIELDS = ("perf", "comp_ratio", "effective_ratio", "extra_total",
              "md_hit_rate")
HOST_METRICS = ("wall_ns", "host_ns_per_ref", "refs_per_host_sec")
# Environment fields that change what a host-time number means.
ENV_GATES = ("build_type", "obs_disabled", "prof_disabled", "preset")

# --- Field types and the walker ---
#
# A spec is one of: a leaf type name (INT, NUM, STR, BOOL, ANY); a tuple
# of allowed strings (an enum); ListOf(spec); MapOf(spec) for an object
# with free keys, optionally restricted to a key vocabulary (keys=...)
# or required to hold exactly it (exact=True); or a dict, an object with
# named fields, where a trailing "?" marks the field optional.

INT, NUM, STR, BOOL, ANY = "int", "number", "string", "bool", "any"
ListOf = namedtuple("ListOf", "item")
MapOf = namedtuple("MapOf", "value keys exact", defaults=(None, False))

LEAF = {
    INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    NUM: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    STR: lambda v: isinstance(v, str),
    BOOL: lambda v: isinstance(v, bool),
    ANY: lambda v: True,
}


def json_type(v):
    return {type(None): "null", bool: "bool", int: "int", float: "number",
            str: "string", list: "list", dict: "object"}.get(type(v), "?")


def walk(v, spec, where, out):
    """Append one message to @p out per place @p v breaks @p spec."""
    def bad(msg):
        out.append(f"{where}: {msg}" if where else msg)

    if isinstance(spec, str):
        if not LEAF[spec](v):
            bad(f"expected {spec}, got {json_type(v)}")
    elif isinstance(spec, ListOf):
        if not isinstance(v, list):
            bad(f"expected list, got {json_type(v)}")
            return
        for i, x in enumerate(v):
            walk(x, spec.item, f"{where}[{i}]", out)
    elif not isinstance(spec, (MapOf, dict)):
        if not (isinstance(v, str) and v in spec):
            bad(f"{v!r} is not one of {', '.join(spec)}")
    elif not isinstance(v, dict):
        bad(f"expected object, got {json_type(v)}")
    elif isinstance(spec, MapOf):
        if spec.keys is not None:
            unknown = [k for k in v if k not in spec.keys]
            missing = [k for k in spec.keys if k not in v]
            if unknown:
                bad(f"unknown keys {unknown[:3]}")
            if spec.exact and missing:
                bad(f"missing keys {missing[:3]}")
        for k, x in v.items():
            walk(x, spec.value, f"{where}[{k!r}]", out)
    else:
        for key, sub in spec.items():
            name = key.rstrip("?")
            if name in v:
                walk(v[name], sub, f"{where}.{name}" if where else name,
                     out)
            elif not key.endswith("?"):
                bad(f"missing field {name!r}")


def ints(*names):
    return dict.fromkeys(names, INT)


# --- Field tables ---

OBJECT = MapOf(ANY)
BREAKDOWN = {
    "enabled": BOOL,
    **ints("refs", "total_cycles", "conservation_failures"),
    "components": MapOf(
        ints("cycles", "background_cycles", "count", "max", "p50", "p90",
             "p99"), ATTRIB_COMPS, exact=True),
    "exemplars": ListOf({**ints("addr", "ref_index", "total"),
                         "components": MapOf(INT, ATTRIB_COMPS)}),
}
RESULT = {
    "label": STR,
    **dict.fromkeys(RESULT_NUMBERS, NUM),
    "mc_stats": MapOf(INT),
    "dram_stats": MapOf(INT),
    "obs": {
        "enabled": BOOL,
        **ints("events_total", "events_dropped"),
        "event_counts": MapOf(INT),
        "histograms?": MapOf(dict.fromkeys(
            ("count", "sum", "min", "max", "mean", "p50", "p90", "p99"),
            NUM)),
    },
    "host_profile": {
        "enabled": BOOL,
        **ints("threads", "wall_ns", "sim_refs"),
        "refs_per_host_sec": NUM,
        "host_ns_per_ref": NUM,
        "phases": MapOf(ints("calls", "incl_ns", "excl_ns")),
    },
    "latency_breakdown": BREAKDOWN,
}
RUN = {"schema": STR, "tool": STR, "results": ListOf(RESULT)}

CAMPAIGN = {
    "schema": STR, "tool": STR, "campaign": STR,
    **ints("campaign_seed", "pool_jobs", "wall_ns"),
    "environment": OBJECT,
    "summary": ints("total", *JOB_STATUSES, "steals"),
    "jobs": ListOf({
        "label": STR,
        "index": INT,
        "status": JOB_STATUSES,
        **ints("seed", "host_ns"),
        "error?": STR,
        "result?": RESULT,
        "values?": MapOf(NUM),
    }),
    "aggregates": MapOf({
        **ints("jobs", "host_ns", "key_mismatches"),
        "mc_stats": MapOf(INT),
        "dram_stats": MapOf(INT),
        "latency_breakdown": {
            **ints("refs", "total_cycles", "conservation_failures"),
            "components": MapOf(ints("cycles", "background_cycles"),
                                ATTRIB_COMPS, exact=True),
        },
    }),
}

SOAK = {
    "schema": STR, "tool": STR, "seed": INT, "all_passed": BOOL,
    "reports": ListOf({
        "controller": STR, "seed": INT, "passed": BOOL, "fail_reason": STR,
        **ints(*SOAK_REPORT_NUMBERS, "postmortems"),
        "phases": ListOf({
            "scenario": SOAK_SCENARIOS,
            **ints(*SOAK_PHASE_NUMBERS),
            "level_end": LEVELS,
            "stall": ints("p50", "p99", "max"),
            "ops": MapOf(ints("count", "p50", "p99", "max", "breaches"),
                         SOAK_OPS, exact=True),
        }),
    }),
}

SERVICE = {
    "schema": STR, "tool": STR,
    **ints("seed", "rounds", "refs_per_round", "total_refs", "postmortems"),
    "comp_ratio": NUM, "effective_ratio": NUM,
    "environment": OBJECT,
    "pressure": {"level_end": LEVELS,
                 **ints("max_level", "oom_events", "oom_rescued",
                        "oom_unrescued")},
    "isolation": ints(*SERVICE_ISOLATION_NUMBERS),
    "tenants": ListOf({
        "name": STR, "profile": STR, "adversary": BOOL,
        "partition": ints("base", "pages"),
        **ints(*SERVICE_TENANT_NUMBERS),
        "comp_ratio": NUM, "effective_ratio": NUM,
        "latency": {"mean": NUM, **ints("p50", "p99", "max")},
        "latency_breakdown": BREAKDOWN,
    }),
}

POSTMORTEM = {
    "schema": STR, "tool": STR,
    **ints(*BUNDLE_NUMBERS),
    "trigger": {"kind": TRIGGERS, **ints("page", "detail")},
    "trigger_chain": ListOf({
        "kind": TRIGGERS,
        **ints("first_tick", "last_tick", "page", "detail", "count")}),
    "ring": ListOf({"kind": EVENTS, "comp": ATTRIB_COMPS,
                    **ints("tick", "page", "detail")}),
    "latency_breakdown": BREAKDOWN,
    "watermarks": ListOf({"level": LEVELS,
                          **ints("tick", "free_permille")}),
    "sections": MapOf(MapOf(INT)),
    "notes": MapOf(STR),
    "environment": OBJECT,
}

BENCH = {
    "schema": STR, "tool": STR, "suite": STR,
    **ints("repeat", "pool_jobs"),
    "environment": OBJECT,
    "benches": MapOf({
        "kind": STR, "workloads": ListOf(STR), "refs_per_core": INT,
        "simulated": dict.fromkeys(SIM_FIELDS, NUM),
        "host": dict.fromkeys(HOST_METRICS, {"median": NUM, "spread": NUM}),
    }),
}

# --- Cross-field rules ---
# Each runs once the field walk passed and yields one message per
# violation.


def run_results(doc):
    """(where, result) per result; a campaign's are its ok run-jobs."""
    if FAMILIES[doc["schema"]].name == "run":
        return [(f"results[{i}]", r) for i, r in enumerate(doc["results"])]
    return [(f"jobs[{i}].result", j["result"])
            for i, j in enumerate(doc["jobs"])
            if j["status"] == "ok" and "result" in j]


def attribution_rules(breakdowns, exempt=lambda doc: False):
    """The two rules every latency_breakdown obeys. A post-mortem bundle
    triggered by conservation drift is exempt from the first: the drift
    is its payload, not a schema problem."""
    def attribution_conserved(doc):
        if exempt(doc):
            return
        for where, lb in breakdowns(doc):
            if lb["conservation_failures"]:
                yield (f"{where}: conservation drift "
                       f"({lb['conservation_failures']} failing "
                       "references)")
            s = sum(c["cycles"] for c in lb["components"].values())
            if s != lb["total_cycles"]:
                yield (f"{where}: component cycles sum to {s}, "
                       f"total_cycles is {lb['total_cycles']}")

    def exemplar_sums(doc):
        for where, lb in breakdowns(doc):
            for i, e in enumerate(lb["exemplars"]):
                s = sum(e["components"].values())
                if s != e["total"]:
                    yield (f"{where}.exemplars[{i}]: components sum to "
                           f"{s}, total is {e['total']}")

    return [attribution_conserved, exemplar_sums]


def result_breakdowns(doc):
    return [(f"{w}.latency_breakdown", r["latency_breakdown"])
            for w, r in run_results(doc)]


def job_records(doc):
    """pool_jobs >= 1; jobs are in index order; an ok job carries
    exactly one of result/values, any other job neither."""
    if doc["pool_jobs"] < 1:
        yield f"pool_jobs is {doc['pool_jobs']}, needs >= 1"
    for i, j in enumerate(doc["jobs"]):
        if j["index"] != i:
            yield f"jobs[{i}]: index {j['index']} out of order"
        n = ("result" in j) + ("values" in j)
        if j["status"] == "ok" and n != 1:
            yield f"jobs[{i}]: an ok job carries exactly one of result/values"
        if j["status"] != "ok" and n:
            yield f"jobs[{i}]: a {j['status']} job must not carry a payload"


def summary_counts(doc):
    s, jobs = doc["summary"], doc["jobs"]
    if s["total"] != len(jobs):
        yield f"summary.total {s['total']} != {len(jobs)} jobs"
    for status in JOB_STATUSES:
        n = sum(j["status"] == status for j in jobs)
        if s[status] != n:
            yield (f"summary.{status} {s[status]} != {n} counted from "
                   "jobs[]")


def report_totals(doc):
    """Every phase has reads + writes == refs and no host timing (the
    document is deterministic); every report total equals the sum over
    its phases."""
    for i, r in enumerate(doc["reports"]):
        for j, ph in enumerate(r["phases"]):
            if ph["reads"] + ph["writes"] != ph["refs"]:
                yield f"reports[{i}].phases[{j}]: reads + writes != refs"
            for k in ("host_ns", "wall_ns"):
                if k in ph:
                    yield f"reports[{i}].phases[{j}]: host-timing field {k!r}"
        for total, per_phase in (
                ("total_refs", "refs"),
                ("silent_corruptions", "verify_failures"),
                ("audit_violations", "audit_violations"),
                ("throttled", "throttled"),
                ("ladder_steps", "ladder_steps")):
            s = sum(ph[per_phase] for ph in r["phases"])
            if r[total] != s:
                yield (f"reports[{i}]: {total} {r[total]} != {s} summed "
                       f"from phases[].{per_phase}")


def pass_verdicts(doc):
    """A passing report is clean, a failing one says why, and
    all_passed agrees with the reports."""
    for i, r in enumerate(doc["reports"]):
        if r["passed"]:
            for k in ("silent_corruptions", "audit_violations"):
                if r[k]:
                    yield f"reports[{i}]: passed with {r[k]} {k}"
            if r["fail_reason"]:
                yield f"reports[{i}]: passed with a fail_reason"
        elif not r["fail_reason"]:
            yield f"reports[{i}]: failed without a fail_reason"
    derived = all(r["passed"] for r in doc["reports"])
    if doc["all_passed"] != derived:
        yield f"all_passed {doc['all_passed']} != {derived} from reports[]"


def tenants_named(doc):
    if not doc["tenants"]:
        yield "a service document needs >= 1 tenant"
    for i, t in enumerate(doc["tenants"]):
        for k in ("name", "profile"):
            if not t[k]:
                yield f"tenants[{i}]: {k} must be a non-empty string"
        if t["partition"]["pages"] < 1:
            yield f"tenants[{i}]: an empty partition serves nothing"
        if t["reads"] + t["writes"] != t["refs"]:
            yield f"tenants[{i}]: reads + writes != refs"


def service_totals(doc):
    """The envelope reproduces the per-tenant counters exactly."""
    s = sum(t["refs"] for t in doc["tenants"])
    if doc["total_refs"] != s:
        yield f"total_refs {doc['total_refs']} != {s} summed from tenants[]"
    s = sum(t["verify_failures"] for t in doc["tenants"])
    if doc["isolation"]["silent_corruptions"] != s:
        yield (f"isolation.silent_corruptions "
               f"{doc['isolation']['silent_corruptions']} != {s} summed "
               "from tenants[].verify_failures")


def tenant_breakdowns(doc):
    return [(f"tenants[{i}].latency_breakdown", t["latency_breakdown"])
            for i, t in enumerate(doc["tenants"])]


def chain_accounts(doc):
    """Chain entries count >= 1 over an ordered tick range; their
    counts plus chain_dropped are triggers_total; the snapshotting
    trigger is the last entry unless the chain dropped entries."""
    chain = doc["trigger_chain"]
    for i, e in enumerate(chain):
        if e["count"] < 1:
            yield f"trigger_chain[{i}]: count must be >= 1"
        if e["first_tick"] > e["last_tick"]:
            yield (f"trigger_chain[{i}]: first_tick {e['first_tick']} "
                   f"after last_tick {e['last_tick']}")
    s = sum(e["count"] for e in chain)
    if s + doc["chain_dropped"] != doc["triggers_total"]:
        yield (f"chain counts ({s}) + chain_dropped "
               f"({doc['chain_dropped']}) != triggers_total "
               f"({doc['triggers_total']})")
    if chain and doc["chain_dropped"] == 0 and \
            chain[-1]["kind"] != doc["trigger"]["kind"]:
        yield (f"last chain entry is {chain[-1]['kind']!r}, trigger is "
               f"{doc['trigger']['kind']!r}")


def ring_accounts(doc):
    """The ring is chronological and holds no more than was traced."""
    ring = doc["ring"]
    for i in range(1, len(ring)):
        if ring[i - 1]["tick"] > ring[i]["tick"]:
            yield (f"ring[{i}]: not in chronological order "
                   f"({ring[i - 1]['tick']} then {ring[i]['tick']})")
    if doc["ring_total"] and \
            len(ring) + doc["ring_dropped"] > doc["ring_total"]:
        yield (f"ring holds {len(ring)} events + {doc['ring_dropped']} "
               f"dropped, but only {doc['ring_total']} were traced")


def bundle_bounds(doc):
    if not doc["tool"]:
        yield "tool must be a non-empty string"
    for i, m in enumerate(doc["watermarks"]):
        if not 0 <= m["free_permille"] <= 1000:
            yield f"watermarks[{i}]: free_permille outside [0, 1000]"


def conservation_triggered(doc):
    return doc["trigger"]["kind"] == "conservation" or any(
        e["kind"] == "conservation" for e in doc["trigger_chain"])


# --- Per-family printers, diff records and run gates ---


def run_table(doc):
    results = [r for _, r in run_results(doc)]
    print(f"tool: {doc['tool']}  results: {len(results)}")
    hdr = (f"{'label':32} {'cycles':>12} {'IPC':>7} {'ratio':>7} "
           f"{'extra':>7} {'md-hit':>7} {'events':>9}")
    print(hdr)
    print("-" * len(hdr))
    for r in results:
        obs = r["obs"]
        events = str(obs["events_total"]) if obs["enabled"] else "-"
        print(f"{r['label'][:32]:32} {r['cycles']:12.0f} "
              f"{r['perf']:7.3f} {r['comp_ratio']:7.2f} "
              f"{r['extra_total']:7.3f} {r['md_hit_rate']:7.3f} "
              f"{events:>9}")
    hists = {}
    for r in results:
        for name, h in r["obs"].get("histograms", {}).items():
            agg = hists.setdefault(name, {"count": 0, "max": 0})
            agg["count"] += h["count"]
            agg["max"] = max(agg["max"], h["max"])
    if hists:
        print("\nhistograms (aggregated over results):")
        for name, agg in sorted(hists.items()):
            print(f"  {name:32} count={agg['count']:<12} "
                  f"max={agg['max']}")
    profiled = [r for r in results if r["host_profile"]["enabled"]]
    if profiled:
        print("\nhost profile (top phases by exclusive time):")
    for r in profiled:
        hp = r["host_profile"]
        print(f"  {r['label'][:32]:32} {hp['host_ns_per_ref']:.0f} ns/ref  "
              f"{hp['refs_per_host_sec'] / 1e6:.2f} Mref/s")
        top = sorted(hp["phases"].items(),
                     key=lambda kv: -kv[1]["excl_ns"])[:5]
        for name, p in top:
            print(f"      {name:20} excl {p['excl_ns'] / 1e6:9.1f} ms  "
                  f"calls {p['calls']}")


def summarize_runs(docs):
    """The run table; a campaign's scheduling digest first."""
    for d in docs:
        if d.family.name == "campaign":
            campaign_digest(d.doc)
        run_table(d.doc)
        print()


def campaign_digest(doc):
    s = doc["summary"]
    print(f"campaign: {doc['campaign']}  workers: {doc['pool_jobs']}  "
          f"wall: {doc['wall_ns'] / 1e9:.1f}s  "
          f"jobs: {s['ok']}/{s['total']} ok ({s['failed']} failed)  "
          f"steals: {s['steals']}")
    bad = [j for j in doc["jobs"] if j["status"] != "ok"]
    for j in bad[:8]:
        print(f"  {j['status']:8} {j['label']}: {j.get('error', '?')}")
    if len(bad) > 8:
        print(f"  ... and {len(bad) - 8} more")
    custom = [j for j in doc["jobs"] if "values" in j]
    if custom:
        print("custom-job values:")
    for j in custom:
        vals = "  ".join(f"{k}={v:g}"
                         for k, v in sorted(j["values"].items()))
        print(f"  {j['label'][:40]:40} {vals}")
    print()


def summarize_soaks(docs):
    for d in docs:
        doc, reports = d.doc, d.doc["reports"]
        ok = sum(r["passed"] for r in reports)
        print(f"soak: {doc['tool']}  seed: {doc['seed']}  controllers: "
              f"{ok}/{len(reports)} passed  all_passed: "
              f"{str(doc['all_passed']).lower()}")
        hdr = (f"{'controller':12} {'refs':>10} {'corrupt':>8} "
               f"{'audit':>6} {'oom r/u':>9} {'thrott':>7} "
               f"{'ladder':>7} {'p99':>5}  verdict")
        print(hdr)
        print("-" * len(hdr))
        for r in reports:
            verdict = "PASS" if r["passed"] else f"FAIL ({r['fail_reason']})"
            oom = f"{r['oom_rescued']}/{r['oom_unrescued']}"
            print(f"{r['controller'][:12]:12} {r['total_refs']:>10} "
                  f"{r['silent_corruptions']:>8} "
                  f"{r['audit_violations']:>6} {oom:>9} "
                  f"{r['throttled']:>7} {r['ladder_steps']:>7} "
                  f"{r['stall_p99_max']:>5}  {verdict}")
        print("\nphases (per controller):")
        for r in reports:
            print(f"  {r['controller']}:")
            for ph in r["phases"]:
                breaches = sum(o["breaches"] for o in ph["ops"].values())
                print(f"    {ph['scenario']:18} refs={ph['refs']:<7} "
                      f"end={ph['level_end']:9} "
                      f"p99={ph['stall']['p99']:<5} "
                      f"oom={ph['machine_oom']:<4} "
                      f"thrott={ph['throttled']:<6} "
                      f"breach={breaches:<3} swapfull={ph['swap_full']}")
        print()


def summarize_services(docs):
    for d in docs:
        doc, iso = d.doc, d.doc["isolation"]
        print(f"service: {doc['tool']}  seed: {doc['seed']}  "
              f"tenants: {len(doc['tenants'])}  rounds: {doc['rounds']}  "
              f"refs: {doc['total_refs']}  "
              f"pressure end: {doc['pressure']['level_end']}")
        hdr = (f"{'tenant':12} {'profile':10} {'adv':>3} {'refs':>9} "
               f"{'shed':>6} {'denied':>7} {'lost':>5} {'p99':>6} "
               f"{'ratio':>6} {'eff':>6} {'corrupt':>8}")
        print(hdr)
        print("-" * len(hdr))
        for t in doc["tenants"]:
            denied = t["gov_denied"] + t["inflation_denied"]
            print(f"{t['name'][:12]:12} {t['profile'][:10]:10} "
                  f"{'*' if t['adversary'] else '':>3} {t['refs']:>9} "
                  f"{t['shed']:>6} {denied:>7} {t['pages_lost']:>5} "
                  f"{t['latency']['p99']:>6} {t['comp_ratio']:>6.2f} "
                  f"{t['effective_ratio']:>6.2f} "
                  f"{t['verify_failures']:>8}")
        print(f"\nisolation: rebalances={iso['rebalances']} "
              f"(pages={iso['rebalance_pages']})  "
              f"cross_partition={iso['cross_partition_attempts']} "
              f"(balloon_rejects={iso['balloon_partition_rejects']}, "
              f"os_rejects={iso['os_window_rejects']})")
        print(f"gates: silent_corruptions={iso['silent_corruptions']} "
              f"audit={iso['audit_violations']} "
              f"partition_audit={iso['partition_audit_violations']} "
              f"postmortems={doc['postmortems']}")
        print()


def summarize_bundles(docs):
    print(f"{'bundle':40s} {'tick':>10s} {'trigger':18s} "
          f"{'chain':>5s} {'ring':>5s} {'suppr':>6s} notes")
    for d in docs:
        doc, notes = d.doc, d.doc["notes"]
        tag = ",".join(f"{k}={notes[k]}"
                       for k in ("kind", "storm", "seed", "tenant")
                       if notes.get(k))
        print(f"{os.path.basename(d.path):40s} {doc['tick']:>10d} "
              f"{doc['trigger']['kind']:18s} "
              f"{len(doc['trigger_chain']):>5d} {len(doc['ring']):>5d} "
              f"{doc['triggers_suppressed']:>6d} {tag}")


def run_records(doc):
    """Diff fields per result: the run numbers plus every attribution
    component's cycles. A label seen again (tab_ablation_bins repeats
    its labels once per configuration) is keyed `label #n`, so every
    result pairs with the same occurrence in the other document."""
    recs, seen = {}, {}
    for _, r in run_results(doc):
        fields = {k: r[k] for k in RESULT_NUMBERS}
        comps = r["latency_breakdown"]["components"]
        for c in ATTRIB_COMPS:
            fields[f"cycles[{c}]"] = comps[c]["cycles"]
        n = seen[r["label"]] = seen.get(r["label"], 0) + 1
        recs[r["label"] if n == 1 else f"{r['label']} #{n}"] = fields
    return recs


def soak_records(doc):
    return {r["controller"]: {k: r[k] for k in SOAK_REPORT_NUMBERS +
                              ("postmortems", "passed")}
            for r in doc["reports"]}


def service_records(doc):
    recs = {}
    for t in doc["tenants"]:
        fields = {k: t[k] for k in SERVICE_TENANT_NUMBERS + ("adversary",)}
        for k in ("p50", "p99", "max"):
            fields[f"latency.{k}"] = t["latency"][k]
        recs[t["name"]] = fields
    recs["(isolation)"] = dict(doc["isolation"])
    return recs


def bundle_records(doc):
    fields = {k: doc[k] for k in BUNDLE_NUMBERS}
    fields["trigger.kind"] = doc["trigger"]["kind"]
    for name in ("trigger_chain", "ring", "watermarks"):
        fields[f"len({name})"] = len(doc[name])
    for kind in EVENTS:
        fields[f"ring[{kind}]"] = sum(e["kind"] == kind for e in doc["ring"])
    return {"bundle": fields}


def soak_gate(doc):
    return [f"{r['controller']} failed: {r['fail_reason']}"
            for r in doc["reports"] if not r["passed"]]


def service_gate(doc):
    return [f"isolation gate failed: {k} = {doc['isolation'][k]}"
            for k in SERVICE_GATES if doc["isolation"][k]]


# --- The family table ---
# Keyed by the schema strings of src/sim/schema_versions.h;
# tools/check_schema_versions.py keeps the two in lockstep.

Family = namedtuple("Family", "name spec rules line summary records gate",
                    defaults=(None, None, lambda doc: []))

FAMILIES = {
    "compresso-run-v3": Family(
        "run", RUN, attribution_rules(result_breakdowns),
        lambda doc: f"{doc['tool']}, {len(doc['results'])} results",
        summarize_runs, run_records),
    "compresso-campaign-v2": Family(
        "campaign", CAMPAIGN,
        [job_records, summary_counts, *attribution_rules(result_breakdowns)],
        lambda doc: (f"{doc['tool']}, campaign {doc['campaign']!r}, " +
                     ", ".join(f"{doc['summary'][k]} {k}"
                               for k in ("total",) + JOB_STATUSES)),
        summarize_runs, run_records),
    "compresso-soak-v1": Family(
        "soak", SOAK,
        [report_totals, pass_verdicts],
        lambda doc: (f"{doc['tool']}, "
                     f"{sum(r['passed'] for r in doc['reports'])}/"
                     f"{len(doc['reports'])} controllers passed"),
        summarize_soaks, soak_records, soak_gate),
    "compresso-service-v1": Family(
        "service", SERVICE,
        [tenants_named, service_totals,
         *attribution_rules(tenant_breakdowns)],
        lambda doc: (f"{doc['tool']}, {len(doc['tenants'])} tenants, "
                     f"{doc['total_refs']} refs, gates "
                     f"{'BREACHED' if service_gate(doc) else 'held'}"),
        summarize_services, service_records, service_gate),
    "compresso-postmortem-v1": Family(
        "postmortem", POSTMORTEM,
        [bundle_bounds, chain_accounts, ring_accounts,
         *attribution_rules(
             lambda doc: [("latency_breakdown", doc["latency_breakdown"])],
             exempt=conservation_triggered)],
        lambda doc: (f"trigger={doc['trigger']['kind']} "
                     f"chain={len(doc['trigger_chain'])} "
                     f"ring={len(doc['ring'])}"),
        summarize_bundles, bundle_records),
    "compresso-bench-v1": Family(
        "bench", BENCH, [],
        lambda doc: (f"{doc['tool']}, suite {doc['suite']}, "
                     f"{len(doc['benches'])} benches")),
}

# --- Loader and exit-code convention ---


class Usage(Exception):
    """Exit 2: a usage error or an incomparable pair of documents."""


class Finding(Exception):
    """Exit 1: the documents have problems or failed a gate."""


Doc = namedtuple("Doc", "path family doc problems")


def expand(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, n) for n in os.listdir(p)
                            if n.endswith(".json"))
        elif os.path.exists(p):
            files.append(p)
        else:
            raise Usage(f"no such file or directory: {p}")
    return files


def load(path):
    """Read and validate one document: its family's field walk, then,
    if that passed, the family's cross-field rules."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return Doc(path, None, None, [f"cannot read: {e}"])
    schema = doc.get("schema") if isinstance(doc, dict) else None
    fam = FAMILIES.get(schema) if isinstance(schema, str) else None
    if fam is None:
        return Doc(path, None, doc, [
            f"schema {schema!r} is not one of the supported schemas: "
            f"{', '.join(sorted(FAMILIES))}"])
    problems = []
    walk(doc, fam.spec, "", problems)
    for rule in fam.rules if not problems else ():
        problems += [f"{m} [{rule.__name__}]" for m in rule(doc)]
    return Doc(path, fam, doc, problems)


def load_valid(paths, families=None, verb=None):
    """Load every document under @p paths; any schema problem is a
    finding, a family outside @p families a usage error."""
    docs = [load(p) for p in expand(paths)]
    if not docs:
        raise Finding(f"no documents found under {' '.join(paths)}")
    for d in docs:
        for p in d.problems:
            print(f"{d.path}: {p}", file=sys.stderr)
    if any(d.problems for d in docs):
        raise Finding(f"{sum(len(d.problems) for d in docs)} problem(s)")
    for d in docs:
        if families is not None and d.family.name not in families:
            raise Usage(f"{verb} reads {' or '.join(families)} documents, "
                        f"not {d.path} ({d.doc['schema']})")
    return docs


# --- Subcommands ---


def cmd_check(args):
    docs = [load(p) for p in expand(args.paths)]
    if not docs:
        raise Finding(f"no documents found under {' '.join(args.paths)}")
    failed = 0
    for d in docs:
        findings = d.problems or d.family.gate(d.doc)
        for p in findings:
            print(f"{d.path}: {p}", file=sys.stderr)
        if not d.problems:
            print(f"{d.path}: valid {d.doc['schema']} "
                  f"({d.family.line(d.doc)})")
        failed += bool(findings)
    if len(docs) > 1:
        print(f"{len(docs)} document(s) checked, {failed} with findings")
    return 1 if failed else 0


def cmd_summary(args):
    docs = load_valid(args.paths)
    groups = {}
    for d in docs:
        groups.setdefault(d.family.name, []).append(d)
    for name in [n for n, g in groups.items() if not g[0].family.summary]:
        raise Usage(f"no summary for {name} documents; try `gate`")
    for group in groups.values():
        group[0].family.summary(group)
    return 0


def cmd_diff(args):
    a, b = (load_valid(expand([p])[:1] or [p])[0] for p in (args.a, args.b))
    if a.family.records is None:
        raise Usage(f"no diff for {a.family.name} documents; try `gate`")
    if a.family.records is not b.family.records:
        raise Usage(f"cannot diff a {a.family.name} document against a "
                    f"{b.family.name} document")
    ra, rb = a.family.records(a.doc), b.family.records(b.doc)
    shared = [k for k in ra if k in rb]
    only = [(p, [k for k in x if k not in y])
            for p, x, y in ((a.path, ra, rb), (b.path, rb, ra))]
    for path, keys in only:
        if keys:
            print(f"only in {path}: {', '.join(keys[:8])}")
    if not shared:
        raise Finding("no shared records to compare")
    changed = 0
    for key in shared:
        lines = []
        for field in dict.fromkeys([*ra[key], *rb[key]]):
            va, vb = ra[key].get(field), rb[key].get(field)
            if va == vb:
                continue
            rel = (f" ({100 * (vb - va) / va:+.1f}%)" if va and
                   LEAF[NUM](va) and LEAF[NUM](vb) else "")
            lines.append(f"    {field:24} {va} -> {vb}{rel}")
        if lines:
            changed += 1
            print(f"  {key}:")
            print("\n".join(lines))
    if changed:
        print(f"{changed}/{len(shared)} shared records differ")
    else:
        print(f"{len(shared)} shared records, all compared fields "
              "identical")
    return 1 if changed or only[0][1] or only[1][1] else 0


def cmd_breakdown(args):
    (d,) = load_valid([args.file], ("run", "campaign"), "breakdown")
    for _, r in run_results(d.doc):
        lb = r["latency_breakdown"]
        if not lb["enabled"]:
            print(f"{r['label']}: attribution disabled")
            continue
        total = lb["total_cycles"]
        per_ref = total / lb["refs"] if lb["refs"] else 0.0
        print(f"{r['label']}: {lb['refs']} refs, {total} attributed cycles "
              f"({per_ref:.2f}/ref), {lb['conservation_failures']} "
              "conservation failures")
        print(f"  {'component':18} {'cycles':>12} {'share':>7} "
              f"{'bg cycles':>10} {'count':>10} {'p50':>6} "
              f"{'p90':>6} {'p99':>6} {'max':>8}")
        for comp in ATTRIB_COMPS:
            c = lb["components"][comp]
            if c["cycles"] == 0 and c["background_cycles"] == 0:
                continue
            share = 100 * c["cycles"] / total if total else 0.0
            print(f"  {comp:18} {c['cycles']:>12} {share:>6.2f}% "
                  f"{c['background_cycles']:>10} {c['count']:>10} "
                  f"{c['p50']:>6} {c['p90']:>6} {c['p99']:>6} "
                  f"{c['max']:>8}")
            if share > args.max_share:
                print(f"  anomaly: {comp} is {share:.1f}% of "
                      f"{r['label']}'s attributed cycles "
                      f"(> {args.max_share:g}%)", file=sys.stderr)
        print()
    return 0


def cmd_exemplars(args):
    (d,) = load_valid([args.file], ("run", "campaign"), "exemplars")
    for _, r in run_results(d.doc):
        exemplars = r["latency_breakdown"]["exemplars"]
        if args.top:
            exemplars = exemplars[:args.top]
        print(f"{r['label']}: {len(exemplars)} tail exemplars "
              "(worst-N per epoch, globally worst retained)")
        for e in exemplars:
            comps = "  ".join(f"{k}={v}" for k, v in sorted(
                e["components"].items(), key=lambda kv: (-kv[1], kv[0])))
            print(f"  ref {e['ref_index']:<10} addr {e['addr']:#014x} "
                  f"total {e['total']:<6} {comps}")
        print()
    return 0


def service_tenant(doc, kind):
    """The tenant a service-mode bundle is attributed to (None outside
    service mode): the one whose batch was applying, or the offender a
    cross_partition trigger names; untagged = between batches."""
    notes, svc = doc["notes"], doc["sections"].get("service")
    if "tenant" not in notes and svc is None:
        return None
    t = notes.get("tenant") or None
    ct = (svc or {}).get("current_tenant")
    if t is None and ct is not None and 0 <= ct < 2**63:
        t = f"tenant {ct}"  # kNoTenant exports as 2^64-1
    if kind == "cross_partition":
        t = f"tenant {doc['trigger']['detail']}"
    return t or "(round boundary)"


def cmd_triage(args):
    docs = load_valid(args.paths, ("postmortem",), "triage")
    by_kind = {}
    for d in docs:
        by_kind.setdefault(d.doc["trigger"]["kind"], []).append(d)
    print(f"{len(docs)} bundle(s), {len(by_kind)} trigger kind(s)\n")
    for kind in sorted(by_kind, key=lambda k: -len(by_kind[k])):
        group = by_kind[kind]
        print(f"== {kind} ({len(group)} bundle(s)) ==")
        chain, ring, tenants = {}, {}, {}
        for d in group:
            for e in d.doc["trigger_chain"]:
                key = (e["kind"], e["detail"])
                chain[key] = chain.get(key, 0) + e["count"]
            for e in d.doc["ring"]:
                ring[e["kind"]] = ring.get(e["kind"], 0) + 1
            t = service_tenant(d.doc, kind)
            if t is not None:
                tenants[t] = tenants.get(t, 0) + 1
        for (ck, detail), n in sorted(chain.items(),
                                      key=lambda kv: -kv[1])[:5]:
            print(f"  chain  {ck} (detail {detail}): x{n}")
        for ek, n in sorted(ring.items(), key=lambda kv: -kv[1])[:5]:
            print(f"  ring   {ek}: {n} event(s)")
        if tenants:
            top = sorted(tenants.items(), key=lambda kv: (-kv[1], kv[0]))
            print("  tenant " +
                  ", ".join(f"{t}: {n} bundle(s)" for t, n in top))
            if top[0][0] != "(round boundary)" and \
                    top[0][1] * 2 > len(group):
                print(f"  => storm attributed to {top[0][0]} "
                      f"({top[0][1]}/{len(group)} bundle(s))")
        for d in group:
            gov = d.doc["sections"].get("governor")
            line = f"  {os.path.basename(d.path)}: tick {d.doc['tick']}"
            if gov is not None:
                line += (f", governor level {gov.get('level')}, "
                         f"free {gov.get('free_permille')}‰")
            if d.doc["watermarks"]:
                last = d.doc["watermarks"][-1]
                line += (f", last watermark {last['level']} at tick "
                         f"{last['tick']}")
            print(line)
        print()
    return 0


def spread_summary(xs):
    """median + (max-min)/median over repeats, like bench_runner."""
    xs, n = sorted(xs), len(xs)
    median = xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    return {"median": median,
            "spread": (xs[-1] - xs[0]) / median if median > 0 else 0.0}


def bench_view(d):
    """{bench: {simulated, host}}. A campaign groups its ok run-jobs by
    bench name (the label minus any '#rN' repeat suffix)."""
    if d.family.name == "bench":
        return d.doc["benches"]
    groups = {}
    for i, j in enumerate(d.doc["jobs"]):
        if j["status"] != "ok" or "result" not in j:
            continue
        if not j["result"]["host_profile"]["enabled"]:
            raise Finding(f"{d.path}: jobs[{i}]: gate needs an enabled "
                          "host_profile (bench_runner's --prof semantics)")
        groups.setdefault(j["label"].rsplit("#r", 1)[0], []).append(
            j["result"])
    return {name: {
        "simulated": {k: rs[0][k] for k in SIM_FIELDS},
        "host": {m: spread_summary([r["host_profile"][m] for r in rs])
                 for m in HOST_METRICS}} for name, rs in groups.items()}


def cmd_gate(args):
    if args.warn_threshold > args.fail_threshold:
        raise Usage("--warn-threshold exceeds --fail-threshold")
    base, cand = (load_valid([p], ("bench", "campaign"), "gate")[0]
                  for p in (args.baseline, args.candidate))
    warnings = 0
    eb, ec = base.doc["environment"], cand.doc["environment"]
    for k in ENV_GATES:
        if eb.get(k) != ec.get(k):
            print(f"warning: environment.{k} differs: baseline "
                  f"{eb.get(k)!r} vs candidate {ec.get(k)!r} — host "
                  "timings were measured under different gate states")
            warnings += 1
    bb, cb = bench_view(base), bench_view(cand)
    for name, side in [(n, "baseline") for n in bb if n not in cb] + \
            [(n, "candidate") for n in cb if n not in bb]:
        print(f"warning: bench {name!r} only in {side}")
    shared = [n for n in bb if n in cb]
    if not shared:
        raise Finding("no shared benches to compare")
    hdr = (f"{'bench':24} {'base ns/ref':>12} {'cand ns/ref':>12} "
           f"{'delta':>8}  verdict")
    print(hdr)
    print("-" * len(hdr))
    failures = 0
    for name in shared:
        hb = bb[name]["host"]["host_ns_per_ref"]
        hc = cb[name]["host"]["host_ns_per_ref"]
        vb, vc = hb["median"], hc["median"]
        if vb <= 0:
            print(f"{name:24} {vb:12.1f} {vc:12.1f} {'-':>8}  "
                  "no baseline signal")
        else:
            delta = (vc - vb) / vb
            noise = max(hb["spread"], hc["spread"])
            if delta > args.fail_threshold:
                verdict = "FAIL" if delta > noise else \
                    f"NOISY (spread {100 * noise:.0f}%)"
            else:
                verdict = "warn" if delta > args.warn_threshold else "ok"
            failures += verdict == "FAIL"
            warnings += verdict not in ("ok", "FAIL")
            print(f"{name:24} {vb:12.1f} {vc:12.1f} {100 * delta:+7.1f}%  "
                  f"{verdict}")
        sb, sc = bb[name]["simulated"], cb[name]["simulated"]
        moved = [f"{k} {sb[k]} -> {sc[k]}"
                 for k in SIM_FIELDS if sb[k] != sc[k]]
        if moved:
            failures += 1
            print(f"{'':24} FAIL: simulated metrics moved: "
                  f"{', '.join(moved)}")
    print(f"\n{len(shared)} benches compared: {failures} failed, "
          f"{warnings} warned (fail > +{100 * args.fail_threshold:.0f}%, "
          f"warn > +{100 * args.warn_threshold:.0f}%)")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, fn, text in (
            ("check", cmd_check, "validate documents"),
            ("summary", cmd_summary, "per-family digest"),
            ("triage", cmd_triage, "group post-mortem bundles")):
        p = sub.add_parser(name, help=text)
        p.add_argument("paths", nargs="+", help="files or directories")
        p.set_defaults(fn=fn)
    p = sub.add_parser("diff", help="compare two documents")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_diff)
    p = sub.add_parser("breakdown", help="cycle-attribution table")
    p.add_argument("file")
    p.add_argument("--max-share", type=float, default=95.0, help="flag "
                   "components above this percent of the cycles (95)")
    p.set_defaults(fn=cmd_breakdown)
    p = sub.add_parser("exemplars", help="worst-reference tail exemplars")
    p.add_argument("file")
    p.add_argument("--top", type=int, default=0,
                   help="only the worst N per result (0 = all)")
    p.set_defaults(fn=cmd_exemplars)
    p = sub.add_parser("gate", help="bench host-time regression gate")
    p.add_argument("baseline", help="reference BENCH_*.json")
    p.add_argument("candidate", help="freshly measured BENCH_*.json")
    p.add_argument("--fail-threshold", type=float, default=0.50, help=(
        "relative host_ns_per_ref increase that fails (default 0.50)"))
    p.add_argument("--warn-threshold", type=float, default=0.15,
                   help="relative increase that warns (default 0.15)")
    p.set_defaults(fn=cmd_gate)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Finding as e:
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
