#!/usr/bin/env python3
"""Host wall-clock benchmark for record, replay, recovery and failover.

Builds the session binary (hostbench/CMakeLists.txt) from the program's sources
on first use, runs closed-loop sessions of one workload for a fixed
time, checks every output, and prints the metrics named in
BENCHMARK.json: a human-readable table, then one JSON line last.

  python3 hostbench/run.py --workload pbzip2 --seed 1 --seconds 25 --trace 0
  python3 hostbench/run.py --workload mysql --seed 1 --seconds 25 --trace 1
  python3 hostbench/run.py --workload all --size smoke --seconds 1
  python3 hostbench/run.py --compare RESULTS_A RESULTS_B

--trace 0 reports the end-to-end metrics from untraced sessions.
--trace 1 alternates untraced and traced sessions and reports the
per-layer metrics (plus the self-time table, and a Chrome trace of one
traced session). --workload all runs every workload in both modes and
prints every metric. Each run saves its result under --out (default
.bench_build/hostbench/results); --compare reads two such directories
and reports each end-to-end metric x workload as better, worse, same
or unresolved against the bounds in BENCHMARK.json; timings resolve
only when the two sets' runs were collected alternately.

Exit status: 0 when every output checked out, 1 when any check failed
(the JSON line still reports it), 2 on a usage or build error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "hostbench"
SESSION_BIN = BUILD / "hostbench_session"
SPEC_FILE = ROOT / "BENCHMARK.json"
RECORDER_SEEDS = 8


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(SPEC_FILE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (SPEC_FILE, e))


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "core" / "recorder.hh").is_file():
        fail("program sources not found under %s" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "hostbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "hostbench_session"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_session(workload, size, seed, rseed, traced, trace_file):
    cmd = [str(SESSION_BIN), "--workload", workload, "--size", size,
           "--workload-seed", str(seed), "--recorder-seed", str(rseed)]
    if traced:
        cmd += ["--traced"]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=150)
    except subprocess.TimeoutExpired:
        fail("session timed out: " + " ".join(cmd))
    if r.returncode != 0 or not r.stdout.strip():
        fail("session failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_sessions(workload, size, seed, rseed, seconds, trace, trace_file):
    """One process per session until `seconds` have passed.

    Sessions cycle through RECORDER_SEEDS consecutive recorder seeds, so
    a run's figures cover several interleavings (and rollback counts on
    racy) rather than hinging on one. The recorder seeds do not follow
    --seed: racy's program has no input to vary, and a rollback mix that
    moved with the run seed would add seed noise to every racy timing.
    With trace 1, sessions alternate untraced / traced and each pair
    shares its recorder seed.
    """
    min_sessions = 2 if size == "smoke" else 6
    sessions = []
    start = time.monotonic()
    while (len(sessions) < min_sessions or
           time.monotonic() - start < seconds):
        i = len(sessions)
        traced = trace == 1 and i % 2 == 1
        pair = i // 2 if trace == 1 else i
        first_traced = traced and not any(s["traced"] for s in sessions)
        sessions.append(run_session(
            workload, size, seed, rseed + pair % RECORDER_SEEDS, traced,
            trace_file if first_traced else None))
    return sessions


def median_of(sessions, section, name):
    return statistics.median(s[section][name] for s in sessions)


def slow_decile(values):
    """90th percentile, interpolated between observed values."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def session_metrics(s):
    """One untraced session's end-to-end values."""
    m = dict(s["e2e"])
    q = statistics.quantiles(s["commit_gaps_ms"], n=20, method="inclusive")
    m["commit_gap_p50_ms"], m["commit_gap_p95_ms"] = q[9], q[18]
    m["peak_rss_mb"] = s["peak_rss_mb"]
    return m


def end_to_end(plain, per_session):
    """Summarize a run's untraced sessions, one value per metric.

    The shared host this was built on runs in two speed phases, each
    lasting seconds to minutes: a slow one about 1.7x the fast one (on
    mysql, commit gaps of 1.9 against 1.1 ms; CPU time tracks wall time,
    and pinning the session to fewer CPUs does not remove it). A 25 s
    run catches an unpredictable mix of the two, so any summary that can
    fall between the phases jumps from run to run. The slow phase held
    a fifth or more of the sessions in every run measured, so the slow
    decile (90th percentile over sessions, inclusive method: between
    the two slowest at worst) sits inside it: in two ten-seed sets on
    four workloads its quartile spread across runs stayed within 0.15,
    where on the same host the fast decile's reached 0.51 and the
    median's 0.21.

    commit_gap_p95_ms is the 95th percentile of every commit gap of the
    run's untraced sessions, likewise inside the slow phase; one
    session's own p95 rests on about a dozen gaps and flips between
    the phases.
    """
    m = {name: slow_decile(s[name] for s in per_session)
         for name in per_session[0]}
    gaps = [g for s in plain for g in s["commit_gaps_ms"]]
    m["commit_gap_p95_ms"] = statistics.quantiles(
        gaps, n=20, method="inclusive")[18]
    return m


def per_layer(plain, traced):
    m = {name: median_of(traced, "layer", name)
         for name in traced[0]["layer"]}
    m["trace.overhead_ratio"] = (median_of(traced, "e2e", "record_s") /
                                 median_of(plain, "e2e", "record_s"))
    return m


def self_time_table(traced):
    """Median count / total / self per (phase, layer) over traced sessions."""
    rows = {}
    for s in traced:
        for r in s["self_time"]:
            rows.setdefault((r["phase"], r["layer"]), []).append(r)
    phase_order = []
    for r in traced[0]["self_time"]:
        if r["phase"] not in phase_order:
            phase_order.append(r["phase"])
    out = []
    for (phase, layer), rs in rows.items():
        out.append((phase_order.index(phase) if phase in phase_order
                    else len(phase_order), phase, layer,
                    statistics.median(r["count"] for r in rs),
                    statistics.median(r["total_s"] for r in rs),
                    statistics.median(r["self_s"] for r in rs)))
    out.sort(key=lambda t: (t[0], -t[5]))
    lines = ["%-11s %-36s %8s %11s %11s" %
             ("phase", "layer", "count", "total_s", "self_s")]
    for _, phase, layer, count, total, self_s in out:
        lines.append("%-11s %-36s %8g %11.6f %11.6f" %
                     (phase, layer, count, total, self_s))
    return "\n".join(lines)


def print_metrics(title, metrics, specs):
    print("== " + title)
    for spec in specs:
        if spec["name"] in metrics:
            print("  %-28s %16.6f %s" % (spec["name"], metrics[spec["name"]],
                                         spec["unit"]))


def result_path(out_dir, tag, trace):
    """A new file per run, so repeating a seed keeps the earlier result."""
    k = 1
    while (out_dir / ("%s-trace%d-run%d.json" % (tag, trace, k))).exists():
        k += 1
    return out_dir / ("%s-trace%d-run%d.json" % (tag, trace, k))


def run_one(spec, args, workload, trace):
    rseed = args.recorder_seed
    tag = "%s-seed%d" % (workload, args.seed)
    trace_file = BUILD / ("trace-%s.json" % tag)
    started = time.time()
    sessions = run_sessions(workload, args.size, args.seed, rseed,
                            args.seconds, trace, trace_file)
    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    failures = sorted({f for s in sessions for f in s["failures"]})

    per_session = [session_metrics(s) for s in plain]
    e2e = end_to_end(plain, per_session)
    print("hostbench %s: %d sessions (%d traced), %d epochs, "
          "workload seed %d, recorder seeds %d..%d" %
          (workload, len(sessions), len(traced), sessions[0]["epochs"],
           args.seed, rseed, rseed + RECORDER_SEEDS - 1))
    print_metrics("end to end (untraced sessions)", e2e,
                  spec["end_to_end"])
    print("  %-28s %16.6f ratio  (%d of %d checked operations failed%s)" %
          ("fail_ratio", failed / attempted, failed, attempted,
           ": " + ", ".join(failures) if failures else ""))
    if trace == 1:
        layers = per_layer(plain, traced)
        print_metrics("per layer (traced, median over traced sessions)",
                      layers, spec["per_layer"])
        table = self_time_table(traced)
        print("== self time by phase and layer (traced, median)")
        print(table)
        (BUILD / ("layers-%s.txt" % tag)).write_text(table + "\n")
        print("spans: %s" % trace_file)
        names = spec["per_layer"]
        values = layers
    else:
        names = spec["end_to_end"]
        values = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    out_dir = Path(args.out) if args.out else BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path(out_dir, tag, trace).write_text(json.dumps({
        "workload": workload, "seed": args.seed, "trace": trace,
        "size": args.size, "started": started, "finished": time.time(),
        "result": result, "sessions": per_session}) + "\n")
    return result


def load_results(directory):
    """workload -> list of saved trace-0 documents in a result set."""
    by_workload = {}
    for p in sorted(Path(directory).glob("*.json")):
        try:
            doc = json.loads(p.read_text())
        except ValueError:
            continue
        if doc.get("trace") == 0:
            by_workload.setdefault(doc["workload"], []).append(doc)
    if not by_workload:
        fail("no untraced results in %s" % directory)
    return by_workload


MIN_RUNS = 3


def spread(values):
    """Quartile distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def interleaved(starts_a, starts_b):
    """Whether two sets' runs were collected alternately, not one after
    the other: each set's median start lies inside the other's time span.

    A shared host's speed drifts over minutes (on a 4-vCPU VM, mysql's
    fastest record session per run ranged over 0.29-0.70 s within ten
    minutes), so only interleaved sets see the same host.
    """
    def inside(t, starts):
        return min(starts) <= t <= max(starts)
    if not starts_a or not starts_b or None in starts_a + starts_b:
        return False
    return (inside(statistics.median(starts_a), starts_b) and
            inside(statistics.median(starts_b), starts_a))


def verdict(a, b, bound, better, timing=False, same_host=True):
    """better / worse / same / unresolved for result set b against a.

    Unresolved when either side has fewer than MIN_RUNS runs (its spread
    is unknown), when a timing comes from sets that did not share the
    host's time (see interleaved), or when a side's spread exceeds the
    bound and the runs overlap.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    if min(len(a), len(b)) < MIN_RUNS or (timing and not same_host):
        return "unresolved", change
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -max(spread(a), 1e-12):
        return "better", change
    return "same", change


def compare(spec, dir_a, dir_b):
    a, b = load_results(dir_a), load_results(dir_b)
    print("%-8s %-22s %12s %12s %8s %7s  %s" %
          ("workload", "metric", "median A", "median B", "change",
           "bound", "verdict"))
    counts = {}
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            continue
        same_host = interleaved([d.get("started") for d in a[name]],
                                [d.get("started") for d in b[name]])
        if not same_host:
            print("%-8s timings unresolved: the A and B runs were not "
                  "interleaved" % name)
        for m in spec["end_to_end"]:
            va = [d["result"]["metrics"][m["name"]]["value"] for d in a[name]]
            vb = [d["result"]["metrics"][m["name"]]["value"] for d in b[name]]
            v, change = verdict(va, vb, m["bound"], m["better"],
                                timing=m["unit"] in ("s", "ms"),
                                same_host=same_host)
            counts[v] = counts.get(v, 0) + 1
            print("%-8s %-22s %12.6g %12.6g %+7.1f%% %6.0f%%  %s" %
                  (name, m["name"], statistics.median(va),
                   statistics.median(vb), 100 * change, 100 * m["bound"], v))
    print("summary: " + ", ".join("%d %s" % (n, v)
                                  for v, n in sorted(counts.items())))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed: generates the inputs")
    ap.add_argument("--recorder-seed", type=int, default=1,
                    help="first of the 8 interleaving seeds sessions "
                         "cycle through (default 1, independent of --seed)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", help="directory to save the result in")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two saved result sets")
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        compare(spec, *args.compare)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail("--workload must be one of: " + ", ".join(names + ["all"]))
    build()
    if args.workload != "all":
        result = run_one(spec, args, args.workload, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {}
    for name in names:
        for trace in (0, 1):
            results["%s/trace%d" % (name, trace)] = run_one(spec, args, name,
                                                            trace)
            print()
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
