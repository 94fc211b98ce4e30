#!/usr/bin/env python3
"""End-to-end benchmark of the temporal integrity monitor.

Drives a generated spec and transaction stream through the public API
(checker::Monitor, past::PastMonitor, checker::TriggerManager,
checker::MonitorCheckpoint) as a closed loop, checks every verdict against the
literal paper procedure, and prints the metrics.

    python3 bench_e2e/run.py --workload oltp_steady --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --all --seconds 10      # every workload, all metrics
    python3 bench_e2e/run.py --workload orders_growth --seeds 1-10 --save runs/A
    python3 bench_e2e/compare.py runs/A [runs/B]     # spread / paired comparison
    python3 bench_e2e/run.py --selftest              # the gates must catch faults

Run from the repository root. The first run builds bench_e2e/ (a CMake package
that compiles the library from src/) into $CARGO_TARGET_DIR/bench_e2e, default
.bench_build/bench_e2e. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Everything else goes to standard error. Exit code 0 only when every check
passed; 2 when nothing could be run (no sources, build failure).

Checks (a failing one makes the run incorrect and the exit code 1):
  - every verdict digest (per constraint and per trigger) equals the digest the
    literal procedure produced for the same inputs: progression backend, no
    router, no cohorts, computed once per input and build, cached under the
    build directory; every episode of the run must produce the same digests;
  - the restored monitors issue the live monitors' tail verdicts;
  - no call returned an error status;
  - updates were applied; no monitor ends permanently violated; every
    constraint stays on its declared route; oltp_steady's timed phase grounds
    no fresh element; alerts_mixed fires its trigger;
  - every reported percentile has at least 10 samples beyond it;
  - every metric BENCHMARK.json names is present and finite;
  - the ledger closes: the update wall time not covered by the timed engine
    calls is at most LEDGER_BOUND of the total.
"""

import argparse
import concurrent.futures
import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
import gen  # noqa: E402

# A run must end within this many seconds of its start, builds excepted.
RUN_DEADLINE_S = 175

# Largest share of the update wall time the timed engine calls may leave
# unexplained (clock reads and the loop between calls).
LEDGER_BOUND = 0.10

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; printed with the per-layer metrics.
MOVES = {
    "spec.parse_ms": ("setup_s", "all"),
    "monitor.create_ms": ("setup_s", "all"),
    "monitor.warmup_ms": ("setup_s", "oltp_steady"),
    "monitor.instances": ("setup_s", "oltp_steady"),
    "monitor.residual_classes": ("setup_s", "oltp_steady"),
    "route.joint.p50_us": ("update_p50_us", "oltp_steady"),
    "route.joint.share": ("update_p50_us", "oltp_steady"),
    "route.cohort.p50_us": ("update_p50_us, update_p99_us", "oltp_steady, orders_growth"),
    "route.cohort.share": ("update_p50_us, update_p99_us", "oltp_steady, orders_growth"),
    "route.pointalg.p50_us": ("update_p50_us, update_p99_us", "oltp_steady, orders_growth"),
    "route.pointalg.share": ("update_p50_us, update_p99_us", "oltp_steady, orders_growth"),
    "route.past.p50_us": ("update_p50_us, update_p99_us", "oltp_steady, orders_growth"),
    "route.past.share": ("update_p50_us, update_p99_us", "oltp_steady, orders_growth"),
    "past.p50_us": ("update_p50_us", "oltp_steady"),
    "past.share": ("update_p50_us", "oltp_steady"),
    "grounding.fresh_share": ("update_p99_us, updates_per_s", "orders_growth"),
    "grounding.fresh_p50_us": ("update_p99_us, updates_per_s", "orders_growth"),
    "grounding.steady_p50_us": ("update_p99_us, updates_per_s", "orders_growth"),
    "trigger.p50_us": ("update_p50_us", "alerts_mixed"),
    "trigger.p99_us": ("update_p99_us", "alerts_mixed"),
    "trigger.share": ("update_p50_us, update_p99_us", "alerts_mixed"),
    "trigger.firings": ("update_p50_us, update_p99_us", "alerts_mixed"),
    "trigger.substitutions": ("update_p50_us, update_p99_us", "alerts_mixed"),
    "ptl.memo_hit_rate": ("update_p50_us", "oltp_steady"),
    "ptl.live_queries": ("update_p99_us", "orders_growth"),
    "ptl.tableau_states": ("update_p99_us", "orders_growth"),
    "ptl.verdict_cache_hit_rate": ("update_p99_us", "orders_growth"),
    "checkpoint.compact_ms": ("checkpoint_p50_ms, update_p99_us", "orders_growth"),
    "checkpoint.serialize_ms": ("checkpoint_p50_ms, update_p99_us", "orders_growth"),
    "checkpoint.restore_ms": ("restore_ms", "all"),
    "db.history_states": ("peak_rss_mb", "orders_growth"),
    "ledger.unattributed_share": ("(harness health)", "all"),
    "trace.overhead_share": ("(harness health)", "all"),
    "failed_op_ratio": ("(correctness)", "all"),
    "update.samples": ("(sample count of the traced percentiles)", "all"),
}

ROUTES = ("joint", "cohort", "pointalg", "past")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Unrunnable(Exception):
    """Nothing could be measured: missing sources, build or input failure."""


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "bench_e2e")


def build(bdir):
    if not os.path.exists(os.path.join(os.path.dirname(HERE), "src", "checker", "monitor.h")):
        raise Unrunnable("library sources (src/) not found next to %s" % HERE)
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(bdir)  # configured from another checkout
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise Unrunnable("build step failed: %s" % " ".join(cmd))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_inputs(bdir, workload, seed):
    spec, stream, params = gen.make(workload, seed)
    d = os.path.join(bdir, "inputs", "%s-%d" % (workload, seed))
    os.makedirs(d, exist_ok=True)
    paths = (os.path.join(d, "spec.tic"), os.path.join(d, "stream.tic"))
    for path, text in zip(paths, (spec, stream)):
        with open(path, "w") as f:
            f.write(text)
    key = hashlib.sha256((spec + "\0" + stream + "\0" + json.dumps(params, sort_keys=True))
                         .encode()).hexdigest()[:16]
    return paths, params, key


def driver_args(bdir, paths, params):
    args = [os.path.join(bdir, "e2e_driver"), "--spec", paths[0], "--stream", paths[1],
            "--warmup", str(params["warmup"]), "--timed", str(params["timed"]),
            "--tail", str(params["tail"]),
            "--checkpoint-every", str(params["checkpoint_every"])]
    for name, route in sorted(params["routes"].items()):
        args += ["--route", "%s=%s" % (name, route)]
    return args


def run_driver(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Unrunnable("out of time before: %s" % " ".join(args))
    with tempfile.NamedTemporaryFile("r", suffix=".json", dir=os.path.dirname(args[0]),
                                     delete=False) as tmp:
        out_path = tmp.name
    try:
        proc = subprocess.run(args + ["--out", out_path], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
        if proc.returncode != 0:
            raise Unrunnable("driver failed (exit %d): %s" % (proc.returncode, " ".join(args)))
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def reference_digests(bdir, paths, params, key, spec_names, deadline):
    """Digests of the literal procedure for these inputs, one oracle process
    per constraint or trigger (at most three at a time), cached per input and
    driver build."""
    binary = sha256_file(os.path.join(bdir, "e2e_driver"))[:16]
    path = os.path.join(bdir, "reference", "%s-%s.json" % (key, binary))
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f), path
    base = driver_args(bdir, paths, params) + ["--mode", "oracle"]
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(lambda n: run_driver(base + ["--only", n], deadline), spec_names))
    ref = {}
    for name, res in zip(spec_names, results):
        if res["failed"] or res["errors"] or list(res["digests"]) != [name]:
            raise Unrunnable("oracle run for %s failed: %s" % (name, res["errors"]))
        ref[name] = res["digests"][name][0]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return ref, path


def spec_names(spec_text):
    names = []
    for line in spec_text.splitlines():
        parts = line.split(None, 1)
        if parts and parts[0] in ("constraint", "past", "trigger"):
            names.append(parts[1].split(":", 1)[0].strip())
    return names


def load_benchmark():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def beyond(samples, q):
    return samples - max(1, math.ceil(q * samples))


def run_once(workload, seed, seconds, trace, corrupt=None):
    """Runs one measurement; returns (result line dict, problems list)."""
    bdir = build_dir()
    build(bdir)
    deadline = time.monotonic() + RUN_DEADLINE_S
    paths, params, key = write_inputs(bdir, workload, seed)
    with open(paths[0]) as f:
        names = spec_names(f.read())
    live = copy.deepcopy(params)
    if corrupt == "route":
        # Declare the first constraint on a route it does not take.
        first = sorted(live["routes"])[0]
        cur = live["routes"][first]
        live["routes"][first] = ROUTES[(ROUTES.index(cur) + 1) % len(ROUTES)]

    args = driver_args(bdir, paths, live) + ["--seconds", str(seconds), "--trace", str(trace)]
    trace_path = None
    if trace:
        trace_path = os.path.join(bdir, "traces", "%s-%d.trace.json" % (workload, seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        args += ["--trace-out", trace_path]
    res = run_driver(args, deadline)
    ref, ref_path = reference_digests(bdir, paths, params, key, names, deadline)
    if corrupt == "digest":
        first = sorted(ref)[0]
        ref = dict(ref, **{first: "%016x" % (int(ref[first], 16) ^ 1)})

    problems = []
    digests_ok = True
    failed = res["failed"]
    for err in res["errors"]:
        problems.append("call failed: " + err)
    if res["tail_mismatches"]:
        problems.append("%d restored-monitor tail verdicts differ from the live ones"
                        % res["tail_mismatches"])
    for name in names:
        got = res["digests"].get(name, [])
        if len(got) != 1:
            problems.append("%s: episodes disagree or produced no verdicts: %s" % (name, got))
        elif got[0] != ref.get(name):
            problems.append("%s: verdict digest %s != reference %s (%s)"
                            % (name, got[0], ref.get(name), ref_path))
        else:
            continue
        digests_ok = False
        failed += 1
    if res["timed_updates"] == 0:
        problems.append("applied zero timed updates")
    for miss in res["route_misses"]:
        problems.append("off its declared route: " + miss)
    for name in res["dead"]:
        problems.append("monitor ends permanently violated: " + name)
    if params["expect_steady"] and res["timed_fresh_updates"]:
        problems.append("%d timed updates grounded fresh elements in a steady workload"
                        % res["timed_fresh_updates"])
    if params["expect_firings"] and res["firings"] == 0:
        problems.append("the triggers fired nothing")

    bench = load_benchmark()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    raw = res["metrics"]
    attempted = max(res["attempted"], 1)
    raw["failed_op_ratio"] = {"value": failed / attempted, "finite": True, "samples": 0}
    for name, m in sorted(raw.items()):
        if m["samples"] and beyond(m["samples"], m["q"]) < 10:
            problems.append("%s: only %d samples beyond its percentile (of %d)"
                            % (name, beyond(m["samples"], m["q"]), m["samples"]))
    ledgers = ["ledger.untraced_unattributed_share"] + (["ledger.unattributed_share"]
                                                        if trace else [])
    for name in ledgers:
        if raw[name]["value"] > LEDGER_BOUND:
            problems.append("ledger does not close: %s = %.4f > %.2f"
                            % (name, raw[name]["value"], LEDGER_BOUND))
    metrics = {}
    for m in declared:
        got = raw.get(m["name"])
        if got is None or not got["finite"] or not math.isfinite(got["value"]):
            problems.append("metric %s missing or not finite" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    if trace_path is not None:
        tools = [[os.path.join(bdir, "validate_trace"), trace_path, "--require-events"],
                 [os.path.join(bdir, "tic_inspect"), trace_path]]
        for cmd in tools:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr, timeout=120)
            if proc.returncode != 0:
                problems.append("%s rejects the trace" % os.path.basename(cmd[0]))

    log("%s seed %d trace %d: %d episodes, %d timed updates, digests %s"
        % (workload, seed, trace, res["episodes"], res["timed_updates"],
           "match" if digests_ok else "DIFFER"))
    for m in declared:
        if m["name"] in metrics:
            line = "  %-28s %14.4f %s" % (m["name"], metrics[m["name"]]["value"], m["unit"])
            if trace and m["name"] in MOVES:
                line += "   -> %s on %s" % MOVES[m["name"]]
            log(line)
    for p in problems:
        log("FAIL: " + p)
    line = {"correct": not problems, "attempted": res["attempted"], "failed": failed,
            "metrics": metrics}
    return line, problems


def selftest(seconds):
    """The gates must catch planted faults: a corrupted reference digest and a
    wrong route assertion each make the run incorrect; a clean run passes."""
    ok = True
    for corrupt, expect in ((None, True), ("digest", False), ("route", False)):
        line, problems = run_once("orders_growth", 7, seconds, 0, corrupt)
        good = line["correct"] == expect
        log("selftest corrupt=%s: correct=%s (%s)" % (corrupt, line["correct"],
                                                      "ok" if good else "WRONG"))
        ok = ok and good
    return ok


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one of %s, or a comma list" % ", ".join(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="several seeds, e.g. 1-10 or 3,5,8 (overrides --seed)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced; print every metric")
    ap.add_argument("--save", help="append each result line to DIR/<workload>-trace<t>.jsonl")
    ap.add_argument("--corrupt", choices=("digest", "route"),
                    help="plant a fault the gates must catch")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        if args.selftest:
            return 0 if selftest(min(args.seconds, 3)) else 1
        seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
        if args.all:
            runs = [(w, t, s) for s in seeds for w in gen.WORKLOADS for t in (0, 1)]
        elif args.workload:
            workloads = args.workload.split(",")
            for w in workloads:
                if w not in gen.WORKLOADS:
                    ap.error("unknown workload %s" % w)
            runs = [(w, args.trace, s) for s in seeds for w in workloads]
        else:
            ap.error("give --workload, --all or --selftest")
        all_ok = True
        for workload, trace, seed in runs:
            line, problems = run_once(workload, seed, args.seconds, trace, args.corrupt)
            all_ok = all_ok and not problems
            if args.save:
                os.makedirs(args.save, exist_ok=True)
                with open(os.path.join(args.save, "%s-trace%d.jsonl" % (workload, trace)),
                          "a") as f:
                    f.write(json.dumps(dict(line, seed=seed)) + "\n")
            print(json.dumps(line), flush=True)
        return 0 if all_ok else 1
    except (Unrunnable, subprocess.TimeoutExpired, OSError) as e:
        log("bench_e2e: cannot run: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
