"""Run one workload of the xorq benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-table --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports xorq from ./src and writes
only under ./.perfbench_work. Each item is one in-process call of
`xorq.cli.main(["bias", game.json, ..., "--format", "json", "--out", ...])`,
made one after another by a single caller (a closed loop), with the BLAS
thread count fixed to 1. Every report is read back and checked.

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, which runs one
traced pass between two untraced ones. The line before it records the
environment, the input hash and the tail percentile. Exit code 2 means the
directory is not an xorq checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 2  # fresh-process set-ups before each pass and after the last
TAIL_BEYOND = 10  # distinct reports that must lie above the reported tail latency
TAIL_FALLBACK = 0.9  # the percentile reported when too few reports allow that
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_xorq():
    """Import xorq from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    from xorq import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"xorq was imported from {cli.__file__}, not from {SRC}")
    return cli


def _call(cli, item, paths, out_path, log):
    """One report; returns (seconds, exit code or the exception text)."""
    argv = item.argv(paths[item.game], out_path)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except Exception:  # an item that raises is a failed item, not a crash
        rc = traceback.format_exc()
    return time.perf_counter() - t0, rc


def probe(args) -> int:
    """One set-up in a fresh process: import, inputs and the first call."""
    t0 = time.perf_counter()
    cli = _import_xorq()
    t1 = time.perf_counter()
    import workloads

    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    paths, _ = workloads.write_inputs(plan, args.probe)
    t2 = time.perf_counter()
    with open(os.path.join(args.probe, "cli-stderr.log"), "w") as log:
        _, rc = _call(cli, plan.warmup, paths, os.path.join(args.probe, "warmup.json"), log)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "first_call_s": t3 - t2,
                      "rc": rc if isinstance(rc, int) else str(rc)}))
    return 0


def measure_setup(args, run_dir, probes: list):
    """Append SETUP_REPEATS set-ups, each timed in a fresh process, to `probes`.

    The host's speed drifts over tens of seconds, so a run spreads its
    probes over its whole length rather than timing them all at its start.
    """
    for _ in range(SETUP_REPEATS):
        probe_dir = os.path.join(run_dir, f"probe{len(probes)}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", probe_dir,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if result["rc"] != 0:
            raise RuntimeError(f"first call failed: {result['rc']}")
        probes.append(result)
        shutil.rmtree(probe_dir)


def environment(cli) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run(args) -> int:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir) -> int:
    cli = _import_xorq()
    import spans
    import workloads

    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    rec = spans.Recorder() if args.trace else None
    if rec:
        rec.install()
        with rec.span(spans.SETUP, "setup"):
            paths, hashes = workloads.write_inputs(plan, os.path.join(run_dir, "games"))
        rec.uninstall()
    else:
        paths, hashes = workloads.write_inputs(plan, os.path.join(run_dir, "games"))
    refs = workloads.load_references()

    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    log = open(os.path.join(run_dir, "cli-stderr.log"), "w")
    records = []  # (item, traced, seconds, rc, out_path)
    pass_seconds = []  # (traced, elapsed time of the whole pass)
    probes = []
    with log:
        _, rc = _call(cli, plan.warmup, paths, os.path.join(out_dir, "warmup.json"), log)
        if rc != 0:
            raise RuntimeError(f"first call failed: {rc}")
        schedule = [(p, items, False) for p, items in enumerate(plan.passes)]
        if rec:
            # The first pass runs colder than later ones (5-10% slower on
            # seesaw-large), so the traced pass sits between two untraced ones.
            schedule = [(0, plan.passes[0], False), (1, plan.passes[1], True),
                        (2, plan.passes[0], False)]
        for p, items, traced in schedule:
            if not rec:
                measure_setup(args, run_dir, probes)
            if traced:
                rec.install()
            t0 = time.perf_counter()
            for i, item in enumerate(items):
                item_id = f"p{p}-{i}"
                out_path = os.path.join(out_dir, f"{item_id}.json")
                if traced:
                    with rec.span(spans.ITEM, item_id):
                        dt, rc = _call(cli, item, paths, out_path, log)
                else:
                    dt, rc = _call(cli, item, paths, out_path, log)
                records.append((item, traced, dt, rc, out_path))
            pass_seconds.append((traced, time.perf_counter() - t0))
            if traced:
                rec.uninstall()
        if not rec:
            measure_setup(args, run_dir, probes)

    problems, failed = [], 0
    for item, _, _, rc, out_path in records:
        found = _check(workloads, item, rc, out_path, refs)
        failed += bool(found)
        problems += [f"{item.ref}: {msg}" for msg in found]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workloads.inputs_digest(hashes),
        "inputs_match_reference": all(
            refs["games"].get(f"{args.workload}/{g}") == h for g, h in hashes.items()
        ),
        "passes": len(plan.passes),
        "failed_frac": failed / len(records),
        "pass_seconds": [s for _, s in pass_seconds],
        "environment": environment(cli),
    }
    untraced_wall = min(s for t, s in pass_seconds if not t)
    if rec is None:
        info["setup_probes"] = probes
        setup_s = statistics.median(
            p["import_s"] + p["inputs_s"] + p["first_call_s"] for p in probes)
        metrics = end_to_end(records, untraced_wall, setup_s, info)
        missing = []
    else:
        rec.dump(os.path.join(WORK, "results", f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        values, missing = spans.layer_metrics(rec.spans, rec.missing)
        traced_wall = next(s for t, s in pass_seconds if t)
        values["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        metrics = {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]} for k, v in values.items()}
        if args.workload == "seesaw-large" and values.get("sdp.solves", 0) != 0:
            problems.append(f"seesaw-large made {values['sdp.solves']} SDP solves; it must make none")
    info["missing_metrics"] = missing
    info["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "latencies"}}))
    print(json.dumps(result))
    return 0


def _check(workloads, item, rc, out_path, refs) -> list:
    if rc != 0:
        return [f"exit {str(rc)[-300:]}"]
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output ({exc})"]
    return workloads.check_report(item, rep, refs["items"])


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    It weights every order statistic by a Beta(p(n+1), (1-p)(n+1)) kernel,
    so the estimate does not jump to a single report when the reports near
    the quantile differ in cost.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(records, wall_s, setup_s, info) -> dict:
    """End-to-end metrics over the untraced items.

    A report's latency is the faster of its two repeats, which lie in
    different passes; the percentiles count each distinct report once.
    wall_s is the elapsed time of the faster untraced pass.
    """
    per_item: dict = {}  # item ref -> latency of each untraced repeat
    for item, traced, dt, _, _ in records:
        if not traced:
            per_item.setdefault(item.ref, []).append(dt)
    lat = [min(v) for v in per_item.values()]
    tail = (len(lat) - TAIL_BEYOND) / len(lat)
    info["tail_rule_met"] = tail > 0.5
    if not info["tail_rule_met"]:
        # Too few distinct reports leave TAIL_BEYOND above a percentile
        # higher than the median; report a fixed one and say so.
        tail = TAIL_FALLBACK
    info["reports"] = len(lat)
    info["tail_percentile"] = 100.0 * tail
    info["tail_samples_beyond"] = len(lat) * (1.0 - tail)
    info["latencies"] = per_item
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "item_p50_s": quantile(lat, 0.5),
        "item_tail_s": quantile(lat, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xorq", "__init__.py")):
        print(f"error: {SRC}/xorq not found; run from the root of an xorq checkout",
              file=sys.stderr)
        return 2
    if args.probe:
        return probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
