"""Print every metric of the benchmark, or check its spread and its counts.

    python3 perfbench/report.py                     # every workload, untraced and traced
    python3 perfbench/report.py --spread 10         # 10 seeds per workload, IQR / median
    python3 perfbench/report.py --check-counts      # two traced runs with one seed agree

Run from the root of a checkout. It runs every workload of BENCHMARK.json for
its `run_seconds`, each run a separate `perfbench/run.py` process; each run
also leaves its full result under .perfbench_work/results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCHMARK_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                              "BENCHMARK.json")
RUN_TIMEOUT_S = 600

# Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = ("sdp.solves", "sdp.iterations", "heuristics.halfsteps",
                "heuristics.omega_calls", "heuristics.omega_c_calls",
                "heuristics.me_calls", "heuristics.ent_calls", "linalg.sign_calls")


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = list(command) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def print_run(run: dict):
    info, result = run["info"], run["result"]
    print(f"{info['workload']} seed {info['seed']} trace {info['trace']}: "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={info['failed_frac']} "
          f"inputs_sha256={info['inputs_sha256'][:16]}")
    if "tail_percentile" in info:
        print(f"  item_tail_s is the p{info['tail_percentile']:.1f} latency of "
              f"{info['reports']} distinct reports, {info['tail_samples_beyond']:.3g} beyond it"
              + ("" if info["tail_rule_met"] else
                 "; too few reports for 10 beyond a percentile above the median"))
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    for name in info["missing_metrics"]:
        print(f"  {name:28s} {'missing':>14s}")
    for msg in info["problems"]:
        print(f"  problem: {msg}")


def main(argv=None) -> int:
    with open(BENCHMARK_FILE, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--spread", type=int, metavar="N", help="untraced runs with seeds seed..seed+N-1")
    p.add_argument("--check-counts", action="store_true")
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        if args.spread:
            runs = [run_once(bench["command"], w, args.seed + k, seconds, 0)
                    for k in range(args.spread)]
            ok &= all(r["result"]["correct"] for r in runs)
            print(f"{w}: {args.spread} seeds from {args.seed}, all correct: "
                  f"{all(r['result']['correct'] for r in runs)}")
            for m in bench["end_to_end"]:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                s = (q3 - q1) / med
                print(f"  {m['name']:14s} median {statistics.median(vals):.6g} {m['unit']:3s} "
                      f"Q1 {q1:.6g} Q3 {q3:.6g} IQR/median {s:.4f}  bound {m['bound']}  "
                      f"{'ok' if s <= m['bound'] / 3 else 'WIDE'}")
        elif args.check_counts:
            a, b = (run_once(bench["command"], w, args.seed, seconds, 1) for _ in range(2))
            ma, mb = a["result"]["metrics"], b["result"]["metrics"]
            diff = [k for k in EXACT_COUNTS if ma[k]["value"] != mb[k]["value"]]
            ok &= not diff and a["result"]["correct"] and b["result"]["correct"]
            counts = ", ".join(f"{k}={ma[k]['value']}" for k in EXACT_COUNTS)
            print(f"{w}: counts {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}"
                  f" ({counts})")
        else:
            for trace in (0, 1):
                run = run_once(bench["command"], w, args.seed, seconds, trace)
                ok &= run["result"]["correct"]
                print_run(run)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
