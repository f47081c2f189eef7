#!/usr/bin/env python3
"""Self-check of the benchmark's exact figures and traced-run accounting.

    python3 perfbench/check_exact.py [--seconds 2]

Runs every workload twice (seeds 1 and 2) with tracing off and on, and
asserts that:
  * the simulated-time and count metrics repeat bit for bit:
    sim_ms_per_meq on the in-process workloads, and solver.sim_*,
    solver.kernel_launches, tuning.evaluations and net.bytes_per_request;
  * every run is correct with nothing failed;
  * the per-layer table plus unaccounted_ms sums to the traced
    latency_p50_ms;
  * the traced run wrote a parsable Chrome trace with spans in it.
Exits nonzero on the first failed assertion.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS = ("solve_large", "solve_many_small")
EXACT_TRACED = ("solver.sim_stage1_ms", "solver.sim_stage2_ms",
                "solver.sim_stage3_ms", "solver.sim_transpose_ms",
                "solver.kernel_launches", "tuning.evaluations",
                "net.bytes_per_request")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} seed={seed} trace={trace}: exit "
                 f"{proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} seed={seed}: result not correct")
    return result["metrics"], lines


def check_table(workload, lines, metrics):
    """The printed layer rows plus unaccounted_ms sum to latency_p50_ms."""
    start = next(i for i, l in enumerate(lines) if l.startswith("per-layer"))
    rows = []
    for line in lines[start + 1:]:
        fields = line.split()
        if fields[0] == "=":
            p50 = float(fields[-1])
            break
        rows.append(float(fields[-1]))
    want = metrics["trace.latency_p50_ms"]["value"]
    # Each printed value is rounded to 4 decimals.
    tol = 5e-5 * (len(rows) + 1)
    if not math.isclose(sum(rows), p50, abs_tol=tol) or \
            not math.isclose(p50, want, abs_tol=5e-5):
        sys.exit(f"FAIL {workload}: layers sum {sum(rows)} != p50 {p50}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    for workload in ("solve_large", "solve_many_small", "wire_mixed"):
        e2e = [run(workload, s, args.seconds, 0)[0] for s in (1, 2)]
        if workload in IN_PROCESS:
            a, b = (m["sim_ms_per_meq"]["value"] for m in e2e)
            if a != b:
                sys.exit(f"FAIL {workload}: sim_ms_per_meq {a} != {b}")
        traced = [run(workload, s, args.seconds, 1) for s in (1, 2)]
        for name in EXACT_TRACED:
            a, b = (t[0][name]["value"] for t in traced)
            if a != b:
                sys.exit(f"FAIL {workload}: {name} {a} != {b}")
        for seed, (metrics, lines) in zip((1, 2), traced):
            check_table(workload, lines, metrics)
            trace = ROOT / ".bench_build" / "perfbench" / "out" / \
                f"trace_{workload}_{seed}.json"
            events = json.loads(trace.read_text())["traceEvents"]
            if not events:
                sys.exit(f"FAIL {workload}: empty trace {trace}")
        print(f"ok {workload}")
    print("all exact checks passed")


if __name__ == "__main__":
    main()
