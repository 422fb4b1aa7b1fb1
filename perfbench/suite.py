"""Repeat benchmark runs over seeds and summarize them.

    python3 perfbench/suite.py --runs 10 [--workloads audit,bayes,cli] [--first-seed 1]
                               [--trace] [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
with BENCHMARK.json's ``run_seconds``. For every end-to-end metric it
prints, with its unit, the median over the runs, the quartiles, and the
spread (interquartile range over median) against a third of the
metric's bound, then the same for the failure fraction, which is not
gated. It compares the medians of the first and
second half of the seeds: a claim made on one set of seeds must hold on
another, so these must agree within the bound. ``--trace`` adds one
traced run per workload for the per-layer metrics. ``--out`` writes
every run's result and report as JSON. Exits 1 when a run is incorrect,
a spread exceeds its bound (set-up time excepted) or the halves differ
by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"seed": seed, "trace": trace, "wall_s": wall,
            "result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"]}


def _stats(values: list[float], better: str) -> dict:
    half = len(values) // 2
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    first, second = statistics.median(values[:half] or values), statistics.median(values[half:])
    worse = (second - first) / first * (1 if better == "lower" else -1) if first else 0.0
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "seed_halves": {"first": first, "second": second, "change": worse}}


def summarize(spec: dict, runs: list[dict]) -> dict:
    """The gated metrics, with their bound, then the failure fraction."""
    out = {}
    for m in spec["end_to_end"]:
        s = _stats([r["result"]["metrics"][m["name"]]["value"] for r in runs], m["better"])
        s["seed_halves"]["within_bound"] = abs(s["seed_halves"]["change"]) <= m["bound"]
        out[m["name"]] = {"unit": m["unit"], "bound": m["bound"], **s}
    out["failed_frac"] = {"unit": "ratio", **_stats(
        [r["result"]["failed"] / r["result"]["attempted"] for r in runs], "lower")}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="comma-separated; default: all")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    baseline = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(name, s, spec["run_seconds"], False) for s in seeds]
        summary = summarize(spec, runs)
        entry = {"runs": runs, "summary": summary}
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{name}: {len(runs)} runs, seeds {seeds.start}-{seeds.stop - 1}, "
              f"all correct: {correct}")
        print(f"  {'metric':<16}{'unit':<9}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}"
              f"{'bound/3':>9}{'halves':>8}")
        for metric, s in summary.items():
            line = (f"  {metric:<16}{s['unit']:<9}{s['median']:>11.5g}{s['q1']:>11.5g}"
                    f"{s['q3']:>11.5g}{s['spread']:>8.3f}")
            if "bound" not in s:
                print(f"{line}{'-':>9}{s['seed_halves']['change']:>+8.3f}")
                continue
            steady = s["spread"] <= s["bound"] / 3
            halves = s["seed_halves"]
            ok &= (s["spread"] <= s["bound"] or metric == "setup_s") and halves["within_bound"]
            print(f"{line}{s['bound'] / 3:>9.3f}{halves['change']:>+8.3f}"
                  f"{'' if steady else '  spread > bound/3'}"
                  f"{'' if s['spread'] <= s['bound'] else '  SPREAD > BOUND'}"
                  f"{'' if halves['within_bound'] else '  SEED-DEPENDENT'}")
        ok &= correct
        if args.trace:
            entry["trace"] = run_once(name, seeds.start, spec["run_seconds"], True)
            metrics = entry["trace"]["result"]["metrics"]
            print(f"  traced run, seed {seeds.start}:")
            for metric, m in metrics.items():
                print(f"    {metric:<42}{m['value']:>12.5g} {m['unit']}")
        baseline["workloads"][name] = entry
    baseline["env"] = runs[0]["report"]["env"]
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
