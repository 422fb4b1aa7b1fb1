"""ldpkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {audit,bayes,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; ldpkit is imported from ``src``.
Workloads are closed loops with one client: each op starts when the
previous one ends. A run executes whole cycles of its workload's op mix
until ``--seconds`` have passed and at least the workload's minimum
number of cycles has run, then checks every op's output.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. Their
times are in reference seconds: each op, set-up probe and start-up probe
runs between two timings of a frozen calibration kernel, which is also
timed every 50 ms inside an in-process op, and the kernel's speed scales
the measured time to a machine running at a fixed speed (see
``calibration``). The report line gives the same metrics in wall seconds.
``--trace 1`` runs each op twice, untraced and traced (alternating
which goes first), and reports the per-layer metrics of the traced
passes, per op, plus the tracing overhead. The cli workload's traced
run calls ``ldpkit.cli.main`` in-process.

Every op's output is checked. Failures that match a known defect of
ldpkit (``checks.KNOWN_DEFECTS``) count in ``failed``; any other wrong
output makes ``correct`` false. The last line of stdout is the result:
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is a JSON report with the environment, the failure fraction and the
known defects behind it.
"""

from __future__ import annotations

import os

# The benchmark and every process it starts run on one CPU, the first
# this process may use, with one BLAS/OpenMP thread, set before numpy
# loads; child processes inherit both. The ops are single-threaded, and
# the calibration kernel then feels the same contention as the ops it
# brackets: on a shared host one CPU can run slower than the other.
_CPUS = sorted(os.sched_getaffinity(0))
_NPROC = len(_CPUS)
os.sched_setaffinity(0, {_CPUS[0]})
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from calibration import REFERENCE_S, Calibrator  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, child_env  # noqa: E402

IMPORT_SAMPLES = 3
WAIT_TIME = (
    "not applicable: ldpkit is single-threaded and driven by one closed-loop "
    "client, so nothing queues or retries"
)
UNCONTROLLED = (
    "CPU frequency, the file cache and other tenants of the machine are not "
    "controlled; no machine setting is changed"
)
# Per-layer metrics computed from counters rather than one span's totals,
# with the span whose absence makes them not applicable.
_COUNTER_SPANS = {
    "contraction.scan_bytes_computed": "contraction.eta_gamma_two_point",
    "ldp.tightest_epsilon.scans_per_call": "ldp.tightest_epsilon",
    "oracle.grid_max.points": "oracle.grid_max",
    "bounds.info_fn.calls": "bounds.bayes_gamma_opt_lb",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# running ops


def _executor(wl, inprocess: bool, tracer: Tracer | None = None,
              calibrator: Calibrator | None = None):
    """Run one op; returns (latency, output or the exception it raised,
    wall seconds). The latency is in reference seconds when a calibrator
    is given, else in wall seconds."""
    run = wl.run if tracer is None else tracer.wrap("op", wl.run)

    def timed(op):
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = run(op, inprocess)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            return t0, time.perf_counter(), out

    def execute(op):
        if calibrator:
            factor, (t0, t1, out) = calibrator.around(lambda: timed(op), during=inprocess)
            wall = t1 - t0 - calibrator.kernel_seconds(t0, t1)
        else:
            factor, (t0, t1, out) = 1.0, timed(op)
            wall = t1 - t0
        if tracer:
            tracer.end_op()
        if not isinstance(out, BaseException):
            wl.collect(op, out)
        return wall * factor, out, wall

    return execute


def _cycles(wl, seconds: float, min_cycles: int, passes: dict, between=None):
    """Whole cycles until `seconds` passed and `min_cycles` ran. With two
    passes each op runs in both back to back, alternating which goes
    first, so both see the machine in the same state. ``between(c)`` runs
    before cycle c and after the last one, outside every op's timed region."""
    records = {label: [] for label in passes}
    start, c = time.perf_counter(), 0
    while c < min_cycles or time.perf_counter() - start < seconds:
        if between:
            between(c)
        for i, op in enumerate(wl.cycle(c)):
            order = list(passes.items())
            for label, execute in order[::-1] if (c + i) % 2 else order:
                records[label].append((op, *execute(op)))
        c += 1
    if between:
        between(c)
    return records, c


def _wall(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - t0, proc


def _setup_probe(args) -> float:
    """Wall time from starting a fresh process to its first timed op."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode} before its first op")
    return elapsed


def _startup() -> float:
    elapsed, proc = _wall([sys.executable, "-m", "ldpkit", "--version"])
    if proc.returncode != 0:
        raise RuntimeError(f"ldpkit --version exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed


def _import_times() -> tuple[float, float]:
    """Cumulative import time of ldpkit and of every top-level scipy import,
    from ``python -X importtime -c 'import ldpkit'``."""
    _, proc = _wall([sys.executable, "-X", "importtime", "-c", "import ldpkit"])
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            entries.append((len(m[2]), m[3], int(m[1]) / 1e6))
    ldpkit_s = next((s for depth, name, s in entries if name == "ldpkit"), 0.0)
    scipy_s, ancestors = 0.0, []
    for depth, name, s in reversed(entries):  # parents come before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and all(
            a.split(".")[0] != "scipy" for _, a in ancestors
        ):
            scipy_s += s
        ancestors.append((depth, name))
    return ldpkit_s, scipy_s


# --------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked from the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in info
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": _NPROC,
        "pinned_cpu": _CPUS[0],
        "cpu_model": cpu_model,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "commit": commit,
        "seed": seed,
        "uncontrolled": UNCONTROLLED,
    }


# --------------------------------------------------------------------------
# metrics


def _end_to_end(lat, percentile, setup_s, startup_s, rss_mb) -> tuple[dict, dict]:
    lat = sorted(lat)
    tail = min(len(lat) - 1, int(percentile * len(lat) / 100))
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[tail],
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
        "startup_p50_s": startup_s,
    }
    return values, {"percentile": percentile, "samples": len(lat),
                    "beyond": len(lat) - 1 - tail}


def _per_layer(spec, tracer: Tracer, extra: dict) -> tuple[dict, list]:
    ops = tracer.ops
    values = {
        "contraction.scan_bytes_computed": tracer.counts["scan_bytes"] / ops,
        "ldp.tightest_epsilon.scans_per_call":
            tracer.counts["tightest_scans"] / max(1.0, tracer.calls["ldp.tightest_epsilon"]),
        "oracle.grid_max.points": tracer.counts["grid_points"] / ops,
        **extra,
    }
    stats = {"calls": tracer.calls, "total_s": tracer.total, "self_s": tracer.own}
    not_applicable = []
    for entry in spec["per_layer"]:
        name = entry["name"]
        span, _, stat = name.rpartition(".")
        if name not in values:
            values[name] = stats[stat][span] / ops
        if {span, _COUNTER_SPANS.get(name)} & tracer.missing:
            values[name] = 0.0
            not_applicable.append(name)
    return values, not_applicable


def _metrics(entries, values) -> dict:
    return {e["name"]: {"value": float(values[e["name"]]), "unit": e["unit"]} for e in entries}


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ldpkit" / "__init__.py").is_file():
        print(f"error: no ldpkit sources at {SRC / 'ldpkit'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_probe:
            wl.setup()
            _executor(wl, inprocess=args.workload != "cli")(wl.cycle(0)[0])
            print("ready", flush=True)
            return 0
        return _run(args, spec, wl)
    finally:
        wl.close()


def _run(args, spec, wl) -> int:
    inprocess = args.workload != "cli" or bool(args.trace)
    wl.setup(inprocess)
    # Untimed warm-up. The traced run warms up a whole cycle, so that
    # first-call costs do not land on whichever pass runs first.
    warm_up = _executor(wl, inprocess)
    for op in wl.cycle(0)[: None if args.trace else 1]:
        warm_up(op)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        tracer = Tracer()
        passes = {"untraced": _executor(wl, inprocess), "traced": _executor(wl, inprocess, tracer)}
        records, cycles = _cycles(wl, args.seconds, 1, passes)
        plain = sum(r[1] for r in records["untraced"])
        traced = sum(r[1] for r in records["traced"])
        imports = [_import_times() for _ in range(IMPORT_SAMPLES)]
        extra = {
            "trace_overhead_frac": traced / plain - 1.0,
            "cli.python_startup_s": statistics.median(
                _wall([sys.executable, "-c", "pass"])[0] for _ in range(5)),
            "cli.import_ldpkit_s": statistics.median(s for s, _ in imports),
            "cli.import_scipy_s": statistics.median(s for _, s in imports),
        }
        values, report["not_applicable"] = _per_layer(spec, tracer, extra)
        metrics = _metrics(spec["per_layer"], values)
        report["ops_per_s"] = {"untraced": len(records["untraced"]) / plain,
                               "traced": len(records["traced"]) / traced}
    else:
        calibrator = Calibrator()
        for _ in range(5):  # warm the kernel's own first-call costs
            calibrator.sample()
        # Set-up and start-up are sampled at the start, middle and end of
        # the run, so that one slow stretch of the machine sways one
        # sample, not the median. Each probe is kept as (reference, wall).
        probes = {"setup": [], "startup": []}

        def probe(name, fn):
            factor, wall = calibrator.around(fn)
            probes[name].append((wall * factor, wall))

        def between(c):
            if c in (0, wl.min_cycles // 2, wl.min_cycles):
                probe("setup", lambda: _setup_probe(args))
                probe("startup", _startup)

        records, cycles = _cycles(wl, args.seconds, wl.min_cycles,
                                  {"untraced": _executor(wl, inprocess, calibrator=calibrator)},
                                  between)
        usage = resource.RUSAGE_SELF if inprocess else resource.RUSAGE_CHILDREN
        rss_mb = resource.getrusage(usage).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        measured = {}
        for i, unit in ((0, "reference"), (1, "wall")):
            measured[unit] = _end_to_end(
                [r[1 if unit == "reference" else 3] for r in records["untraced"]],
                wl.tail_percentile,
                statistics.median(p[i] for p in probes["setup"]),
                statistics.median(p[i] for p in probes["startup"]), rss_mb)
        values, report["op_tail"] = measured["reference"]
        metrics = _metrics(spec["end_to_end"], values)
        report["wall_seconds"] = measured["wall"][0]
        report["calibration"] = {
            "reference_s": REFERENCE_S,
            "kernel_median_s": calibrator.median(),
            "kernel_samples": len(calibrator.samples),
        }

    done = [r for rs in records.values() for r in rs]
    failures = [p for p in (checks.check(op, out) for op, _, out, _ in done) if p]
    unexpected = [p.message for probs in failures for p in probs if p.defect is None]
    failed = len(failures)
    defects = Counter()  # failed ops per known defect
    for probs in failures:
        tags = {p.defect for p in probs}
        if None not in tags:
            defects.update(tags)
    report.update(
        cycles=cycles,
        ops=len(done),
        failed_frac=failed / len(done),
        known_defects=dict(defects),
        unexpected=unexpected[:10],
        wait_time=WAIT_TIME,
        env=_environment(args.seed),
    )

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(done)} ops in "
          f"{cycles} cycles, closed loop with one client")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {report['failed_frac']:.6g} ratio "
          f"({failed} of {len(done)}; known defects {report['known_defects']})")
    if "op_tail" in report:
        t = report["op_tail"]
        print(f"  op_tail_s is p{t['percentile']} of {t['samples']} samples, "
              f"{t['beyond']} beyond it")
    for message in unexpected[:10]:
        print(f"  UNEXPECTED: {message}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": not unexpected, "attempted": len(done), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
