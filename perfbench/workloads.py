"""The benchmark's three workloads: op mixes generated from a seed, and
how one op runs.

A workload is a fixed cycle of op slots. Each slot fixes the op's kind
and size; the seed draws the contents (mechanism rows, privacy levels,
bound arguments). Fixing the sizes keeps the cost mix, and so the
metrics, the same from seed to seed, while every seed still feeds the
program different numbers. Runs execute whole cycles, so each run sees
the stated mix exactly.

ldpkit is called through module attributes (``ldp.delta_at``, not a
name imported once), so the traced run's rebinding reaches every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_ldpkit():
    """Import ldpkit from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ldpkit

    if Path(ldpkit.__file__).resolve().parent != SRC / "ldpkit":
        raise ImportError(f"ldpkit imported from {ldpkit.__file__}, not from {SRC}")
    return ldpkit


@dataclass
class Op:
    kind: str
    args: dict = field(default_factory=dict)


def _rng(seed: int, cycle: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle, slot])


def _audit_point(rng, rows) -> tuple[float, float]:
    """A seed-drawn (epsilon, delta), certified or not with equal odds,
    never within a factor 1.5 of the tight delta so the verdict is clear."""
    epsilon = float(rng.uniform(0.0, 3.0))
    tight = reference.delta(rows, epsilon)
    if rng.random() < 0.5 and tight > 1e-6:
        return epsilon, tight / 2.0
    return epsilon, min(1.0, 1.5 * tight + 1e-4)


def _krr_rows(eps0: float, k: int) -> np.ndarray:
    e0 = math.exp(eps0)
    rows = np.full((k, k), 1.0 / (k - 1 + e0))
    np.fill_diagonal(rows, e0 / (k - 1 + e0))
    return rows


def _mechanism(rng, shape: str, nx: int, nz: int) -> tuple[np.ndarray, float | None]:
    if shape == "krr":
        eps0 = float(rng.uniform(0.1, 3.0))
        return _krr_rows(eps0, nx), eps0
    if shape == "dirichlet":
        return rng.dirichlet(np.ones(nz), size=nx), None
    # sparse: each row is Dirichlet on its own random support
    rows = np.zeros((nx, nz))
    for row in rows:
        support = rng.choice(nz, size=int(rng.integers(nz // 4, nz // 2 + 1)), replace=False)
        row[support] = rng.dirichlet(np.ones(support.size))
    return rows, None


class Workload:
    """A cycle of op slots; subclasses set ``name``, ``min_cycles`` and
    ``tail_percentile``: a 5-point step that leaves at least ten samples
    above it at the minimum run length, away from the edge between two
    kinds of op of similar cost, and the same in every run, so runs
    compare like for like."""

    name = ""
    min_cycles = 1
    tail_percentile = 65

    def __init__(self, seed: int):
        self.seed = seed

    def collect(self, op: Op, out):
        """Gather what an op left behind, after its timed region."""

    def close(self):
        pass


# --------------------------------------------------------------------------
# audit

AUDIT_EPS_GRID = np.linspace(0.0, 3.0, 31)
AUDIT_TARGET_DELTA = 1e-6
VERIFIER_TRIALS = 1000

# Eight small mechanisms (per-call overhead and the sampled verifier
# dominate) and three large ones (the O(|X|^2 |Z|) scan dominates). Over
# four cycles the median op falls among the 32 small audits, whose costs
# run evenly from the cheapest to the dearest, and the p75 tail among the
# 12 large ones. |X| = 128 is left out: one audit takes about 37 s at the
# first benchmarked commit.
AUDIT_SLOTS = (
    ("small", "krr", 2, 2),  # binary randomized response
    ("small", "dirichlet", 2, 4),
    ("large", "krr", 32, 32),
    ("small", "krr", 3, 3),
    ("small", "dirichlet", 4, 8),
    ("large", "dirichlet", 32, 48),
    ("small", "krr", 5, 5),
    ("small", "dirichlet", 6, 6),
    ("large", "sparse", 36, 64),
    ("small", "krr", 8, 8),
    ("small", "dirichlet", 8, 3),
)


class Audit(Workload):
    """One op is a full in-process audit of one mechanism."""

    name = "audit"
    min_cycles = 4
    tail_percentile = 75  # 44 ops: 32 small, 12 large

    def setup(self, inprocess: bool = True):
        import_ldpkit()
        import ldpkit.contraction
        import ldpkit.kernel
        import ldpkit.ldp

        self.contraction, self.kernel, self.ldp = ldpkit.contraction, ldpkit.kernel, ldpkit.ldp

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for i, (size, shape, nx, nz) in enumerate(AUDIT_SLOTS):
            rng = _rng(self.seed, c, i)
            rows, eps0 = _mechanism(rng, shape, nx, nz)
            epsilon, delta = _audit_point(rng, rows)
            ops.append(
                Op(
                    f"audit.{size}.{shape}",
                    dict(
                        rows=rows,
                        eps0=eps0,
                        epsilon=epsilon,
                        delta=delta,
                        verifier_seed=int(rng.integers(2**31)),
                    ),
                )
            )
        return ops

    def run(self, op: Op, inprocess: bool = True) -> dict:
        a, ldp = op.args, self.ldp
        k = self.kernel.Kernel(a["rows"])
        profile = ldp.privacy_profile(k, AUDIT_EPS_GRID)
        search = ldp.tightest_epsilon(k, AUDIT_TARGET_DELTA)
        delta_inf = ldp.delta_at(k, math.inf)
        params = self.contraction.PrivacyParams(a["epsilon"], a["delta"])
        certified = ldp.is_ldp(k, params)
        report = ldp.verify_equivalence(k, params, VERIFIER_TRIALS, seed=a["verifier_seed"])
        return dict(
            profile=[d for _, d in profile.points],
            eps_star=search.epsilon,
            delta_inf=delta_inf,
            certified=certified,
            verifier_certified=report.certified,
            violation_found=report.violation_found,
        )


# --------------------------------------------------------------------------
# bayes

CURVE_DELTA = 1e-4
CURVE_POINTS = 60

# Figure-1 curves (per-point BU quadrature and two 1-d grid maxima) and
# gamma-optimized bounds (800 BU quadratures inside a 2000 x 800 grid).
# The odd slot count puts the median op in the middle of the n = 20
# curves and the p65 tail in the middle of the n = 2 gamma-optimized
# bounds, not on the edge between two kinds of op.
BAYES_SLOTS = (
    ("curve", 5),
    ("gamma-opt", 2),
    ("curve", 10),
    ("gamma-opt", 5),
    ("curve", 20),
    ("gamma-opt", 10),
    ("curve", 5),
)


class Bayes(Workload):
    """One op is one in-process risk-bound computation on the BU model."""

    name = "bayes"
    min_cycles = 5

    def setup(self, inprocess: bool = True):
        import_ldpkit()
        import ldpkit.bounds
        import ldpkit.contraction
        import ldpkit.info

        self.bounds, self.contraction, self.info = ldpkit.bounds, ldpkit.contraction, ldpkit.info

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for i, (kind, n) in enumerate(BAYES_SLOTS):
            args = dict(n=n)
            if kind == "curve":
                rng = _rng(self.seed, c, i)
                lo, hi = rng.uniform(0.01, 0.05), rng.uniform(2.9, 3.0)
                args["epsilons"] = np.linspace(lo, hi, CURVE_POINTS)
            ops.append(Op(f"bayes.{kind}", args))
        return ops

    def _config(self, info_value: float, n: int, params, **extra):
        return self.bounds.BayesConfig(
            small_ball=self.bounds.small_ball_uniform01,
            info_value=info_value,
            n=n,
            params=params,
            **extra,
        )

    def run(self, op: Op, inprocess: bool = True) -> dict:
        bounds, info = self.bounds, self.info
        n = op.args["n"]
        model = info.BernoulliUniformModel(n)
        if op.kind == "bayes.gamma-opt":
            cfg = self._config(
                0.0,
                n,
                self.contraction.PrivacyParams(0.0, 1.0),
                info_fn=lambda g: info.bu_igamma(model, g),
            )
            return dict(value=bounds.bayes_gamma_opt_lb(cfg).value)
        mi = info.bu_mutual_information(model)
        out = dict(mi=mi, igamma=[], bound_mi=[], bound_egamma=[])
        for eps in op.args["epsilons"]:
            params = self.contraction.PrivacyParams(float(eps), CURVE_DELTA)
            ig = info.bu_igamma(model, math.exp(eps))
            out["igamma"].append(ig)
            out["bound_mi"].append(bounds.bayes_xu_raginsky_private(self._config(mi, n, params)).value)
            out["bound_egamma"].append(bounds.bayes_egamma_lb(self._config(ig, n, params)).value)
        return out


# --------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)  # output path -> text, None if missing


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("LDPKIT_OUT_DIR", None)
    return env


def _write_rows_csv(path: Path, rows: np.ndarray):
    path.write_text("".join(",".join(repr(float(x)) for x in r) + "\n" for r in rows))


class Cli(Workload):
    """One op is one ``python -m ldpkit ...`` subprocess, run sequentially.

    The traced run calls ``ldpkit.cli.main`` in-process instead, with the
    same arguments and checks, to split the time by layer.
    """

    name = "cli"
    min_cycles = 2
    MALFORMED = ("malformed-token", "malformed-truncated", "malformed-array", "malformed-overflow")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli = None
        base = ROOT / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.tmp = base / f"{os.getpid()}-{seed}"
        self.tmp.mkdir(exist_ok=True)
        self.env = child_env()

    def setup(self, inprocess: bool = False):
        if inprocess:
            import_ldpkit()
            import ldpkit.cli

            self.cli = ldpkit.cli

    def cycle(self, c: int) -> list[Op]:
        d = self.tmp / f"c{c}"
        d.mkdir(exist_ok=True)
        rng = _rng(self.seed, c, 0)

        def u(lo, hi):
            return repr(float(rng.uniform(lo, hi)))

        def i(lo, hi):
            return str(int(rng.integers(lo, hi + 1)))

        small = rng.dirichlet(np.ones(5), size=4)
        (d / "small.json").write_text('{"rows": ' + repr(small.tolist()) + "}\n")
        eps0 = float(rng.uniform(0.1, 3.0))
        krr = _krr_rows(eps0, 6)
        _write_rows_csv(d / "krr.csv", krr)
        (d / "bad_token.csv").write_text("0.5,abc\n0.5,0.5\n")
        (d / "truncated.json").write_text('{"rows": [[0.5, 0.5], [0.2')
        (d / "array.json").write_text("[[0.5, 0.5], [0.2, 0.8]]\n")
        epsilon, delta = _audit_point(rng, small)
        eps, dlt = u(0.1, 3.0), u(0.0, 1e-3)
        privacy = ["--eps", eps, "--delta", dlt]
        ops = [
            Op("version", dict(argv=["--version"])),
            Op("remark", dict(argv=["remark", "--json"])),
            Op(
                "audit-certify",
                dict(
                    argv=["audit", str(d / "small.json"), "--epsilon", repr(epsilon),
                          "--delta", repr(delta), "--seed", i(0, 2**31 - 1)],
                    rows=small, epsilon=epsilon, delta=delta,
                ),
            ),
            Op(
                "audit-profile",
                dict(
                    argv=["audit", str(d / "krr.csv"), "--profile-grid", "0:3:31",
                          "--out", str(d / "profile.csv")],
                    rows=krr, eps0=eps0, csv=str(d / "profile.csv"),
                ),
            ),
            Op("bound-lecam", dict(argv=["bound", "lecam", "--tau", u(0.1, 1), "--kl", u(1e-3, 0.1),
                                         "--n", i(1, 100)] + privacy)),
            Op("bound-moment", dict(argv=["bound", "moment", "--k-moment", u(1.5, 4),
                                          "--n", i(1, 1000)] + privacy)),
            Op("bound-fano", dict(argv=["bound", "fano", "--v-count", i(4, 1000), "--avg-kl",
                                        u(1e-3, 0.05), "--tau", u(0.1, 1), "--n", i(1, 100)] + privacy)),
            Op("bound-highdim", dict(argv=["bound", "highdim", "--d", i(1, 1000), "--r", u(0.5, 2),
                                           "--n", i(1, 1000)] + privacy)),
            Op("bound-ht", dict(argv=["bound", "ht", "--kl", u(0.01, 1)] + privacy)),
            Op("bound-micap", dict(argv=["bound", "micap", "--entropy", u(0.1, 3)] + privacy)),
            Op(
                "bound-moment-sweep",
                dict(
                    argv=["bound", "moment", "--k-moment", u(1.5, 4), "--n", i(1, 1000)] + privacy
                    + ["--sweep", "epsilon", "0.1:3:30", "--out", str(d / "sweep.csv")],
                    csv=str(d / "sweep.csv"),
                ),
            ),
            Op("bound-bayes-egamma", dict(argv=["bound", "bayes-egamma", "--bu-n", "5"] + privacy)),
            Op(
                "figure1",
                dict(
                    argv=["figure1", "--n", "5", "--eps-grid", "0.01:3:10", "--out",
                          str(d / "figure1.csv")],
                    csv=str(d / "figure1.csv"),
                ),
            ),
            Op("malformed-token", dict(argv=["audit", str(d / "bad_token.csv"), "--epsilon", "1"])),
            Op("malformed-truncated", dict(argv=["audit", str(d / "truncated.json"), "--epsilon", "1"])),
            Op("malformed-array", dict(argv=["audit", str(d / "array.json"), "--epsilon", "1"])),
            Op("malformed-overflow", dict(argv=["audit", str(d / "small.json"), "--epsilon", "1e6"])),
        ]
        for op in ops:
            op.kind = "cli." + op.kind
        return ops

    def run(self, op: Op, inprocess: bool = False) -> CliResult:
        if inprocess:
            return self._run_inprocess(op.args["argv"])
        proc = subprocess.run(
            [sys.executable, "-m", "ldpkit", *op.args["argv"]],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def collect(self, op: Op, out: CliResult):
        if "csv" in op.args:
            for path in (Path(op.args["csv"]), Path(op.args["csv"] + ".manifest.json")):
                out.files[str(path)] = path.read_text() if path.exists() else None
                path.unlink(missing_ok=True)

    def _run_inprocess(self, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # what the interpreter would print before exiting with 1
                traceback.print_exc()
                code = 1
        return CliResult(code, out.getvalue(), err.getvalue())

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.parent.rmdir()


WORKLOADS = {w.name: w for w in (Audit, Bayes, Cli)}
