"""Command-line surface.

Subcommands: ``audit`` (exact privacy profiles and certification),
``figure1`` (the Bayes-bound comparison curve on the Bernoulli-uniform
model), ``bound`` (the individual bound calculators, with epsilon
sweeps), ``remark`` (the two non-private Bayes bounds side by side),
``model-curves`` (the Bernoulli-uniform model's information curves), and
``oracle`` (brute-force validation runs).

Grid flags become ``GridSpec``s as argv is read; a rejected argv is one ``error:`` line.
CSV output is comma-separated, LF-terminated, with a header row and 17
significant digits, so identical flags give byte-identical files. Every
command that writes a CSV also writes a ``<out>.manifest.json`` listing
the command, arguments (grids as their fields), seed, and outputs.
Relative output paths resolve against $LDPKIT_OUT_DIR when it is set.

Only the standard library, the package constants and ``errors`` load with
this module; every other ldpkit module, ``json`` and ``dataclasses`` are
imported inside the commands that call them, and an unset grid flag stays
None until its command fills in the default. The modules that compute with
arrays (dist, info, ldp, oracle) load after any kernel file is parsed, and
epsilon grids are read as ``GridSpec.values()``, whose linear grids are
computed without numpy. So ``--version``, ``--help`` and an argv rejected
before any grid flag load no other ldpkit module, the closed-form ``bound``
kinds (alone or with a linear ``--sweep``) no kernel module and no numpy, and
kernel text that is not rows or a refused ``audit`` epsilon or delta no numpy.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from itertools import product
from pathlib import Path

from . import DEFAULT_SEED, F_KIND_NAMES, __version__
from .errors import CapacityError, DimensionError, DomainError, count, in_unit_interval, within_cap

# Values the remark table is compared against; treated as approximate.
REMARK_REFERENCE_EGAMMA = 0.08
REMARK_REFERENCE_MI = 0.03

ENV_OUT_DIR = "LDPKIT_OUT_DIR"
# Largest --n-max of model-curves: the growth curve costs O(n_max^2), ~3 s at the cap.
MAX_CURVE_N = 10**4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.name:  # "" and "." name a directory
        raise DomainError(f"output path {path!r} names no file")
    base = os.environ.get(ENV_OUT_DIR)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def manifest_path(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def write_outputs(
    command: str, args: argparse.Namespace, path: str, header: list[str],
    rows: list[list[float]],
) -> dict:
    """Write the CSV to ``path``, then ``<path>.manifest.json``: what was
    run and what it emitted, with dataclass arguments (grids) written as
    their fields. Returns the paths for the command's JSON line."""
    out = resolve_out(path)
    write_csv(out, header, rows)
    record = {
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": [str(out)],
    }
    manifest = manifest_path(out)
    manifest.write_text(_json(record, indent=2) + "\n")
    return {"outputs": [str(out)], "manifest": str(manifest)}


def _written(flag: str, path: str) -> list[tuple[str, str, Path]]:
    """The CSV and manifest that write_outputs writes for ``flag``: (label, path as
    given, resolved path)."""
    out = resolve_out(path)
    return [(flag, path, out.resolve()),
            (f"the {flag} manifest", str(manifest_path(Path(path))), manifest_path(out).resolve())]


def _refuse_same_file(files_a, files_b) -> None:
    """One error line if a file of ``files_a`` is a file of ``files_b``, each a
    list of (label, path as given, resolved path) as ``_written`` gives."""
    for (name_a, _, a), (name_b, shown, b) in product(files_a, files_b):
        if a == b:
            raise DomainError(f"{name_a} and {name_b} are the same file: {shown}")


def parse_grid_spec(text: str) -> GridSpec:
    from .bounds import GridSpec

    parts = text.split(":")
    if len(parts) == 3:
        parts.append("linear")
    try:
        lo, hi, steps, scale = parts
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise DomainError(f"grid must look like lo:hi:steps[:scale], got {text!r}") from exc
    return GridSpec(lo, hi, steps, scale)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token of "-" and a number is a value, not a flag, so
        # --eps-grid -1:1:3 reaches the grid check as --eps-grid=-1:1:3 does.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # reported by main, as one error line with exit 1
        raise DomainError(message)


class _Grid(argparse.Action):
    """Stores a grid flag as a ``GridSpec``, and --sweep PARAM GRID as [PARAM, GridSpec]."""
    def __call__(self, parser, namespace, values, option_string=None):
        grid = parse_grid_spec(values[1] if self.nargs else values)
        setattr(namespace, self.dest, [values[0], grid] if self.nargs else grid)


def _json(payload, **kwargs) -> str:
    """JSON with sorted keys; dataclasses (reports, grids) are written as their fields."""
    import dataclasses
    import json

    return json.dumps(payload, sort_keys=True, default=dataclasses.asdict, **kwargs)


def _print_json(payload) -> None:
    print(_json(payload))


# --------------------------------------------------------------------------
# audit


def cmd_audit(args: argparse.Namespace) -> int:
    from .contraction import PrivacyParams, gamma_from_epsilon, two_point_scan
    from .kernel import load_kernel

    # Checked in this order, the file after epsilon and delta as those need no
    # numpy, then one scan serves all: gamma = e^epsilon, 1, the grid. --delta
    # without --epsilon asks for epsilon*, which tightest_epsilon's scans find.
    if args.out is not None and args.profile_grid is None:
        raise DomainError("--out requires --profile-grid")
    head = [] if args.epsilon is None else [gamma_from_epsilon(args.epsilon), 1.0]
    params = None
    if args.delta is not None:
        in_unit_interval("delta", args.delta)
        if args.epsilon is not None:
            params = PrivacyParams(args.epsilon, args.delta)
    if args.out is not None:  # the profile may not overwrite the kernel it was read from
        kernel_file = ("the kernel file", args.kernel, Path(args.kernel).resolve())
        _refuse_same_file(_written("--out", args.out), [kernel_file])
    kernel = load_kernel(args.kernel)
    report: dict = {
        "kernel": str(args.kernel),
        "input_size": kernel.input_size,
        "output_size": kernel.output_size,
    }

    from .ldp import PrivacyProfile, tightest_epsilon, verify_from_scan
    from .oracle import SearchConfig

    cfg = SearchConfig(args.seed, args.trials)  # checked even when no --delta runs the verifier
    eps = () if args.profile_grid is None else args.profile_grid.values()
    gammas = head + [gamma_from_epsilon(e) for e in eps]
    values, pairs = two_point_scan(kernel, gammas) if gammas else ([], [])
    if args.epsilon is not None:
        report.update(epsilon=args.epsilon, delta_tight=values[0], eta_tv=values[1],
                      argmax_pair=list(pairs[0]))
        if params is not None:
            verifier = verify_from_scan(kernel, params, values[0], pairs[0], cfg)
            report["delta_requested"] = args.delta
            report["certified"] = verifier.certified
            report["verifier"] = {
                "trials": verifier.trials,
                "max_ratio": verifier.max_ratio,
                "violation_found": verifier.violation_found,
            }
    elif args.delta is not None:
        search = tightest_epsilon(kernel, args.delta)
        report.update(delta_requested=args.delta, epsilon_star=search.epsilon,
                      delta_achieved=search.delta_achieved)

    if args.profile_grid is not None:
        points = PrivacyProfile(tuple(zip(eps, values[len(head):]))).points
        report["profile"] = points
        if args.out is not None:
            report.update(write_outputs("audit", args, args.out, ["epsilon", "delta"], points))
    _print_json(report)
    return 0 if report.get("certified", True) else 2


# --------------------------------------------------------------------------
# figure1


def cmd_figure1(args: argparse.Namespace) -> int:
    from .bounds import DEFAULT_ZETA_GRID, GridSpec
    from .contraction import PrivacyParams

    # Per epsilon, the two private Bayes-risk lower bounds at
    # (epsilon, delta) from n observations of the Bernoulli-uniform model.
    if args.eps_grid is None:
        args.eps_grid = GridSpec(0.01, 3.0, 60)
    params = [PrivacyParams(eps, args.delta) for eps in args.eps_grid.values()]
    mi_reports = bayes_reports(True, None, args.n, args.panels, args.n, DEFAULT_ZETA_GRID, params)
    eg_reports = bayes_reports(False, None, args.n, args.panels, args.n, DEFAULT_ZETA_GRID, params)
    rows = [[p.epsilon, m.value, e.value] for p, m, e in zip(params, mi_reports, eg_reports)]
    header = ["epsilon", "bayes_lb_mi", "bayes_lb_egamma"]
    mi = mi_reports[0].inputs["info_value"]
    summary = {"n": args.n, "delta": args.delta, "panels": args.panels, "mutual_information": mi}
    written = write_outputs("figure1", args, args.out, header, rows)
    _print_json({**summary, "rows": len(rows), **written})
    return 0


# --------------------------------------------------------------------------
# bound
#
# Each subcommand's reports(bounds, args, params) gives one BoundReport per
# entry of the list params: one entry for a single run, one per epsilon for
# a sweep, so epsilon-independent work is done once. Calculators are read
# from the module ldpkit.bounds at call time, and the informations from
# ldpkit.info, so rebinding one there (as a tracer does) reaches every
# subcommand.


def bu_model(n: int, panels: int):
    """The Bernoulli-uniform model of n draws, then the check of the no-op
    --panels or --bu-panels value (the former Simpson panel count)."""
    from .info import BernoulliUniformModel

    model = BernoulliUniformModel(n)
    if not (panels >= 2 and panels % 2 == 0):
        raise DomainError(f"panels must be even and >= 2, got {panels}")
    return model


def _with_bu_model(report: BoundReport, record: dict, flags: tuple = ()) -> BoundReport:
    import dataclasses

    return dataclasses.replace(
        report, inputs={**report.inputs, "bu_model": record}, flags=report.flags + flags
    )


def bayes_reports(
    mi: bool, info: float | None, bu_n: int, bu_panels: int, n: int, zeta_grid: GridSpec,
    params: list[PrivacyParams],
) -> list[BoundReport]:
    """The mutual-information (mi) or hockey-stick Bayes-risk lower bound
    at each of ``params``. The Bernoulli-uniform model (bu_n, bu_panels)
    is validated on every call; with info None the information comes from
    it, and the reports record it: the mutual information is computed
    once, and I_gamma in one call over every gamma = e^epsilon. That
    information is for bu_n draws and is contracted with the coefficient
    for n, so a report where the two differ is flagged."""
    from . import bounds
    from .contraction import gamma_from_epsilon
    from .info import bu_igamma, bu_mutual_information

    model = bu_model(bu_n, bu_panels)
    infos = [info] * len(params)
    if info is None:
        if mi:
            infos = [bu_mutual_information(model)] * len(params)
        else:
            infos = bu_igamma(model, [gamma_from_epsilon(p.epsilon) for p in params]).tolist()
    calculator = bounds.bayes_xu_raginsky_private if mi else bounds.bayes_egamma_lb
    reports = [
        calculator(bounds.BayesConfig(bounds.small_ball_uniform01, value, n, p, zeta_grid))
        for value, p in zip(infos, params)
    ]
    if info is None:
        flags = ("n-differs-from-bu-n",) if n != bu_n else ()
        reports = [_with_bu_model(r, {"n": bu_n, "panels": bu_panels}, flags) for r in reports]
    return reports


# required numeric flags
_FLOAT = {"type": float, "required": True}
_INT = {"type": int, "required": True}
_N = {"--n": {"type": int, "default": 1}}
_PANELS_HELP = "former quadrature panel count, no effect (even, >= 2)"
_BAYES_FLAGS = {
    "--info": {"type": float, "default": None, "help": "information value in nats"},
    "--bu-n": {"type": int, "default": 1, "help": "Bernoulli-uniform sample size"},
    "--bu-panels": {"type": int, "default": 20000, "help": _PANELS_HELP},
    "--n": {**_N["--n"], "help": "sample size n of the contraction coefficient; without "
            "--info, a value other than --bu-n is flagged n-differs-from-bu-n"},
    "--zeta-grid": {"action": _Grid},
}
# Taken by every subcommand in BOUNDS, after its own flags.
_PRIVACY_AND_SWEEP_FLAGS = {
    "--eps": {"type": float, "required": True, "help": "privacy level epsilon"},
    "--delta": {"type": float, "default": 0.0, "help": "privacy slack delta"},
    "--sweep": {"nargs": 2, "metavar": ("PARAM", "GRID"), "action": _Grid,
                "help": "sweep a parameter over lo:hi:steps (only epsilon)"},
    "--out": {"default": None, "help": "CSV path for sweep output"},
}

# subcommand -> (help, its own flags as name -> add_argument keywords,
# reports(ldpkit.bounds, args, params) -> one BoundReport per params entry)
BOUNDS = {
    "lecam": (
        "two-point minimax bound",
        {"--tau": _FLOAT, "--kl": _FLOAT, **_N},
        lambda b, a, ps: [b.lecam_private(a.tau, a.kl, a.n, p) for p in ps],
    ),
    "moment": (
        "k-th moment mean-estimation bound",
        {"--k-moment": _FLOAT, **_N},
        lambda b, a, ps: [b.moment_estimation_lb(a.k_moment, a.n, p) for p in ps],
    ),
    "fano": (
        "multi-way testing bound",
        {"--v-count": _INT, "--avg-kl": _FLOAT, "--tau": _FLOAT, **_N,
         "--mi": {"type": float, "default": None, "help": "direct I(X^n; V) in nats"}},
        lambda b, a, ps: [b.fano_lb(a.v_count, a.avg_kl, a.tau, a.n, p, mi_xn_v=a.mi) for p in ps],
    ),
    "highdim": (
        "l2-ball mean-estimation bound",
        {"--d": _INT, "--r": _FLOAT, **_N},
        lambda b, a, ps: [b.highdim_mean_lb(a.d, a.r, a.n, p) for p in ps],
    ),
    "bayes-mi": (
        "Bayes-risk lower bound",
        _BAYES_FLAGS,
        lambda b, a, ps: bayes_reports(True, a.info, a.bu_n, a.bu_panels, a.n, a.zeta_grid, ps),
    ),
    "bayes-egamma": (
        "Bayes-risk lower bound",
        _BAYES_FLAGS,
        lambda b, a, ps: bayes_reports(False, a.info, a.bu_n, a.bu_panels, a.n, a.zeta_grid, ps),
    ),
    "ht": (
        "hypothesis-testing error exponent cap",
        {"--kl": _FLOAT},
        lambda b, a, ps: [b.ht_exponent(a.kl, p) for p in ps],
    ),
    "micap": (
        "mutual-information cap",
        {"--entropy": _FLOAT},
        lambda b, a, ps: [b.mi_cap(a.entropy, p) for p in ps],
    ),
}


def cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds
    from .contraction import PrivacyParams

    _, _, reports = BOUNDS[args.bound_kind]
    if "zeta_grid" in vars(args) and args.zeta_grid is None:  # a bayes kind's default
        args.zeta_grid = bounds.DEFAULT_ZETA_GRID
    # A sweep takes each epsilon from its grid, but --eps is still checked.
    params = PrivacyParams(args.eps, args.delta)
    if args.sweep is None:
        if args.out is not None:
            raise DomainError("--out requires --sweep")
        _print_json(reports(bounds, args, [params])[0])
        return 0
    what, grid = args.sweep
    if what != "epsilon":
        raise DomainError(f"only epsilon sweeps are supported, got {what!r}")
    if not args.out:
        raise DomainError("--sweep requires --out for the CSV curve")
    params = [PrivacyParams(e, args.delta) for e in grid.values()]
    results = reports(bounds, args, params)
    witness_keys = sorted(results[0].witness)
    header = ["epsilon", "value"] + [f"witness_{k}" for k in witness_keys]
    rows = [
        [p.epsilon, r.value] + [float(r.witness[k]) for k in witness_keys]
        for p, r in zip(params, results)
    ]
    command = f"bound {args.bound_kind}"
    _print_json({"rows": len(rows), **write_outputs(command, args, args.out, header, rows)})
    return 0


def gamma_opt_report(model, zeta_grid=None, gamma_grid=None):
    """The gamma-optimized non-private Bayes bound of a Bernoulli-uniform model, on
    the default grid where a grid is None."""
    from . import bounds
    from .contraction import PrivacyParams
    from .info import bu_igamma

    cfg = bounds.BayesConfig(
        bounds.small_ball_uniform01, 0.0, model.n, PrivacyParams(0.0, 1.0),
        zeta_grid or bounds.DEFAULT_ZETA_GRID, gamma_grid or bounds.DEFAULT_GAMMA_GRID,
        partial(bu_igamma, model),
    )
    return bounds.bayes_gamma_opt_lb(cfg)


def cmd_gammaopt(args: argparse.Namespace) -> int:
    model = bu_model(args.bu_n, args.bu_panels)
    report = gamma_opt_report(model, args.zeta_grid, args.gamma_grid)
    _print_json(_with_bu_model(report, {"n": args.bu_n, "panels": args.bu_panels}))
    return 0


# --------------------------------------------------------------------------
# remark


def cmd_remark(args: argparse.Namespace) -> int:
    from .bounds import LN2, BayesConfig, bayes_xu_raginsky_private, small_ball_uniform01
    from .contraction import PrivacyParams
    from .info import BernoulliUniformModel, bu_mutual_information

    # The two non-private bounds of the Bernoulli-uniform model at n = 1.
    model = BernoulliUniformModel(1)
    mi = bu_mutual_information(model)
    mi_report = bayes_xu_raginsky_private(
        BayesConfig(small_ball_uniform01, info_value=mi, n=1, params=PrivacyParams(0.0, 1.0))
    )
    eg_report = gamma_opt_report(model)
    payload = {
        "model": "uniform prior on [0,1], one Bernoulli observation, absolute loss",
        "mutual_information_nats": mi,
        "bayes_lb_egamma": eg_report,
        "bayes_lb_mi": mi_report,
        "reference_egamma": REMARK_REFERENCE_EGAMMA,
        "reference_mi": REMARK_REFERENCE_MI,
        "ordering_holds": eg_report.value > mi_report.value,
    }
    if args.json:
        _print_json(payload)
        return 0
    unit = "bits" if args.bits else "nats"
    shown_mi = mi / LN2 if args.bits else mi
    print("Bayes-risk lower bounds, uniform-Bernoulli model (n = 1, L(z) = min(2z, 1))")
    print(f"  I(Theta; X) = {shown_mi:.6f} {unit}")
    print(f"  {'bound':<18}{'value':>12}  {'witness':<34}{'reference':>10}")
    wz = eg_report.witness
    print(
        f"  {'gamma-optimized':<18}{eg_report.value:>12.6f}  "
        f"{'zeta=%.5f gamma=%.5f' % (wz['zeta'], wz['gamma']):<34}"
        f"{REMARK_REFERENCE_EGAMMA:>10.3f}"
    )
    print(
        f"  {'mutual-info':<18}{mi_report.value:>12.6f}  "
        f"{'zeta=%.5f' % mi_report.witness['zeta']:<34}{REMARK_REFERENCE_MI:>10.3f}"
    )
    print(f"  ordering (gamma-optimized > mutual-info): {payload['ordering_holds']}")
    return 0


# --------------------------------------------------------------------------
# model-curves


def cmd_model_curves(args: argparse.Namespace) -> int:
    from .bounds import GridSpec
    from .info import BernoulliUniformModel, bu_igamma, bu_mutual_information, check_bu_igamma_work

    # I_gamma over the gamma grid at sample size n, and I(Theta; X^m) for m = 1..n_max.
    # The paths and both sizes are checked first, so a bad one is refused before any work:
    # no file of one curve (its CSV or manifest) may be a file of the other.
    _refuse_same_file(_written("--igamma-out", args.igamma_out), _written("--mi-out", args.mi_out))
    model = BernoulliUniformModel(args.n)
    within_cap("n-max", count("n-max", args.n_max, 1), MAX_CURVE_N)
    if args.gamma_grid is None:
        args.gamma_grid = GridSpec(0.0, float(args.n + 1), 121)
    check_bu_igamma_work(model, args.gamma_grid.steps)
    gammas = args.gamma_grid.points()
    rows = [[float(g), float(ig)] for g, ig in zip(gammas, bu_igamma(model, gammas))]
    igamma = write_outputs("model-curves", args, args.igamma_out, ["gamma", "igamma"], rows)
    rows = [
        [float(m), bu_mutual_information(BernoulliUniformModel(m))]
        for m in range(1, args.n_max + 1)
    ]
    mi = write_outputs("model-curves", args, args.mi_out, ["n", "mutual_information"], rows)
    _print_json({"outputs": igamma["outputs"] + mi["outputs"],
                 "manifests": [igamma["manifest"], mi["manifest"]]})
    return 0


# --------------------------------------------------------------------------
# oracle


def cmd_oracle_eta_f(args: argparse.Namespace) -> int:
    from .kernel import load_kernel

    kernel = load_kernel(args.kernel)
    from .dist import FGenerator
    from .oracle import SearchConfig, brute_eta_f

    f = FGenerator(args.f, args.gamma)
    cfg = SearchConfig(
        seed=args.seed,
        trials=args.trials,
        include_point_masses=not args.no_point_masses,
        dirichlet_alpha=args.alpha,
    )
    estimate = brute_eta_f(kernel, f, cfg)
    _print_json(
        {
            "kernel": str(args.kernel),
            "f": args.f,
            "gamma": args.gamma,
            "trials": args.trials,
            "seed": args.seed,
            "eta_estimate": estimate,
        }
    )
    return 0


def cmd_oracle_profile_check(args: argparse.Namespace) -> int:
    import dataclasses

    from .kernel import load_kernel

    kernel = load_kernel(args.kernel)
    from .ldp import delta_at
    from .oracle import brute_profile_check

    payload = dataclasses.asdict(brute_profile_check(kernel, args.epsilon))
    payload["kernel"] = str(args.kernel)
    payload["delta_formula"] = delta_at(kernel, args.epsilon)
    _print_json(payload)
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ldpkit",
        description="Hockey-stick divergence toolkit: LDP auditing and risk bounds",
    )
    parser.add_argument("--version", action="version", version=f"ldpkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="exact (epsilon, delta)-LDP audit of a kernel file")
    p.add_argument("kernel", help="kernel file (JSON rows object or CSV)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--profile-grid", action=_Grid, help="epsilon grid lo:hi:steps")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", default=None, help="CSV path for the profile")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("figure1", help="Bayes-bound comparison curve (Bernoulli-uniform model)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--eps-grid", action=_Grid)
    p.add_argument("--panels", type=int, default=20000, help=_PANELS_HELP)
    p.add_argument("--out", default="figure1.csv")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("bound", help="individual bound calculators")
    bsub = p.add_subparsers(dest="bound_kind", required=True)
    for kind, (help_text, flags, _) in BOUNDS.items():
        q = bsub.add_parser(kind, help=help_text)
        for flag, options in {**flags, **_PRIVACY_AND_SWEEP_FLAGS}.items():
            q.add_argument(flag, **options)
        q.set_defaults(func=cmd_bound)

    q = bsub.add_parser("bayes-gammaopt", help="gamma-optimized non-private Bayes bound")
    for flag in ("--bu-n", "--bu-panels", "--zeta-grid"):
        q.add_argument(flag, **_BAYES_FLAGS[flag])
    q.add_argument("--gamma-grid", action=_Grid)
    q.set_defaults(func=cmd_gammaopt)

    p = sub.add_parser("remark", help="side-by-side non-private Bayes bounds")
    p.add_argument("--json", action="store_true")
    p.add_argument("--bits", action="store_true", help="display information in bits")
    p.set_defaults(func=cmd_remark)

    p = sub.add_parser("model-curves", help="Bernoulli-uniform information curves")
    p.add_argument("--n", type=int, default=5, help="sample size for the gamma curve")
    p.add_argument("--gamma-grid", action=_Grid, help="lo:hi:steps[:scale], default 0:n+1:121")
    p.add_argument("--n-max", type=int, default=12, help="range of the growth curve")
    p.add_argument("--igamma-out", default="bu_igamma_curve.csv")
    p.add_argument("--mi-out", default="bu_mi_curve.csv")
    p.set_defaults(func=cmd_model_curves)

    p = sub.add_parser("oracle", help="brute-force validation runs")
    osub = p.add_subparsers(dest="oracle_kind", required=True)

    q = osub.add_parser("eta-f", help="sampled contraction-ratio search")
    q.add_argument("kernel")
    q.add_argument("--f", choices=list(F_KIND_NAMES), required=True)
    q.add_argument("--gamma", type=float, default=None)
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--alpha", type=float, default=1.0)
    q.add_argument("--no-point-masses", action="store_true")
    q.set_defaults(func=cmd_oracle_eta_f)

    q = osub.add_parser("profile-check", help="exhaustive raw-definition privacy check")
    q.add_argument("kernel")
    q.add_argument("--epsilon", type=float, required=True)
    q.set_defaults(func=cmd_oracle_profile_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DomainError, DimensionError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc.args[-1]}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
