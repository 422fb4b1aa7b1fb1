"""Command-line surface.

Subcommands: ``audit`` (exact privacy profiles and certification),
``figure1`` (the Bayes-bound comparison curve on the Bernoulli-uniform
model), ``bound`` (the individual bound calculators, with epsilon
sweeps), ``remark`` (the two non-private Bayes bounds side by side), and
``oracle`` (brute-force validation runs).

CSV output is comma-separated, LF-terminated, with a header row and 17
significant digits, so identical flags give byte-identical files. Every
command that writes files also writes a ``<out>.manifest.json`` listing
the command, arguments, seed, and outputs. Relative output paths resolve
against $LDPKIT_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_ZETA_GRID,
    BayesConfig,
    BoundReport,
    FanoConfig,
    GridSpec,
    LeCamConfig,
    bayes_egamma_lb,
    bayes_gamma_opt_lb,
    bayes_xu_raginsky_private,
    fano_lb,
    highdim_mean_lb,
    ht_exponent,
    lecam_private,
    mi_cap,
    moment_estimation_lb,
    small_ball_uniform01,
)
from .contraction import PrivacyParams, eta_gamma_two_point, gamma_from_epsilon
from .dist import FGenerator
from .errors import CapacityError, DimensionError, DomainError
from .info import BernoulliUniformModel, bu_igamma, bu_igamma_closed_n1, bu_mutual_information
from .kernel import load_kernel
from .ldp import DEFAULT_SEED, delta_at, privacy_profile, verify_equivalence
from .oracle import SearchConfig, brute_eta_f, brute_profile_check

LN2 = math.log(2.0)

# Values the remark table is compared against; treated as approximate.
REMARK_REFERENCE_EGAMMA = 0.08
REMARK_REFERENCE_MI = 0.03

ENV_OUT_DIR = "LDPKIT_OUT_DIR"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(ENV_OUT_DIR)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """What was run and what it emitted; written after all outputs."""

    command: str
    args: dict
    seed: int | None
    tool_version: str
    outputs: list[str]

    def write(self, primary_output: Path) -> Path:
        path = primary_output.with_name(primary_output.name + ".manifest.json")
        path.write_text(json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n")
        return path


def _emit_manifest(command: str, args: argparse.Namespace, outputs: list[Path]) -> Path:
    payload = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k != "func"
    }
    manifest = RunManifest(
        command=command,
        args=payload,
        seed=getattr(args, "seed", None),
        tool_version=__version__,
        outputs=[str(p) for p in outputs],
    )
    return manifest.write(outputs[0])


def parse_linear_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise DomainError(f"grid must look like lo:hi:steps, got {text!r}") from exc
    if steps < 1:
        raise DomainError(f"grid needs at least 1 step, got {steps}")
    if steps == 1:
        return np.array([lo])
    if not lo < hi:
        raise DomainError(f"grid requires lo < hi, got {text!r}")
    return np.linspace(lo, hi, steps)


def parse_grid_spec(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) == 3:
        parts.append("linear")
    if len(parts) != 4:
        raise DomainError(f"grid must look like lo:hi:steps[:scale], got {text!r}")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]), parts[3])


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# --------------------------------------------------------------------------
# audit


def cmd_audit(args: argparse.Namespace) -> int:
    if args.delta is not None and args.epsilon is None:
        raise DomainError("--delta requires --epsilon")
    kernel = load_kernel(args.kernel)
    report: dict = {
        "kernel": str(args.kernel),
        "input_size": kernel.input_size,
        "output_size": kernel.output_size,
    }
    outputs: list[Path] = []
    exit_code = 0

    if args.epsilon is not None:
        two_point = eta_gamma_two_point(kernel, gamma_from_epsilon(args.epsilon))
        report["epsilon"] = args.epsilon
        report["delta_tight"] = two_point.eta_gamma
        report["eta_tv"] = two_point.eta_tv
        report["argmax_pair"] = list(two_point.argmax_pair)
        if args.delta is not None:
            verifier = verify_equivalence(
                kernel, PrivacyParams(args.epsilon, args.delta), args.trials, seed=args.seed
            )
            certified = verifier.certified
            report["delta_requested"] = args.delta
            report["certified"] = certified
            report["verifier"] = {
                "trials": verifier.trials,
                "max_ratio": verifier.max_ratio,
                "violation_found": verifier.violation_found,
            }
            exit_code = 0 if certified else 2

    if args.profile_grid is not None:
        grid = parse_linear_grid(args.profile_grid)
        points = [[e, d] for e, d in privacy_profile(kernel, grid).points]
        report["profile"] = points
        if args.out:
            out = resolve_out(args.out)
            write_csv(out, ["epsilon", "delta"], points)
            outputs.append(out)

    if outputs:
        manifest = _emit_manifest("audit", args, outputs)
        report["outputs"] = [str(p) for p in outputs]
        report["manifest"] = str(manifest)
    _print_json(report)
    return exit_code


# --------------------------------------------------------------------------
# figure1


def figure1_curve(model: BernoulliUniformModel, delta: float, epsilons) -> tuple[float, list]:
    """I(Theta; X^n) of the model, and per epsilon the row (epsilon,
    mutual-information bound, hockey-stick bound): the two private
    Bayes-risk lower bounds at (epsilon, delta) from n observations."""
    mi = bu_mutual_information(model)
    rows = []
    for eps in map(float, epsilons):
        params = PrivacyParams(eps, delta)
        mi_bound = bayes_xu_raginsky_private(
            BayesConfig(small_ball_uniform01, info_value=mi, n=model.n, params=params)
        )
        ig = bu_igamma(model, gamma_from_epsilon(eps))
        eg_bound = bayes_egamma_lb(
            BayesConfig(small_ball_uniform01, info_value=ig, n=model.n, params=params)
        )
        rows.append([eps, mi_bound.value, eg_bound.value])
    return mi, rows


def cmd_figure1(args: argparse.Namespace) -> int:
    model = BernoulliUniformModel(args.n, args.panels)
    mi, rows = figure1_curve(model, args.delta, parse_linear_grid(args.eps_grid))
    out = resolve_out(args.out)
    write_csv(out, ["epsilon", "bayes_lb_mi", "bayes_lb_egamma"], rows)
    manifest = _emit_manifest("figure1", args, [out])
    _print_json(
        {
            "n": args.n,
            "delta": args.delta,
            "panels": args.panels,
            "mutual_information": mi,
            "rows": len(rows),
            "outputs": [str(out)],
            "manifest": str(manifest),
        }
    )
    return 0


# --------------------------------------------------------------------------
# bound
#
# The report functions name the calculators they call, so each is looked
# up in this module's globals at call time: rebinding a calculator here
# (as a tracer does) reaches every subcommand and shared function.


def _with_bu_model(report: BoundReport, bu_model: dict) -> BoundReport:
    return dataclasses.replace(report, inputs={**report.inputs, "bu_model": bu_model})


def _bayes_report(mi: bool):
    """``bayes-mi`` (mi) or ``bayes-egamma``. Without --info the information
    comes from the Bernoulli-uniform model, and the report records it."""

    def report(args: argparse.Namespace, params: PrivacyParams) -> BoundReport:
        info = args.info
        if info is None:
            model = BernoulliUniformModel(args.bu_n, args.bu_panels)
            if mi:
                info = bu_mutual_information(model)
            else:
                info = bu_igamma(model, gamma_from_epsilon(params.epsilon))
        calculator = bayes_xu_raginsky_private if mi else bayes_egamma_lb
        result = calculator(
            BayesConfig(small_ball_uniform01, info, args.n, params, zeta_grid=args.zeta_grid)
        )
        if args.info is None:
            result = _with_bu_model(result, {"n": args.bu_n, "panels": args.bu_panels})
        return result

    return report


def _value_report(name: str, flag: str, key: str):
    """Report of the calculator ``name(x, params) -> float`` at x = args.<flag>."""

    def report(args: argparse.Namespace, params: PrivacyParams) -> BoundReport:
        x = getattr(args, flag)
        value = globals()[name](x, params)
        inputs = {key: x, "epsilon": params.epsilon, "delta": params.delta}
        return BoundReport(bound_name=name, value=value, inputs=inputs)

    return report


# required numeric flags
_FLOAT = {"type": float, "required": True}
_INT = {"type": int, "required": True}
_N = {"--n": {"type": int, "default": 1}}
_BAYES_FLAGS = {
    "--info": {"type": float, "default": None, "help": "information value in nats"},
    "--bu-n": {"type": int, "default": 1, "help": "Bernoulli-uniform sample size"},
    "--bu-panels": {"type": int, "default": 20000},
    **_N,
    "--zeta-grid": {"type": parse_grid_spec, "default": DEFAULT_ZETA_GRID},
}
# Taken by every subcommand in BOUNDS, after its own flags.
_PRIVACY_AND_SWEEP_FLAGS = {
    "--eps": {"type": float, "required": True, "help": "privacy level epsilon"},
    "--delta": {"type": float, "default": 0.0, "help": "privacy slack delta"},
    "--sweep": {"nargs": 2, "metavar": ("PARAM", "GRID"), "default": None,
                "help": "sweep a parameter over lo:hi:steps (only epsilon)"},
    "--out": {"default": None, "help": "CSV path for sweep output"},
}

# subcommand -> (help, its own flags as name -> add_argument keywords,
# report(args, params) -> BoundReport)
BOUNDS = {
    "lecam": (
        "two-point minimax bound",
        {"--tau": _FLOAT, "--kl": _FLOAT, **_N},
        lambda a, p: lecam_private(LeCamConfig(a.tau, a.kl, a.n, p)),
    ),
    "moment": (
        "k-th moment mean-estimation bound",
        {"--k-moment": _FLOAT, **_N},
        lambda a, p: moment_estimation_lb(a.k_moment, a.n, p),
    ),
    "fano": (
        "multi-way testing bound",
        {"--v-count": _INT, "--avg-kl": _FLOAT, "--tau": _FLOAT, **_N,
         "--mi": {"type": float, "default": None, "help": "direct I(X^n; V) in nats"}},
        lambda a, p: fano_lb(FanoConfig(a.v_count, a.avg_kl, a.tau, a.n, p, mi_xn_v=a.mi)),
    ),
    "highdim": (
        "l2-ball mean-estimation bound",
        {"--d": _INT, "--r": _FLOAT, **_N},
        lambda a, p: highdim_mean_lb(a.d, a.r, a.n, p),
    ),
    "bayes-mi": ("Bayes-risk lower bound", _BAYES_FLAGS, _bayes_report(mi=True)),
    "bayes-egamma": ("Bayes-risk lower bound", _BAYES_FLAGS, _bayes_report(mi=False)),
    "ht": (
        "hypothesis-testing error exponent cap",
        {"--kl": _FLOAT},
        _value_report("ht_exponent", "kl", "kl_p0_p1"),
    ),
    "micap": (
        "mutual-information cap",
        {"--entropy": _FLOAT},
        _value_report("mi_cap", "entropy", "entropy"),
    ),
}


def cmd_bound(args: argparse.Namespace) -> int:
    _, _, report = BOUNDS[args.bound_kind]
    if args.sweep is None:
        _print_json(report(args, PrivacyParams(args.eps, args.delta)).to_dict())
        return 0
    what, grid_text = args.sweep
    if what != "epsilon":
        raise DomainError(f"only epsilon sweeps are supported, got {what!r}")
    if not args.out:
        raise DomainError("--sweep requires --out for the CSV curve")
    grid = parse_linear_grid(grid_text)
    reports = [report(args, PrivacyParams(float(e), args.delta)) for e in grid]
    witness_keys = sorted(reports[0].witness)
    header = ["epsilon", "value"] + [f"witness_{k}" for k in witness_keys]
    rows = [
        [float(e), r.value] + [float(r.witness[k]) for k in witness_keys]
        for e, r in zip(grid, reports)
    ]
    out = resolve_out(args.out)
    write_csv(out, header, rows)
    manifest = _emit_manifest(f"bound {args.bound_kind}", args, [out])
    _print_json({"rows": len(rows), "outputs": [str(out)], "manifest": str(manifest)})
    return 0


def gamma_opt_report(
    n: int, panels: int | None, zeta_grid=DEFAULT_ZETA_GRID, gamma_grid=DEFAULT_GAMMA_GRID
) -> tuple[BoundReport, dict]:
    """The gamma-optimized non-private Bayes bound of the Bernoulli-uniform
    model with n observations, and the record of the model it used.

    I_gamma is the exact closed form at n = 1 (``panels`` unused) and
    composite Simpson on ``panels`` panels otherwise.
    """
    if n == 1:
        info_fn, bu_model = bu_igamma_closed_n1, {"n": n}
    else:
        model = BernoulliUniformModel(n, panels)
        info_fn, bu_model = partial(bu_igamma, model), {"n": n, "panels": panels}
    cfg = BayesConfig(
        small_ball_uniform01, 0.0, n, PrivacyParams(0.0, 1.0), zeta_grid, gamma_grid, info_fn
    )
    return bayes_gamma_opt_lb(cfg), bu_model


def cmd_gammaopt(args: argparse.Namespace) -> int:
    report, bu_model = gamma_opt_report(args.bu_n, args.bu_panels, args.zeta_grid, args.gamma_grid)
    _print_json(_with_bu_model(report, bu_model).to_dict())
    return 0


# --------------------------------------------------------------------------
# remark


def remark_reports() -> tuple[float, BoundReport, BoundReport]:
    """I(Theta; X) in nats at n = 1, and there the Bernoulli-uniform model's
    mutual-information and gamma-optimized non-private Bayes bounds."""
    mi = LN2 - 0.5
    mi_report = bayes_xu_raginsky_private(
        BayesConfig(small_ball_uniform01, info_value=mi, n=1, params=PrivacyParams(0.0, 1.0))
    )
    eg_report, _ = gamma_opt_report(1, None)
    return mi, mi_report, eg_report


def cmd_remark(args: argparse.Namespace) -> int:
    mi, mi_report, eg_report = remark_reports()
    payload = {
        "model": "uniform prior on [0,1], one Bernoulli observation, absolute loss",
        "mutual_information_nats": mi,
        "bayes_lb_egamma": eg_report.to_dict(),
        "bayes_lb_mi": mi_report.to_dict(),
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
# oracle


def cmd_oracle_eta_f(args: argparse.Namespace) -> int:
    kernel = load_kernel(args.kernel)
    gamma = args.gamma if args.f == "egamma" else None
    f = FGenerator(args.f, gamma)
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
            "gamma": gamma,
            "trials": args.trials,
            "seed": args.seed,
            "eta_estimate": estimate,
        }
    )
    return 0


def cmd_oracle_profile_check(args: argparse.Namespace) -> int:
    kernel = load_kernel(args.kernel)
    report = brute_profile_check(kernel, args.epsilon)
    payload = report.to_dict()
    payload["kernel"] = str(args.kernel)
    payload["delta_formula"] = delta_at(kernel, args.epsilon)
    _print_json(payload)
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpkit",
        description="Hockey-stick divergence toolkit: LDP auditing and risk bounds",
    )
    parser.add_argument("--version", action="version", version=f"ldpkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="exact (epsilon, delta)-LDP audit of a kernel file")
    p.add_argument("kernel", help="kernel file (JSON rows object or CSV)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--profile-grid", default=None, help="epsilon grid lo:hi:steps")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", default=None, help="CSV path for the profile")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("figure1", help="Bayes-bound comparison curve (Bernoulli-uniform model)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--eps-grid", default="0.01:3:60")
    p.add_argument("--panels", type=int, default=20000)
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
    q.add_argument("--bu-n", type=int, default=1)
    q.add_argument("--bu-panels", type=int, default=20000)
    q.add_argument("--zeta-grid", type=parse_grid_spec, default=DEFAULT_ZETA_GRID)
    q.add_argument("--gamma-grid", type=parse_grid_spec, default=DEFAULT_GAMMA_GRID)
    q.set_defaults(func=cmd_gammaopt)

    p = sub.add_parser("remark", help="side-by-side non-private Bayes bounds")
    p.add_argument("--json", action="store_true")
    p.add_argument("--bits", action="store_true", help="display information in bits")
    p.set_defaults(func=cmd_remark)

    p = sub.add_parser("oracle", help="brute-force validation runs")
    osub = p.add_subparsers(dest="oracle_kind", required=True)

    q = osub.add_parser("eta-f", help="sampled contraction-ratio search")
    q.add_argument("kernel")
    q.add_argument("--f", choices=["tv", "kl", "chi2", "hellinger_sq", "egamma"], required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DimensionError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
