"""Output checks for every op, against the references in ``reference``.

A check returns the problems it found; an op fails when it has any. A
problem carries the tag of a known defect when it matches one, so a run
can tell the defects already on record (counted in ``failed``) from new
wrong answers (which make the run incorrect). No op is skipped or
resized to hide a defect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

import reference
from workloads import AUDIT_EPS_GRID, AUDIT_TARGET_DELTA, CURVE_DELTA, Cli, Op

KNOWN_DEFECTS = {
    "delta_at_inf_nan": "delta_at(K, inf) returns 0.0 for rows whose supports differ "
    "(0 * inf is NaN in egamma, and max(0.0, nan) is 0.0)",
    "cli_traceback": "a malformed kernel file or an epsilon that overflows exp ends "
    "in a traceback, not a one-line error",
    # Found by this benchmark: two rows with disjoint supports have E_1 = 1,
    # which can round to 1 + 1 ulp, and eta_tv_from_eta_gamma rejects it.
    "eta_gamma_above_one": "eta_gamma_two_point raises DomainError when a rounded "
    "eta_gamma exceeds 1 by a few ulps",
}
_ETA_ABOVE_ONE = re.compile(r"eta_gamma must be in \[0, 1\], got ([0-9.e+-]+)")

DELTA_TOL = 1e-12  # exact two-point values against the numpy broadcast
BU_TOL = 1e-7  # Simpson quadrature against the closed forms


@dataclass(frozen=True)
class Problem:
    message: str
    defect: str | None = None  # a KNOWN_DEFECTS key, None when unexpected


def check(op: Op, out) -> list[Problem]:
    if isinstance(out, BaseException):
        m = _ETA_ABOVE_ONE.fullmatch(str(out))
        known = type(out).__name__ == "DomainError" and m and 1 < float(m[1]) <= 1 + 1e-12
        return [Problem(f"{op.kind}: raised {type(out).__name__}: {out}",
                        "eta_gamma_above_one" if known else None)]
    problems: list[Problem] = []
    family = op.kind.split(".")[0]
    {"audit": _audit, "bayes": _bayes, "cli": _cli}[family](op, out, problems)
    return problems


def _near(problems, what: str, value, ref: float, tol: float, defect=None):
    if not (isinstance(value, (int, float)) and abs(value - ref) <= tol):
        problems.append(Problem(f"{what} = {value!r}, reference {ref!r}", defect))


def _in_half(problems, what: str, value):
    if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 0.5):
        problems.append(Problem(f"{what} = {value!r}, not a finite value in [0, 1/2]"))


# --------------------------------------------------------------------------
# audit


def _profile(problems, what, rows, eps0, grid, deltas):
    if len(deltas) != len(grid):
        problems.append(Problem(f"{what}: {len(deltas)} profile points, expected {len(grid)}"))
        return
    for eps, d in zip(grid, deltas):
        _near(problems, f"{what}: delta({eps:.4g})", d, reference.delta(rows, eps), DELTA_TOL)
        if eps0 is not None:
            ref = reference.krr_delta(eps0, len(rows), eps)
            _near(problems, f"{what}: k-RR delta({eps:.4g})", d, ref, DELTA_TOL)


def _certification(problems, what, rows, epsilon, delta, certified, violation_found):
    ref = reference.delta(rows, epsilon) <= delta + 1e-12
    if certified is not ref:
        problems.append(Problem(f"{what}: certified={certified!r}, reference {ref}"))
    if violation_found is ref:
        problems.append(Problem(f"{what}: verifier violation_found={violation_found!r} "
                                f"disagrees with certification {ref}"))


def _audit(op, out, problems):
    a, rows, what = op.args, op.args["rows"], op.kind
    _profile(problems, what, rows, a["eps0"], AUDIT_EPS_GRID, out["profile"])

    eps_star, target = out["eps_star"], AUDIT_TARGET_DELTA
    residual = reference.infinite_residual(rows)
    if residual > target:
        if eps_star != math.inf:
            problems.append(Problem(f"{what}: eps* = {eps_star!r}, but the residual "
                                    f"{residual!r} exceeds delta, so eps* must be inf"))
    elif not math.isfinite(eps_star):
        problems.append(Problem(f"{what}: eps* = {eps_star!r} with residual {residual!r} <= delta"))
    else:
        if reference.delta(rows, eps_star) > target + 1e-12:
            problems.append(Problem(f"{what}: delta at eps* = {eps_star!r} exceeds {target}"))
        if eps_star > 0 and reference.delta(rows, max(0.0, eps_star - 1e-6)) <= target:
            problems.append(Problem(f"{what}: eps* = {eps_star!r} is not tight to 1e-6"))

    known = "delta_at_inf_nan" if out["delta_inf"] == 0.0 and residual > 0 else None
    _near(problems, f"{what}: delta(inf)", out["delta_inf"], residual, DELTA_TOL, known)

    _certification(problems, what, rows, a["epsilon"], a["delta"],
                   out["certified"], out["violation_found"])
    if out["verifier_certified"] is not out["certified"]:
        problems.append(Problem(f"{what}: verifier and is_ldp disagree"))


# --------------------------------------------------------------------------
# bayes


def _bayes(op, out, problems):
    n, what = op.args["n"], f"{op.kind}(n={op.args['n']})"
    if op.kind == "bayes.gamma-opt":
        _in_half(problems, f"{what}: value", out["value"])
        _near(problems, f"{what}: value", out["value"], reference.bayes_gamma_opt(n), BU_TOL)
        return
    mi = reference.bu_mutual_information(n)
    _near(problems, f"{what}: I(Theta;X^n)", out["mi"], mi, BU_TOL)
    epsilons = op.args["epsilons"]
    igammas = reference.bu_igamma(n, np.exp(epsilons))
    for eps, ig, got_ig, b_mi, b_eg in zip(
        epsilons, igammas, out["igamma"], out["bound_mi"], out["bound_egamma"]
    ):
        _near(problems, f"{what}: I_gamma at eps={eps:.4g}", got_ig, ig, BU_TOL)
        _in_half(problems, f"{what}: MI bound at eps={eps:.4g}", b_mi)
        _in_half(problems, f"{what}: E_gamma bound at eps={eps:.4g}", b_eg)
        _near(problems, f"{what}: MI bound at eps={eps:.4g}", b_mi,
              reference.bayes_mi(mi, n, eps, CURVE_DELTA), BU_TOL)
        _near(problems, f"{what}: E_gamma bound at eps={eps:.4g}", b_eg,
              reference.bayes_egamma(ig, n, eps, CURVE_DELTA), BU_TOL)
    if len(out["igamma"]) != len(epsilons):
        problems.append(Problem(f"{what}: {len(out['igamma'])} points, expected {len(epsilons)}"))


# --------------------------------------------------------------------------
# cli

_BOUND_KEYS = {"bound_name", "value", "witness", "inputs", "flags"}
_FILE_KEYS = {"outputs", "manifest"}
_AUDIT_KEYS = {"kernel", "input_size", "output_size"}
CLI_KEYS = {
    "remark": {"model", "mutual_information_nats", "bayes_lb_egamma", "bayes_lb_mi",
               "reference_egamma", "reference_mi", "ordering_holds"},
    "audit-certify": _AUDIT_KEYS | {"epsilon", "delta_tight", "eta_tv", "argmax_pair",
                                    "delta_requested", "certified", "verifier"},
    "audit-profile": _AUDIT_KEYS | _FILE_KEYS | {"profile"},
    "bound-moment-sweep": _FILE_KEYS | {"rows"},
    "bound-bayes-egamma": _BOUND_KEYS,
    "figure1": _FILE_KEYS | {"n", "delta", "panels", "mutual_information", "rows"},
}
_BOUND_REFS = {  # bound subcommand -> reference, fed the parsed flags
    "bound-lecam": lambda f, e, d: reference.lecam(f["tau"], f["kl"], int(f["n"]), e, d),
    "bound-moment": lambda f, e, d: reference.moment(f["k-moment"], int(f["n"]), e, d)[0],
    "bound-fano": lambda f, e, d: reference.fano(int(f["v-count"]), f["avg-kl"], f["tau"],
                                                 int(f["n"]), e, d),
    "bound-highdim": lambda f, e, d: reference.highdim(int(f["d"]), f["r"], int(f["n"]), e, d),
    "bound-ht": lambda f, e, d: reference.ht(f["kl"], e, d),
    "bound-micap": lambda f, e, d: reference.micap(f["entropy"], e, d),
}


def _flags(argv: list[str]) -> dict[str, float]:
    return {
        a[2:]: float(b)
        for a, b in zip(argv, argv[1:])
        if a.startswith("--") and re.fullmatch(r"[-+0-9.e]+", b)
    }


def _exact(problems, what, value, ref):
    _near(problems, what, value, ref, 1e-12 * max(1.0, abs(ref)))


def _csv(problems, what, out, path, header: list[str], rows: int) -> np.ndarray | None:
    text = out.files.get(path)
    manifest = out.files.get(path + ".manifest.json")
    if manifest is None:
        problems.append(Problem(f"{what}: no manifest next to {path}"))
    else:
        try:
            json.loads(manifest)
        except json.JSONDecodeError as exc:
            problems.append(Problem(f"{what}: manifest is not JSON: {exc}"))
    if text is None:
        problems.append(Problem(f"{what}: {path} was not written"))
        return None
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header or len(table) != rows + 1:
        problems.append(Problem(f"{what}: CSV header/rows {table[:1]}/{len(table) - 1}, "
                                f"expected {header}/{rows}"))
        return None
    return np.array(table[1:], dtype=float)


def _cli(op, out, problems):
    kind, argv = op.kind[4:], op.args["argv"]
    what = f"{op.kind}: {' '.join(argv[:2])}"
    if "Traceback" in out.stderr:
        tag = "cli_traceback" if kind in Cli.MALFORMED else None
        last = out.stderr.strip().splitlines()[-1]
        problems.append(Problem(f"{what}: traceback on stderr ({last})", tag))
    if kind in Cli.MALFORMED:
        lines = out.stderr.splitlines()
        if out.returncode != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
            problems.append(Problem(f"{what}: exit {out.returncode} with {len(lines)} stderr "
                                    "lines; expected exit 1 and one 'error:' line",
                                    "cli_traceback" if "Traceback" in out.stderr else None))
        return

    expected_code = 0
    if kind == "audit-certify":
        certified = reference.delta(op.args["rows"], op.args["epsilon"]) <= op.args["delta"] + 1e-12
        expected_code = 0 if certified else 2
    if out.returncode != expected_code:
        problems.append(Problem(f"{what}: exit code {out.returncode}, expected {expected_code}"))
    if kind == "version":
        if not re.fullmatch(r"ldpkit \S+\n", out.stdout):
            problems.append(Problem(f"{what}: stdout {out.stdout!r}"))
        return
    try:
        payload = json.loads(out.stdout)
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict) or out.stdout.count("\n") != 1:
        problems.append(Problem(f"{what}: stdout is not one JSON object: {out.stdout[:200]!r}"))
        return
    missing = CLI_KEYS.get(kind, _BOUND_KEYS) - payload.keys()
    if missing:
        problems.append(Problem(f"{what}: stdout JSON lacks {sorted(missing)}"))
        return

    f = _flags(argv)
    eps, delta = f.get("eps"), f.get("delta")
    if kind in _BOUND_REFS:
        _exact(problems, f"{what}: value", payload["value"], _BOUND_REFS[kind](f, eps, delta))
    elif kind == "remark":
        mi = reference.LN2 - 0.5
        _exact(problems, f"{what}: mutual information", payload["mutual_information_nats"], mi)
        for key, ref in (("bayes_lb_egamma", reference.bayes_gamma_opt(1)),
                         ("bayes_lb_mi", reference.bayes_mi(mi, 1, 0.0, 1.0))):
            _in_half(problems, f"{what}: {key}", payload[key]["value"])
            _near(problems, f"{what}: {key}", payload[key]["value"], ref, BU_TOL)
        if payload["ordering_holds"] is not True:
            problems.append(Problem(f"{what}: ordering_holds is {payload['ordering_holds']!r}"))
    elif kind == "audit-certify":
        rows = op.args["rows"]
        _near(problems, f"{what}: delta_tight", payload["delta_tight"],
              reference.delta(rows, op.args["epsilon"]), DELTA_TOL)
        _certification(problems, what, rows, op.args["epsilon"], op.args["delta"],
                       payload["certified"], payload["verifier"]["violation_found"])
    elif kind == "audit-profile":
        grid = np.linspace(0.0, 3.0, 31)
        table = _csv(problems, what, out, op.args["csv"], ["epsilon", "delta"], 31)
        if table is not None:
            if not np.array_equal(table[:, 0], grid):
                problems.append(Problem(f"{what}: CSV epsilon column is not 0:3:31"))
            _profile(problems, what, op.args["rows"], op.args["eps0"], grid, list(table[:, 1]))
            if payload["profile"] != table.tolist():
                problems.append(Problem(f"{what}: stdout profile differs from the CSV"))
    elif kind == "bound-moment-sweep":
        grid = np.linspace(0.1, 3.0, 30)
        table = _csv(problems, what, out, op.args["csv"],
                     ["epsilon", "value", "witness_omega"], 30)
        if table is not None:
            if not np.array_equal(table[:, 0], grid):
                problems.append(Problem(f"{what}: CSV epsilon column is not 0.1:3:30"))
            for e, value, omega in table:
                ref_value, ref_omega = reference.moment(f["k-moment"], int(f["n"]), e, delta)
                _exact(problems, f"{what}: value at eps={e:.4g}", value, ref_value)
                _exact(problems, f"{what}: omega at eps={e:.4g}", omega, ref_omega)
    elif kind == "bound-bayes-egamma":
        ig = float(reference.bu_igamma(5, [math.exp(eps)])[0])
        _in_half(problems, f"{what}: value", payload["value"])
        _near(problems, f"{what}: value", payload["value"],
              reference.bayes_egamma(ig, 1, eps, delta), BU_TOL)
    elif kind == "figure1":
        mi = reference.bu_mutual_information(5)
        _near(problems, f"{what}: mutual_information", payload["mutual_information"], mi, BU_TOL)
        grid = np.linspace(0.01, 3.0, 10)
        table = _csv(problems, what, out, op.args["csv"],
                     ["epsilon", "bayes_lb_mi", "bayes_lb_egamma"], 10)
        if table is not None:
            if not np.array_equal(table[:, 0], grid):
                problems.append(Problem(f"{what}: CSV epsilon column is not 0.01:3:10"))
            for (e, b_mi, b_eg), ig in zip(table, reference.bu_igamma(5, np.exp(grid))):
                for name, value, ref in (
                    ("MI bound", b_mi, reference.bayes_mi(mi, 5, e, 1e-4)),
                    ("E_gamma bound", b_eg, reference.bayes_egamma(ig, 5, e, 1e-4)),
                ):
                    _in_half(problems, f"{what}: {name} at eps={e:.4g}", float(value))
                    _near(problems, f"{what}: {name} at eps={e:.4g}", value, ref, BU_TOL)
