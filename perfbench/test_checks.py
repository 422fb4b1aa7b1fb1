"""Self-tests of the benchmark's output checks, tracer and calibrator.

    python3 -m pytest -q perfbench/test_checks.py

Each checker must pass a real ldpkit output and reject a slightly
perturbed one; known defects must be told apart from new wrong answers.
"""

from __future__ import annotations

import copy
import json
import math
import signal
import time

import numpy as np
import pytest

import calibration
import checks
import reference
from spans import Tracer
from workloads import Audit, Bayes, Cli, CliResult, Op


@pytest.fixture(scope="module")
def audit():
    wl = Audit(seed=7)
    wl.setup()
    return wl


def _unexpected(problems):
    return [p for p in problems if p.defect is None]


def test_audit_checker_rejects_perturbed_delta_and_epsilon(audit):
    op = audit.cycle(0)[6]  # 5-ary randomized response
    out = audit.run(op)
    assert checks.check(op, out) == []

    bad = copy.deepcopy(out)
    bad["profile"][3] += 1e-9
    assert _unexpected(checks.check(op, bad))

    bad = copy.deepcopy(out)
    bad["eps_star"] -= 1e-3
    assert _unexpected(checks.check(op, bad))

    bad = copy.deepcopy(out)
    bad["violation_found"] = not bad["violation_found"]
    assert _unexpected(checks.check(op, bad))


def test_audit_checker_tells_the_known_defect_apart(audit):
    rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    op = Op("audit.small.sparse", dict(rows=rows, eps0=None, epsilon=1.0, delta=0.4,
                                       verifier_seed=3))
    out = audit.run(op)
    residual = reference.infinite_residual(rows)
    assert residual == 0.5

    for value, tag in ((residual, None), (0.0, "delta_at_inf_nan"), (0.3, None)):
        problems = checks.check(op, dict(out, delta_inf=value))
        if value == residual:
            assert problems == []
        else:
            assert [p.defect for p in problems] == [tag]


def test_rounding_defect_is_told_apart_from_other_errors(audit):
    from ldpkit.errors import DomainError

    op = audit.cycle(0)[8]  # sparse rows
    for error, tag in (
        (DomainError("eta_gamma must be in [0, 1], got 1.0000000000000002"), "eta_gamma_above_one"),
        (DomainError("eta_gamma must be in [0, 1], got 1.5"), None),
        (ValueError("eta_gamma must be in [0, 1], got 1.0000000000000002"), None),
    ):
        assert [p.defect for p in checks.check(op, error)] == [tag]


def test_bayes_checker_rejects_information_off_by_1e6():
    wl = Bayes(seed=7)
    wl.setup()
    op = Op("bayes.curve", dict(n=5, epsilons=np.linspace(0.05, 3.0, 4)))
    out = wl.run(op)
    assert checks.check(op, out) == []

    bad = copy.deepcopy(out)
    bad["mi"] += 1e-6
    assert _unexpected(checks.check(op, bad))

    bad = copy.deepcopy(out)
    bad["igamma"][2] -= 1e-6
    assert _unexpected(checks.check(op, bad))

    op = Op("bayes.gamma-opt", dict(n=2))
    value = reference.bayes_gamma_opt(2)
    assert checks.check(op, dict(value=value)) == []
    assert _unexpected(checks.check(op, dict(value=value + 1e-6)))
    assert _unexpected(checks.check(op, dict(value=math.nan)))


TRACEBACK = 'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: boom\n'


def test_cli_checker_rejects_a_traceback():
    version = Op("cli.version", dict(argv=["--version"]))
    assert checks.check(version, CliResult(0, "ldpkit 0.1.0\n", "")) == []
    assert _unexpected(checks.check(version, CliResult(0, "ldpkit 0.1.0\n", TRACEBACK)))

    ht = Op("cli.bound-ht", dict(argv=["bound", "ht", "--kl", "0.5", "--eps", "1.0",
                                       "--delta", "0.0"]))
    payload = {"bound_name": "ht_exponent", "value": reference.ht(0.5, 1.0, 0.0),
               "witness": {}, "inputs": {}, "flags": []}
    good = json.dumps(payload) + "\n"
    assert checks.check(ht, CliResult(0, good, "")) == []
    assert _unexpected(checks.check(ht, CliResult(0, good, TRACEBACK)))
    payload["value"] += 1e-9
    assert _unexpected(checks.check(ht, CliResult(0, json.dumps(payload) + "\n", "")))

    malformed = Op("cli.malformed-token", dict(argv=["audit", "bad.csv", "--epsilon", "1"]))
    assert checks.check(malformed, CliResult(1, "", "error: could not parse 'abc'\n")) == []
    problems = checks.check(malformed, CliResult(1, "", TRACEBACK))
    assert problems and {p.defect for p in problems} == {"cli_traceback"}
    assert _unexpected(checks.check(malformed, CliResult(0, "", "")))


def test_cli_checker_accepts_every_real_output():
    wl = Cli(seed=7)
    try:
        wl.setup(inprocess=True)
        for op in wl.cycle(0):
            out = wl.run(op, inprocess=True)
            wl.collect(op, out)
            assert _unexpected(checks.check(op, out)) == [], op.kind
    finally:
        wl.close()


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))

    def parent():
        child()
        child()
        time.sleep(0.01)

    tracer.wrap("parent", parent)()
    tracer.end_op()
    assert tracer.calls["child"] == 2 and tracer.calls["parent"] == 1
    assert tracer.total["parent"] >= 0.05
    assert 0.01 <= tracer.own["parent"] < 0.02
    assert tracer.own["child"] == pytest.approx(tracer.total["child"])


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(100))


def test_calibrator_samples_inside_an_op_and_leaves_no_timer():
    cal = calibration.Calibrator()

    def op():
        t0 = time.perf_counter()
        _busy(0.3)
        return t0, time.perf_counter()

    factor, (t0, t1) = cal.around(op, during=True)
    inside = cal.kernel_seconds(t0, t1)
    assert len(cal.samples) >= 4  # before, after and some while it ran
    assert 0 < inside < t1 - t0
    assert factor == pytest.approx(
        calibration.REFERENCE_S / np.mean([d for _, d in cal.samples]))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_calibrator_disarms_its_timer_when_the_op_raises():
    cal = calibration.Calibrator()

    def failing():
        _busy(0.1)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        cal.around(failing, during=True)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_calibrator_without_during_samples_only_around():
    cal = calibration.Calibrator()
    factor, _ = cal.around(lambda: _busy(0.1))
    assert len(cal.samples) == 2
    assert cal.kernel_seconds(cal.samples[0][0] + cal.samples[0][1], cal.samples[1][0]) == 0
    assert factor == pytest.approx(calibration.REFERENCE_S * 2 / sum(d for _, d in cal.samples))
