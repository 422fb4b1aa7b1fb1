import dataclasses
import decimal
import gc
import json
import math
import re
import struct
import tracemalloc
import weakref
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit.bounds
import ldpkit.contraction
from ldpkit.bounds import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_ZETA_GRID,
    MAX_GRID_STEPS,
    MAX_MESH_POINTS,
    BayesConfig,
    GridSpec,
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
from ldpkit.contraction import PrivacyParams, phi, phi_n
from ldpkit.errors import CapacityError, DomainError
from ldpkit.dist import FGenerator
from ldpkit.info import BernoulliUniformModel, JointDistribution, bu_igamma, f_information
from ldpkit.kernel import randomized_response
from support import (
    bayes_egamma_uncached,
    bayes_xu_raginsky_uncached,
    bu_igamma_n1,
    gamma_opt_full_mesh,
    phi_n_decimal,
)

LN2 = math.log(2.0)

NONPRIVATE = PrivacyParams(0.0, 1.0)
BLOCKED = PrivacyParams(0.0, 0.0)


_TINY = 5e-324  # the smallest subnormal
_BIG = st.floats(1e307, 1.7976931348623157e308)


@st.composite
def _linear_ends(draw):
    """(lo, hi) of a linear grid: ordinary spans, subnormal spans whose step
    underflows to zero, signed-zero ends, and spans whose hi - lo overflows."""
    kind = draw(st.sampled_from(["any", "subnormal", "signed-zero", "overflow"]))
    if kind == "subnormal":
        return draw(st.sampled_from([0.0, -0.0])), draw(st.integers(1, 5000)) * _TINY
    if kind == "signed-zero":
        zero = draw(st.sampled_from([0.0, -0.0]))
        other = draw(st.floats(_TINY, 1e6))
        return (zero, other) if draw(st.booleans()) else (-other, zero)
    if kind == "overflow":
        return -draw(_BIG), draw(_BIG)
    ends = st.floats(allow_nan=False, allow_infinity=False)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return lo, hi


class TestGridSpec:
    @given(_linear_ends(), st.integers(1, 2000))
    def test_linear_grid_is_linspace_bit_for_bit(self, ends, steps):
        lo, hi = ends
        grid = GridSpec(lo, hi, steps)
        if steps == 1:
            expected = np.array([lo])  # one step is [lo], where linspace gives 0 * (hi - lo) + lo
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.linspace(lo, hi, steps)
        values = np.array(grid.values())
        # equal bytes: equal signs (signbit) and NaNs in the same places, with their payloads
        assert values.tobytes() == expected.tobytes()
        assert grid.points().tobytes() == expected.tobytes()
        assert all(type(v) is float for v in grid.values())

    def test_points(self):
        lin = GridSpec(0.0, 1.0, 5).points()
        assert np.allclose(lin, [0.0, 0.25, 0.5, 0.75, 1.0])
        log = GridSpec(1e-2, 1.0, 3, "log").points()
        assert np.allclose(log, [1e-2, 1e-1, 1.0])

    def test_one_step_is_its_low_end(self):
        assert GridSpec(3.0, 4.0, 1).points().tolist() == [3.0]
        assert GridSpec(2.0, 1.0, 1, "log").points().tolist() == [2.0]

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 0)
        with pytest.raises(DomainError):
            GridSpec(1.0, 0.5, 10)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 10, "log")
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 10, "quadratic")
        for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (1e-3, math.inf)):
            with pytest.raises(DomainError):
                GridSpec(lo, hi, 10, "log" if lo > 0 else "linear")
        assert GridSpec(0.0, 3.0, MAX_GRID_STEPS).steps == 10**6
        with pytest.raises(CapacityError, match="^grid steps = 1000001 is over the cap 1000000$"):
            GridSpec(0.0, 3.0, MAX_GRID_STEPS + 1)

    @pytest.mark.parametrize(
        "grid, fresh",
        [
            (GridSpec(1e-4, 0.5, 2000, "log"), lambda: np.geomspace(1e-4, 0.5, 2000)),
            (GridSpec(0.0, 4.0, 800), lambda: np.linspace(0.0, 4.0, 800)),
            (GridSpec(3.0, 4.0, 1), lambda: np.array([3.0])),
        ],
        ids=["log", "linear", "one-step"],
    )
    def test_points_are_built_once_and_read_only(self, grid, fresh):
        pts = grid.points()
        assert grid.points() is pts
        assert grid.values() is grid.values()
        assert np.array(grid.values()).tobytes() == pts.tobytes()
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 1.0
        assert pts.tobytes() == fresh().tobytes()
        # the cache is not a field: manifests still write the four fields
        assert dataclasses.asdict(grid) == {
            "lo": grid.lo, "hi": grid.hi, "steps": grid.steps, "scale": grid.scale,
        }
        assert json.dumps(grid, default=dataclasses.asdict) == json.dumps(dataclasses.asdict(grid))

    def test_points_are_cached_per_instance_not_per_value(self):
        # equal specs whose grids differ: a one-step grid is [lo], and linspace
        # itself turns a -0.0 start into 0.0 on longer grids
        assert GridSpec(0.0, 1.0, 1) == GridSpec(-0.0, 1.0, 1)
        assert math.copysign(1.0, GridSpec(0.0, 1.0, 1).points()[0]) == 1.0
        assert math.copysign(1.0, GridSpec(-0.0, 1.0, 1).points()[0]) == -1.0


_GRID = GridSpec(1e-3, 0.5, 50, "log")
_BU2 = BernoulliUniformModel(2)
_ECHO_CASES = [
    (lambda p: lecam_private(0.5, 0.1, 10, p),
     lambda p: {"tau": 0.5, "kl_p0_p1": 0.1, "n": 10, **dataclasses.asdict(p), "phi": phi(p)}),
    (lambda p: moment_estimation_lb(2.0, 10, p),
     lambda p: {"k_moment": 2.0, "n": 10, **dataclasses.asdict(p), "phi": phi(p),
                "variant": "explicit-constant"}),
    (lambda p: fano_lb(64, 0.01, 0.5, 20, p),
     lambda p: {"v_count": 64, "avg_pairwise_kl": 0.01, "tau": 0.5, "n": 20,
                **dataclasses.asdict(p), "mi_upper": 20 * phi_n(p, 20) * 0.01}),
    (lambda p: highdim_mean_lb(8, 1.0, 64, p),
     lambda p: {"d": 8, "r": 1.0, "n": 64, **dataclasses.asdict(p), "phi_n": phi_n(p, 64),
                "variant": "explicit-constant"}),
    (lambda p: ht_exponent(0.3, p), lambda p: {"kl_p0_p1": 0.3, **dataclasses.asdict(p)}),
    (lambda p: mi_cap(0.7, p), lambda p: {"entropy": 0.7, **dataclasses.asdict(p)}),
    (lambda p: bayes_xu_raginsky_private(BayesConfig(small_ball_uniform01, 0.2, 3, p, _GRID)),
     lambda p: {"info_value": 0.2, "n": 3, **dataclasses.asdict(p),
                "zeta_grid": dataclasses.asdict(_GRID), "phi_n": phi_n(p, 3)}),
    (lambda p: bayes_egamma_lb(BayesConfig(small_ball_uniform01, 0.2, 3, p, _GRID)),
     lambda p: {"info_value": 0.2, "n": 3, **dataclasses.asdict(p),
                "zeta_grid": dataclasses.asdict(_GRID), "gamma": math.exp(p.epsilon),
                "info_coefficient": phi_n(p, 3)}),
    (lambda p: bayes_gamma_opt_lb(BayesConfig(
        small_ball_uniform01, 0.0, 2, p, _GRID, GridSpec(0.0, 3.0, 7), partial(bu_igamma, _BU2))),
     lambda p: {"info_value": 0.0, "n": 2, **dataclasses.asdict(p),
                "zeta_grid": dataclasses.asdict(_GRID),
                "gamma_grid": dataclasses.asdict(GridSpec(0.0, 3.0, 7))}),
]


@pytest.mark.parametrize("call, expected", _ECHO_CASES, ids=[
    "lecam", "moment", "fano", "highdim", "ht", "micap", "bayes-mi", "bayes-egamma",
    "bayes-gammaopt",
])
def test_input_echo_is_the_asdict_built_dict(call, expected):
    params = PrivacyParams(0.7, 0.05)
    inputs = call(params).inputs
    assert inputs == expected(params)
    assert json.dumps(inputs, sort_keys=True) == json.dumps(expected(params), sort_keys=True)


class TestLeCam:
    def test_blocked_mechanism_gives_half_tau(self):
        assert lecam_private(0.8, 5.0, 100, BLOCKED).value == 0.4

    def test_nonprivate_recovery_identical(self):
        tau, kl, n = 1.3, 0.07, 25
        expected = max(0.0, 0.5 * tau * (1.0 - math.sqrt(0.5 * n * kl)))
        assert lecam_private(tau, kl, n, NONPRIVATE).value == expected

    def test_quarter_tau_point(self):
        n, eps = 10, 1.0
        params = PrivacyParams(eps, 0.0)
        kl = 1.0 / (2.0 * n * phi(params))
        assert lecam_private(1.0, kl, n, params).value == pytest.approx(0.25, abs=1e-12)

    def test_hand_value(self):
        value = lecam_private(1.0, 0.1, 10, PrivacyParams(1.0, 0.0)).value
        assert value == pytest.approx(0.2189, abs=1e-4)

    def test_vacuous_clamp(self):
        report = lecam_private(1.0, 100.0, 100, NONPRIVATE)
        assert report.value == 0.0
        assert "vacuous" in report.flags

    def test_config_validation(self):
        with pytest.raises(DomainError):
            lecam_private(0.0, 1.0, 1, NONPRIVATE)
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            lecam_private(1.0, 1.0, 0, NONPRIVATE)


class TestMomentEstimation:
    def test_hand_value(self):
        report = moment_estimation_lb(2.0, 1, PrivacyParams(0.0, 1.0))
        assert report.value == pytest.approx(0.0625, abs=1e-12)
        assert report.witness["omega"] == pytest.approx(0.125, abs=1e-12)

    def test_blocked_mechanism_flagged_trivial(self):
        report = moment_estimation_lb(2.0, 10, BLOCKED)
        assert report.value == 1.0
        assert "trivial" in report.flags

    def test_tiny_epsilon_is_not_trivial(self):
        # 1 - e^-eps would round phi = 1e-17 to 0 (trivial); omega = 1 and
        # the bracket is 1 - sqrt(2) sqrt(phi_10), phi_10 about 1e-16.
        report = moment_estimation_lb(2.0, 10, PrivacyParams(1e-17, 0.0))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            pn = decimal.Decimal(phi_n_decimal(1e-17, 0.0, 10))
            expected = float(1 - decimal.Decimal(2).sqrt() * pn.sqrt())
        assert report.witness["omega"] == 1.0 and report.flags == ()
        assert abs(report.value - expected) <= 1e-15

    def test_phi_scaling_is_exact_in_interior(self):
        # omega scales as 1/phi, omega*phi cancels, so values scale as
        # (phi2/phi1)^(2(k-1)/k) exactly while omega < 1
        k, n = 3.0, 16
        p1, p2 = PrivacyParams(2.0, 0.0), PrivacyParams(1.0, 0.0)
        r1, r2 = moment_estimation_lb(k, n, p1), moment_estimation_lb(k, n, p2)
        assert r1.witness["omega"] < 1.0 and r2.witness["omega"] < 1.0
        expo = 2.0 * (k - 1.0) / k
        assert r2.value / r1.value == pytest.approx(
            (phi(p1) / phi(p2)) ** expo, rel=1e-12
        )

    def test_large_k_exponent_approaches_two(self):
        n = 16
        params = PrivacyParams(0.0, 1.0)
        report = moment_estimation_lb(1e9, n, params)
        omega = report.witness["omega"]
        bracket = 1.0 - math.sqrt(2.0) * math.sqrt(1.0 - (1.0 - omega) ** n)
        assert report.value == pytest.approx(omega**2 * bracket, rel=1e-6)

    def test_vacuous_at_large_n(self):
        report = moment_estimation_lb(2.0, 400, PrivacyParams(0.0, 1.0))
        assert report.value == 0.0
        assert "vacuous" in report.flags

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_estimation_lb(1.0, 5, NONPRIVATE)
        # The exponent 2(k - 1)/k would be inf/inf.
        with pytest.raises(DomainError, match="finite"):
            moment_estimation_lb(math.inf, 5, NONPRIVATE)
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            moment_estimation_lb(2.0, 0, NONPRIVATE)


class TestFano:
    def test_mi_upper_zero_and_nonprivate(self):
        assert fano_lb(4, 0.3, 1.0, 5, BLOCKED).inputs["mi_upper"] == 0.0
        assert fano_lb(4, 0.3, 1.0, 5, NONPRIVATE).inputs["mi_upper"] == 5 * 0.3

    def test_mi_upper_direct_form(self):
        params = PrivacyParams(0.7, 0.01)
        report = fano_lb(4, 0.3, 1.0, 5, params, mi_xn_v=2.0)
        assert report.inputs["mi_upper"] == phi_n(params, 5) * 2.0

    def test_coefficient_against_looser_reference(self):
        # phi_1(0.4, 0) ~ 0.3297 is smaller than 2(e^0.4 - 1) ~ 0.9836
        lemma = phi_n(PrivacyParams(0.4, 0.0), 1)
        duchi = 2.0 * (math.exp(0.4) - 1.0)
        assert lemma == pytest.approx(0.3297, abs=1e-4)
        assert duchi == pytest.approx(0.9836, abs=1e-4)
        assert lemma < duchi

    def test_coefficient_grid(self):
        # threshold is ln(1.5) ~ 0.4055: above it the reference coefficient
        # exceeds 1 and dominates phi_n for every n; at 0.4 it only holds for
        # moderate n
        for eps in (0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
            duchi = 2.0 * (math.exp(eps) - 1.0)
            for n in (1, 2, 3, 5, 8):
                assert phi_n(PrivacyParams(eps, 0.0), n) <= duchi + 1e-12

    def test_lb_values(self):
        assert fano_lb(2, 0.0, 1.0, 1, BLOCKED).value == 0.0
        assert fano_lb(8, 0.0, 0.9, 1, BLOCKED).value == pytest.approx(0.6, abs=1e-12)
        assert fano_lb(2**40, 0.0, 1.0, 1, BLOCKED).value == pytest.approx(1.0, abs=0.03)

    def test_nonprivate_recovery_identical(self):
        v, avg, tau, n = 16, 0.01, 1.0, 3
        expected = max(0.0, tau * (1.0 - (n * 1.0 * avg + LN2) / math.log(v)))
        assert fano_lb(v, avg, tau, n, NONPRIVATE).value == expected

    def test_v_count_validation(self):
        with pytest.raises(DomainError):
            fano_lb(1, 0.0, 1.0, 1, BLOCKED)

    def test_tau_and_n_validation(self):
        for tau in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="tau must be > 0"):
                fano_lb(4, 0.1, tau, 1, BLOCKED)
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            fano_lb(4, 0.1, 1.0, 0, BLOCKED)


class TestHighdim:
    def test_positive_at_example_point(self):
        report = highdim_mean_lb(64, 1.0, 256, NONPRIVATE)
        assert report.value > 0.0
        assert report.witness["k"] == 64
        assert report.witness["omega"] == pytest.approx(64 / (50 * 256), abs=1e-15)

    def test_blocked_flagged_trivial(self):
        report = highdim_mean_lb(8, 1.0, 4, BLOCKED)
        assert "trivial" in report.flags
        assert report.witness["omega"] == 1.0
        assert report.witness["k"] == 16

    def test_radius_scaling(self):
        a = highdim_mean_lb(64, 1.0, 256, NONPRIVATE).value
        b = highdim_mean_lb(64, 2.0, 256, NONPRIVATE).value
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    # r^2 alone overflows from r = 1.35e154, (r omega)^2 not until r omega does.
    def test_finite_bound_at_large_radius_stays_finite(self):
        params = PrivacyParams(1.0, 0.0)
        base = highdim_mean_lb(8, 1.0, 64, params).value
        value = highdim_mean_lb(8, 1e155, 64, params).value
        assert value / 1e155 / 1e155 == pytest.approx(base, rel=1e-12)
        with pytest.raises(OverflowError):
            highdim_mean_lb(8, 1e200, 64, params)

    def test_domain(self):
        with pytest.raises(DomainError):
            highdim_mean_lb(0, 1.0, 1, NONPRIVATE)
        with pytest.raises(DomainError):
            highdim_mean_lb(4, -1.0, 1, NONPRIVATE)
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            highdim_mean_lb(4, 1.0, 0, NONPRIVATE)


def _xu_reference(info_value: float, pn: float, zetas: np.ndarray) -> float:
    # direct dense-grid evaluation, independent of the calculator internals
    best = 0.0
    for z in zetas:
        ball = min(2.0 * z, 1.0)
        if ball >= 1.0:
            continue
        bracket = 1.0 - (pn * info_value + LN2) / math.log(1.0 / ball)
        best = max(best, z * max(0.0, bracket))
    return best


class TestSmallBallUniform:
    def test_saturates_at_one_without_overflow(self):
        zeta = np.array([0.0, 0.25, 0.5, 0.75, 1e308, np.inf])
        assert small_ball_uniform01(zeta).tolist() == [0.0, 0.5, 1.0, 1.0, 1.0, 1.0]

    def test_is_min_of_two_zeta_and_one_bit_for_bit(self):
        zeta = np.append(DEFAULT_ZETA_GRID.points(), [0.5000000000000001, np.nan, -np.inf])
        assert small_ball_uniform01(zeta).tobytes() == np.minimum(2.0 * zeta, 1.0).tobytes()


class TestBayesXuRaginsky:
    def test_matches_reference_grid(self):
        info = math.log(2.0) - 0.5
        cfg = BayesConfig(
            small_ball=small_ball_uniform01, info_value=info, n=1, params=NONPRIVATE
        )
        report = bayes_xu_raginsky_private(cfg)
        assert report.value == pytest.approx(
            _xu_reference(info, 1.0, cfg.zeta_grid.points()), abs=1e-15
        )
        assert report.value == pytest.approx(0.0456594, abs=1e-4)
        assert report.witness["zeta"] == pytest.approx(0.1134, abs=2e-3)

    def test_zero_information_case(self):
        cfg = BayesConfig(
            small_ball=small_ball_uniform01, info_value=0.0, n=1, params=BLOCKED
        )
        report = bayes_xu_raginsky_private(cfg)
        assert report.value == pytest.approx(
            _xu_reference(0.0, 0.0, cfg.zeta_grid.points()), abs=1e-15
        )

    def test_uninformative_small_ball_flagged(self):
        cfg = BayesConfig(small_ball=lambda z: 1.0, info_value=0.5, n=1, params=NONPRIVATE)
        report = bayes_xu_raginsky_private(cfg)
        assert report.value == 0.0
        assert "no-feasible-zeta" in report.flags

    def test_witness_on_grid(self):
        cfg = BayesConfig(
            small_ball=small_ball_uniform01, info_value=0.2, n=3, params=PrivacyParams(0.5, 0.01)
        )
        report = bayes_xu_raginsky_private(cfg)
        assert report.witness["zeta"] in cfg.zeta_grid.points()


class TestBayesEgamma:
    def test_pure_ldp_specialization(self):
        # delta = 0 and n = 1 drop the information term entirely
        eps = 0.7
        cfg = BayesConfig(
            small_ball=small_ball_uniform01,
            info_value=0.9,
            n=1,
            params=PrivacyParams(eps, 0.0),
        )
        report = bayes_egamma_lb(cfg)
        zetas = cfg.zeta_grid.points()
        expected = max(
            z * max(0.0, 1.0 - math.exp(eps) * min(2.0 * z, 1.0)) for z in zetas
        )
        assert report.value == pytest.approx(expected, abs=1e-15)

    def test_uninformative_small_ball(self):
        cfg = BayesConfig(
            small_ball=lambda z: 1.0, info_value=0.0, n=1, params=PrivacyParams(0.5, 0.0)
        )
        report = bayes_egamma_lb(cfg)
        assert report.value == 0.0
        assert "vacuous" in report.flags

    def test_coefficient_switches_at_n1(self):
        # n = 1 uses delta itself; n > 1 uses phi_n
        params = PrivacyParams(0.3, 0.2)
        base = dict(small_ball=small_ball_uniform01, info_value=0.4, params=params)
        r1 = bayes_egamma_lb(BayesConfig(n=1, **base))
        assert r1.inputs["info_coefficient"] == 0.2
        r2 = bayes_egamma_lb(BayesConfig(n=2, **base))
        assert r2.inputs["info_coefficient"] == phi_n(params, 2)

    def test_zero_ball_absorbs_infinite_gamma(self):
        # at zeta = 0, gamma L(0) is inf * 0 for epsilon = inf; it counts as 0
        grid = GridSpec(0.0, 0.5, 11)
        base = dict(small_ball=small_ball_uniform01, info_value=0.3, n=2, zeta_grid=grid)
        report = bayes_egamma_lb(BayesConfig(params=PrivacyParams(math.inf, 0.1), **base))
        assert (report.value, report.witness, report.flags) == (0.0, {"zeta": 0.0}, ("vacuous",))
        # a finite gamma keeps the plain product, bit for bit
        params = PrivacyParams(0.5, 0.1)
        z = grid.points()
        c = phi_n(params, 2)
        plain = z * np.maximum(0.0, 1.0 - c * 0.3 - math.exp(0.5) * small_ball_uniform01(z))
        assert bayes_egamma_lb(BayesConfig(params=params, **base)).value == plain.max()

    def test_nan_ball_is_refused(self):
        # NaN above zeta = 0.1 once gave a NaN value with no error and no flag
        def ball(z):
            return np.where(z > 0.1, np.nan, small_ball_uniform01(z))

        cfg = BayesConfig(ball, 0.1, 1, PrivacyParams(0.5, 0.1))
        with pytest.raises(DomainError, match="L\\(zeta\\) must not be NaN on the zeta grid"):
            bayes_egamma_lb(cfg)


class TestBayesConfig:
    @pytest.mark.parametrize("info", [-1.0, math.nan, math.inf])
    def test_information_must_be_finite_and_nonnegative(self, info):
        with pytest.raises(DomainError, match="info_value must be"):
            BayesConfig(small_ball=small_ball_uniform01, info_value=info, n=1, params=NONPRIVATE)

    def test_n_must_be_positive(self):
        with pytest.raises(DomainError, match="n must be >= 1, got 0"):
            BayesConfig(small_ball=small_ball_uniform01, info_value=0.1, n=0, params=NONPRIVATE)

    def test_zeta_grid_must_not_start_below_zero(self):
        # zeta is a ball radius: a negative grid once gave a negative bound
        # and a negative witness radius
        base = dict(small_ball=small_ball_uniform01, info_value=0.1, n=1, params=NONPRIVATE)
        with pytest.raises(DomainError, match="zeta grid needs lo >= 0"):
            BayesConfig(zeta_grid=GridSpec(-1.0, -0.5, 10), **base)
        with pytest.raises(DomainError, match="zeta grid needs lo >= 0"):
            BayesConfig(zeta_grid=GridSpec(-1e-9, 0.5, 10), **base)
        report = bayes_egamma_lb(BayesConfig(zeta_grid=GridSpec(0.0, 0.5, 11), **base))
        assert report.value >= 0.0 and report.witness["zeta"] >= 0.0

    def test_gamma_grid_must_not_start_below_zero(self):
        # the gamma-optimized bound is a supremum over gamma >= 0
        base = dict(small_ball=small_ball_uniform01, info_value=0.0, n=1, params=NONPRIVATE,
                    info_fn=lambda g: 0.0)
        with pytest.raises(DomainError, match=r"^gamma grid needs lo >= 0, got -3\.0$"):
            BayesConfig(gamma_grid=GridSpec(-3.0, 1.0, 9), **base)
        with pytest.raises(DomainError, match=r"^gamma grid needs lo >= 0, got -1e-09$"):
            BayesConfig(gamma_grid=GridSpec(-1e-9, 1.0, 9), **base)
        report = bayes_gamma_opt_lb(BayesConfig(gamma_grid=GridSpec(0.0, 1.0, 9), **base))
        assert report.witness["gamma"] >= 0.0


class TestBayesGrids:
    """What the three Bayes bounds share: one argmax over their own grid."""

    CALCULATORS = (bayes_xu_raginsky_private, bayes_egamma_lb, bayes_gamma_opt_lb)

    @pytest.mark.parametrize("calculator", CALCULATORS)
    def test_constant_small_ball_is_broadcast(self, calculator):
        ball = 0.05
        cfg = BayesConfig(
            small_ball=lambda z: ball,
            info_value=0.1,
            n=2,
            params=PrivacyParams(0.5, 0.01),
            zeta_grid=GridSpec(0.0, 0.5, 11),
            gamma_grid=GridSpec(0.0, 4.0, 9),
            info_fn=lambda g: np.zeros_like(g),
        )
        array_cfg = dataclasses.replace(cfg, small_ball=lambda z: np.full(np.shape(z), ball))
        report = calculator(cfg)
        assert report == calculator(array_cfg)
        # the bracket does not depend on zeta, so the last (largest) zeta wins
        assert report.value > 0.0 and report.witness["zeta"] == 0.5

    @pytest.mark.parametrize("calculator", CALCULATORS)
    def test_plateau_reports_the_first_grid_point(self, calculator):
        # an information of 10 nats makes every bracket nonpositive, so all
        # grid values are 0 and the first zeta (and gamma) is the witness
        zetas, gammas = GridSpec(0.1, 0.4, 4), GridSpec(0.5, 2.0, 4)
        cfg = BayesConfig(
            small_ball=small_ball_uniform01,
            info_value=10.0,
            n=1,
            params=NONPRIVATE,
            zeta_grid=zetas,
            gamma_grid=gammas,
            info_fn=lambda g: np.full(np.shape(g), 10.0),
        )
        report = calculator(cfg)
        assert (report.value, report.witness["zeta"]) == (0.0, 0.1)
        if calculator is bayes_gamma_opt_lb:
            assert report.witness["gamma"] == 0.5
        assert "vacuous" in report.flags

    @pytest.mark.parametrize("calculator", CALCULATORS)
    @pytest.mark.parametrize("ball, message", [
        (lambda z: np.full_like(z, np.nan), "must not be NaN"),
        # on the default zeta grid this ball once gave the MI bound 0.0335 at zeta = 0.0499
        (lambda z: np.where(z > 0.05, np.nan, small_ball_uniform01(z)), "must not be NaN"),
        (lambda z: np.where(z == 0.0, -np.inf, small_ball_uniform01(z)), "must be >= 0"),
        (lambda z: small_ball_uniform01(z) - 0.5, "must be >= 0"),
    ], ids=["all-nan", "nan-above-0.05", "minus-inf-at-0", "negative-below-0.25"])
    def test_nan_or_negative_ball_is_refused(self, calculator, ball, message):
        # the MI bound once read NaN as infeasible: 0.0 flagged no-feasible-zeta
        # for an all-NaN ball; the gamma-optimized bound once took a negative L
        cfg = BayesConfig(ball, 0.1, 1, PrivacyParams(1, 0), GridSpec(0.0, 0.5, 11),
                          info_fn=np.zeros_like)
        for _ in range(3):  # a refused ball is kept nowhere: every call refuses it
            with pytest.raises(DomainError, match=f"L\\(zeta\\) {message} on the zeta grid"):
                calculator(cfg)

    @pytest.mark.parametrize("calculator", CALCULATORS)
    @pytest.mark.parametrize("ball, shape", [
        (lambda z: np.minimum(2.0 * z[:, None], 1.0), "(11, 1)"),
        (lambda z: np.array([0.5]), "(1,)"),
    ], ids=["column", "one-value"])
    def test_ball_of_another_shape_is_refused(self, calculator, ball, shape):
        # a column was once a raw numpy error, and one value was broadcast
        cfg = BayesConfig(ball, 0.1, 1, PrivacyParams(1, 0), GridSpec(0.0, 0.5, 11),
                          info_fn=np.zeros_like)
        message = f"^L\\(zeta\\) must give one value per zeta, got shape {re.escape(shape)}$"
        with pytest.raises(DomainError, match=message):
            calculator(cfg)


@st.composite
def _zeta_grids(draw):
    """Fresh zeta grids: linear ones from a signed zero or a positive lo, log
    ones, and one-step grids of either scale; hi up to 2 saturates L."""
    hi = draw(st.floats(0.2, 2.0))
    if draw(st.booleans()):
        lo = draw(st.floats(1e-8, 0.1))
        return GridSpec(lo, hi, draw(st.sampled_from([1, 2]) | st.integers(1, 300)), "log")
    lo = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 0.1))
    return GridSpec(lo, hi, draw(st.sampled_from([1, 2]) | st.integers(1, 300)))


def _outcome(bound, cfg):
    try:
        return bound(cfg)
    except DomainError as e:
        return f"error: {e}"


class TestBayesZetaSide:
    """The Bayes bounds read L, its refusals and log(1/L) in one place and
    keep them with the zeta-grid instance, for the last small ball read."""

    PAIRS = (
        (bayes_xu_raginsky_private, bayes_xu_raginsky_uncached),
        (bayes_egamma_lb, bayes_egamma_uncached),
    )

    @given(
        grid=_zeta_grids(),
        constant=st.none() | st.floats(_TINY, 2.0),
        info=st.sampled_from([0.0, 1e300]) | st.floats(0.0, 1e300),
        n=st.sampled_from([1, 2]) | st.integers(1, 10**6),
        delta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        epsilons=st.lists(st.sampled_from([0.0, math.inf]) | st.floats(0.0, 1000.0),
                          min_size=1, max_size=4),
    )
    def test_reports_equal_the_uncached_bodies(self, grid, constant, info, n, delta, epsilons):
        ball = small_ball_uniform01 if constant is None else (lambda z: constant)
        for eps in epsilons:  # the first call fills the grid's side, the rest read it
            cfg = BayesConfig(ball, info, n, PrivacyParams(eps, delta), grid)
            for bound, uncached in self.PAIRS:
                got, want = _outcome(bound, cfg), _outcome(uncached, cfg)
                assert got == want
                if isinstance(want, str):  # only e^eps may overflow, in the egamma bound
                    assert bound is bayes_egamma_lb and "e^epsilon overflows" in want
                    continue
                assert _bits(got.value) == _bits(want.value)
                assert [_bits(z) for z in got.witness.values()] == [
                    _bits(z) for z in want.witness.values()
                ]

    def test_small_ball_is_read_once_per_grid_instance(self):
        calls = []

        def ball(z):
            calls.append(z)
            return small_ball_uniform01(z)

        grid, gammas = GridSpec(1e-4, 0.5, 200, "log"), GridSpec(0.0, 4.0, 33)
        for i in range(50):
            cfg = BayesConfig(ball, 0.1 * i, 1 + i, PrivacyParams(0.06 * i, 0.01), grid, gammas,
                              np.zeros_like)
            for bound in TestBayesGrids.CALCULATORS:
                bound(cfg)
        assert len(calls) == 1 and calls[0] is grid.points()
        # an equal grid instance reads the ball once for itself
        twin = GridSpec(1e-4, 0.5, 200, "log")
        assert twin == grid
        for _ in range(3):
            bayes_egamma_lb(BayesConfig(ball, 0.1, 1, PrivacyParams(0.5, 0.0), twin))
        assert len(calls) == 2 and calls[1] is twin.points()

    def test_a_grid_keeps_only_the_last_ball(self):
        # each fresh ball once kept its own side for the life of the grid:
        # 200 lambdas on DEFAULT_ZETA_GRID kept 6.95 MB
        grid = GridSpec(1e-4, 0.5, 2000, "log")
        refs = []
        for i in range(200):
            ball = lambda z: small_ball_uniform01(z)  # a fresh callable each time
            refs.append(weakref.ref(ball))
            bayes_egamma_lb(BayesConfig(ball, 0.1, 2, PrivacyParams(0.01 * i, 0.01), grid))
        del ball
        gc.collect()
        assert [r() is None for r in refs] == [True] * 199 + [False]

    def test_equal_grids_keep_their_own_sides(self):
        # GridSpec(-0.0, 1.0, 1) == GridSpec(0.0, 1.0, 1), but L(-0.0) = -0.0
        # makes log(1/L) NaN; a side kept by grid value would mix the two
        calls = []

        def ball(z):
            calls.append(z)
            return small_ball_uniform01(z)

        minus, plus = GridSpec(-0.0, 1.0, 1), GridSpec(0.0, 1.0, 1)
        assert minus == plus
        params = PrivacyParams(0.5, 0.1)
        for _ in range(2):
            for grid, zero, mi_flags in [
                (minus, -0.0, ("no-feasible-zeta", "vacuous")),
                (plus, 0.0, ("vacuous",)),
            ]:
                cfg = BayesConfig(ball, 0.2, 2, params, grid)
                report = bayes_egamma_lb(cfg)
                assert _bits(report.value) == _bits(report.witness["zeta"]) == _bits(zero)
                assert bayes_xu_raginsky_private(cfg).flags == mi_flags
        assert len(calls) == 2

    @pytest.mark.parametrize("ball", [small_ball_uniform01, lambda z: 0.25],
                             ids=["uniform01", "constant"])
    def test_kept_arrays_are_read_only(self, ball):
        cfg = BayesConfig(ball, 0.1, 1, NONPRIVATE, GridSpec(0.0, 0.5, 11))
        kept = ldpkit.bounds._ball_on_grid(cfg)
        assert kept[0] is cfg.zeta_grid.points()
        for arr in kept:
            assert arr.shape == (11,) and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        assert all(a is b for a, b in zip(ldpkit.bounds._ball_on_grid(cfg), kept))

    def test_zero_constant_ball_gives_the_last_zeta(self):
        # L = 0 everywhere: log(1/L) = inf leaves the bracket at 1. A Python
        # 0.0 from the ball was once divided into 1.0, a ZeroDivisionError.
        cfg = BayesConfig(lambda z: 0.0, 0.3, 1, NONPRIVATE, GridSpec(0.0, 0.5, 11))
        report = bayes_xu_raginsky_private(cfg)
        assert (report.value, report.witness, report.flags) == (0.5, {"zeta": 0.5}, ())


def _xu_expression(cfg):
    """float.hex of the Xu-Raginsky bound's value and witness zeta, from its
    grid search spelled as one expression of the zeta side."""
    zetas, _, logs, feasible = ldpkit.bounds._ball_on_grid(cfg)
    numerator = phi_n(cfg.params, cfg.n) * cfg.info_value + LN2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bracket = 1.0 - numerator / logs
    vals = np.where(feasible, zetas * np.maximum(0.0, bracket), -np.inf)
    i = int(np.argmax(vals))
    if not math.isfinite(vals[i]):
        return "0x0.0p+0", None  # no feasible zeta: 0, with no witness
    return float(vals[i]).hex(), float(zetas[i]).hex()


def _egamma_expression(cfg):
    """float.hex of the E_gamma bound's value and witness zeta, from one expression."""
    gamma = ldpkit.contraction.gamma_from_epsilon(cfg.params.epsilon)
    c = cfg.params.delta if cfg.n == 1 else phi_n(cfg.params, cfg.n)
    zetas, ball, _, _ = ldpkit.bounds._ball_on_grid(cfg)
    penalty = gamma * ball if gamma < math.inf else np.where(ball > 0.0, math.inf, 0.0)
    vals = zetas * np.maximum(0.0, 1.0 - c * cfg.info_value - penalty)
    i = int(np.argmax(vals))
    return float(vals[i]).hex(), float(zetas[i]).hex()


def _hexes(bound, cfg):
    """float.hex of a bound's value and witness zeta, or the error it raises."""
    try:
        out = bound(cfg)
    except (DomainError, RuntimeWarning) as e:
        return type(e).__name__, str(e)
    if isinstance(out, tuple):
        return out
    return out.value.hex(), (out.witness["zeta"].hex() if out.witness else None)


class TestBayesOneBuffer:
    """The 1-D Bayes bounds build their zeta values in one buffer, in place:
    value and witness equal the one-expression forms bit for bit, with no
    -0.0 and no other first argmax."""

    @given(
        lo=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 0.6),
        hi=st.sampled_from([0.5, 1.0]) | st.floats(0.2, 2.0),
        steps=st.sampled_from([1, 2, 2000]) | st.integers(1, 300),
        log_scale=st.booleans(),
        constant=st.none() | st.sampled_from([0.0, _TINY, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0),
        info=st.sampled_from([0.0, _TINY, 1e-310, 1e300]) | st.floats(0.0, 1e300),
        n=st.sampled_from([1, 2]) | st.integers(1, 10**6),
        delta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        eps=st.sampled_from([0.0, _TINY, 1e-300, 1e-9, math.inf]) | st.floats(0.0, 800.0),
    )
    def test_equals_the_one_expression_forms(
        self, lo, hi, steps, log_scale, constant, info, n, delta, eps
    ):
        if steps > 1 and not lo < hi:
            lo, hi = hi, lo + 1.0
        if log_scale and lo <= 0.0:
            log_scale = False
        grid = GridSpec(lo, hi, steps, "log" if log_scale else "linear")
        ball = small_ball_uniform01 if constant is None else (lambda z: constant)
        cfg = BayesConfig(ball, info, n, PrivacyParams(eps, delta), grid)
        assert _hexes(bayes_xu_raginsky_private, cfg) == _hexes(_xu_expression, cfg)
        assert _hexes(bayes_egamma_lb, cfg) == _hexes(_egamma_expression, cfg)

    def test_negative_bracket_gives_positive_zero_at_the_first_zeta(self):
        # the bracket is negative at every zeta: every value is +0.0, and the
        # witness is the first of the tied grid points
        cfg = BayesConfig(small_ball_uniform01, 1e300, 2, PrivacyParams(0.5, 0.5),
                          GridSpec(0.1, 0.4, 4))
        for bound in (bayes_xu_raginsky_private, bayes_egamma_lb):
            report = bound(cfg)
            assert (report.value.hex(), report.witness) == ("0x0.0p+0", {"zeta": 0.1})


class TestBayesGammaOpt:
    def test_requires_info_fn(self):
        cfg = BayesConfig(
            small_ball=small_ball_uniform01, info_value=0.0, n=1, params=NONPRIVATE
        )
        with pytest.raises(DomainError):
            bayes_gamma_opt_lb(cfg)

    def test_bernoulli_uniform_value(self):
        cfg = BayesConfig(
            small_ball=small_ball_uniform01,
            info_value=0.0,
            n=1,
            params=NONPRIVATE,
            info_fn=partial(bu_igamma, BernoulliUniformModel(1)),
        )
        report = bayes_gamma_opt_lb(cfg)
        assert report.value == pytest.approx(2.0 / 27.0, abs=1e-4)
        assert report.witness["zeta"] == pytest.approx(1.0 / 6.0, abs=2e-3)
        assert report.witness["gamma"] == pytest.approx(4.0 / 3.0, abs=5e-3)
        assert report.witness["gamma"] > 0.0

    def test_info_fn_called_once_on_the_gamma_grid(self):
        seen, balls = [], []

        def info_fn(g):
            seen.append(np.array(g, copy=True))
            return bu_igamma(BernoulliUniformModel(2), g)

        def small_ball(z):
            balls.append(np.array(z, copy=True))
            return small_ball_uniform01(z)

        grid = GridSpec(0.0, 4.0, 33)
        cfg = BayesConfig(
            small_ball=small_ball,
            info_value=0.0,
            n=2,
            params=NONPRIVATE,
            info_fn=info_fn,
            gamma_grid=grid,
        )
        bayes_gamma_opt_lb(cfg)
        assert len(seen) == 1
        assert np.array_equal(seen[0], grid.points())
        # the small ball is called once too, on the zeta grid, as the 1-d bounds call it
        assert len(balls) == 1
        assert np.array_equal(balls[0], cfg.zeta_grid.points())

    def test_oversized_mesh_is_refused_before_info_fn(self):
        def info_fn(g):
            raise AssertionError("info_fn called")

        cfg = BayesConfig(
            small_ball=small_ball_uniform01,
            info_value=0.0,
            n=2,
            params=NONPRIVATE,
            info_fn=info_fn,
            zeta_grid=GridSpec(1e-4, 0.5, 2**15, "log"),
            gamma_grid=GridSpec(0.0, 4.0, MAX_MESH_POINTS // 2**15 + 1),
        )
        message = "^zeta x gamma mesh = 33587200 is over the cap 33554432$"
        with pytest.raises(CapacityError, match=message):
            bayes_gamma_opt_lb(cfg)

    def test_zero_information_at_gamma_one(self):
        # with I identically 0 the gamma = 1 row reduces to sup z (1 - L(z))
        cfg = BayesConfig(
            small_ball=small_ball_uniform01,
            info_value=0.0,
            n=1,
            params=NONPRIVATE,
            info_fn=lambda g: 0.0,
            gamma_grid=GridSpec(0.0, 4.0, 5),
        )
        report = bayes_gamma_opt_lb(cfg)
        zetas = cfg.zeta_grid.points()
        at_gamma_one = max(z * max(0.0, 1.0 - min(2.0 * z, 1.0)) for z in zetas)
        assert report.value >= at_gamma_one - 1e-15

    def test_dominates_fixed_gamma_bound_on_shared_grid(self):
        # at n = 1, delta = 1 the fixed-gamma bound is the gamma = e^eps slice
        for eps in (0.2, 0.6, 1.0):
            gamma = math.exp(eps)
            base_grid = np.linspace(0.0, 4.0, 400)
            shared = np.sort(np.append(base_grid, gamma))
            params = PrivacyParams(eps, 1.0)
            fixed = bayes_egamma_lb(
                BayesConfig(
                    small_ball=small_ball_uniform01,
                    info_value=bu_igamma_n1(gamma),
                    n=1,
                    params=params,
                )
            )
            zetas = GridSpec(1e-4, 0.5, 2000, "log").points()

            z, g = zetas[:, None], shared[None, :]
            ig = np.vectorize(bu_igamma_n1)(g)
            ball = np.minimum(2.0 * z, 1.0)
            vals = z * np.maximum(0.0, 1.0 - ig - g * ball - np.maximum(1.0 - g, 0.0))
            assert vals.max() >= fixed.value - 1e-12


@lru_cache(maxsize=None)
def _bu_model(n: int) -> BernoulliUniformModel:
    return BernoulliUniformModel(n)


def _with_nan_at(index: int, info_fn):
    def info(g):
        vals = np.array(info_fn(g), dtype=float)
        vals[min(index, vals.size - 1)] = np.nan
        return vals

    return info


_BALLS = {
    "uniform01": small_ball_uniform01,
    "constant": lambda z: 0.05,
    "non-monotone": lambda z: np.abs(np.sin(40.0 * z)),
    "inf-above-0.3": lambda z: np.where(z > 0.3, np.inf, np.minimum(2.0 * z, 1.0)),
}


@st.composite
def _gamma_opt_configs(draw):
    if draw(st.booleans()):
        lo = draw(st.sampled_from([0.0, 1e-3, 0.05]))
        zetas = GridSpec(lo, draw(st.floats(0.2, 1.0)), draw(st.integers(1, 600)))
    else:
        lo = draw(st.floats(1e-6, 1e-2))
        zetas = GridSpec(lo, draw(st.floats(0.2, 1.0)), draw(st.integers(1, 600)), "log")
    g_lo = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    gammas = GridSpec(g_lo, g_lo + draw(st.floats(0.5, 6.0)), draw(st.integers(1, 300)))
    kind = draw(st.sampled_from(["bu", "constant", "nan"]))
    if kind == "constant":
        # an information of at least 1 nat makes every cell 0
        info_fn = partial(np.full_like, fill_value=draw(st.sampled_from([1.0, 2.5])))
    else:
        info_fn = partial(bu_igamma, _bu_model(draw(st.integers(1, 12))))
        if kind == "nan":
            info_fn = _with_nan_at(draw(st.integers(0, gammas.steps - 1)), info_fn)
    ball = draw(st.sampled_from(sorted(_BALLS)))
    cfg = BayesConfig(_BALLS[ball], 0.0, 1, NONPRIVATE, zetas, gammas, info_fn)
    return cfg, kind, ball, draw(st.sampled_from([8, 800, ldpkit.bounds.MESH_BLOCK_BYTES]))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestGammaOptBlocks:
    """The blocked evaluation of the mesh against the whole mesh."""

    @given(_gamma_opt_configs())
    def test_equals_the_full_mesh_bit_for_bit(self, case):
        cfg, kind, ball, block_bytes = case
        if kind == "nan" or not np.isfinite(cfg.small_ball(cfg.zeta_grid.points())).all():
            # a NaN I_gamma, or an inf L where zeta > 0.3 is on the grid
            with pytest.raises(DomainError, match="must be finite on the gamma and zeta grids"):
                bayes_gamma_opt_lb(cfg)
            return
        with pytest.MonkeyPatch.context() as mp:
            # 8 bytes is one row a block, 800 a few rows at most
            mp.setattr(ldpkit.bounds, "MESH_BLOCK_BYTES", block_bytes)
            report = bayes_gamma_opt_lb(cfg)
            value, witness, flags = gamma_opt_full_mesh(cfg)
        assert _bits(report.value) == _bits(value)
        assert (report.witness, report.flags) == (witness, flags)
        if kind == "constant":
            first = {"zeta": cfg.zeta_grid.points()[0], "gamma": cfg.gamma_grid.points()[0]}
            assert (report.value, report.witness) == (0.0, first) and "vacuous" in report.flags

    def test_a_tie_with_a_higher_bound_block_keeps_the_first_cell(self, monkeypatch):
        # With gamma = 1, I = 0 and two rows a block, zeta = 0.25, 0.5 and 1
        # all give 0.25 exactly; the block {0.5, 0.75} has the highest bound
        # (0.75 (1 - 0.5)), so it is evaluated first, but the cell at 0.25
        # comes first in row order.
        ball = partial(np.interp, xp=[0.0, 0.25, 0.5, 0.75, 1.0], fp=[0.0, 0.0, 0.5, 0.75, 0.75])
        cfg = BayesConfig(ball, 0.0, 1, NONPRIVATE, GridSpec(0.0, 1.0, 5), GridSpec(1.0, 1.0, 1),
                          np.zeros_like)
        monkeypatch.setattr(ldpkit.bounds, "MESH_BLOCK_BYTES", 16)
        report = bayes_gamma_opt_lb(cfg)
        assert (report.value, report.witness) == (0.25, {"zeta": 0.25, "gamma": 1.0})
        assert (report.value, report.witness, report.flags) == gamma_opt_full_mesh(cfg)

    # Each of these once gave a NaN value with no error and no flag.
    @pytest.mark.parametrize("info_fn, small_ball", [
        (lambda g: np.where(g == 2.0, np.nan, 0.1), small_ball_uniform01),
        (lambda g: np.full_like(g, 0.1), lambda z: np.full_like(z, np.inf)),
    ], ids=["nan-information", "inf-ball"])
    def test_non_finite_information_or_ball_is_refused(self, info_fn, small_ball):
        cfg = BayesConfig(small_ball, 0.0, 1, NONPRIVATE, gamma_grid=GridSpec(0.0, 4.0, 9),
                          info_fn=info_fn)
        with pytest.raises(DomainError, match="must be finite on the gamma and zeta grids"):
            bayes_gamma_opt_lb(cfg)

    @pytest.mark.parametrize("gamma_grid, edge", [
        (GridSpec(0.0, 4.0, 81), False), (GridSpec(2.0, 4.0, 9), True),
        (GridSpec(0.0, 1.0, 9), True), (GridSpec(1.0, 4.0, 1), True),
    ])
    def test_grid_edge_witness_matches_the_full_mesh(self, gamma_grid, edge):
        cfg = BayesConfig(small_ball_uniform01, 0.0, 1, NONPRIVATE, DEFAULT_ZETA_GRID,
                          gamma_grid, partial(bu_igamma, _bu_model(1)))
        report = bayes_gamma_opt_lb(cfg)
        value, witness, flags = gamma_opt_full_mesh(cfg)
        assert (_bits(report.value), report.witness, report.flags) == (_bits(value), witness, flags)
        assert ("gamma-at-grid-edge" in report.flags) is edge

    def test_peak_memory_is_a_block_not_the_mesh(self):
        # the default 2000 x 800 mesh alone is 12.8 MB of float64
        info = bu_igamma(_bu_model(2), DEFAULT_GAMMA_GRID.points())
        cfg = BayesConfig(small_ball_uniform01, 0.0, 2, NONPRIVATE, DEFAULT_ZETA_GRID,
                          DEFAULT_GAMMA_GRID, lambda g: info)
        bayes_gamma_opt_lb(cfg)  # the grids' points are built and kept
        tracemalloc.start()
        try:
            bayes_gamma_opt_lb(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * DEFAULT_ZETA_GRID.steps * DEFAULT_GAMMA_GRID.steps / 4


class TestScalarBounds:
    def test_ht_examples(self):
        assert ht_exponent(3.0, BLOCKED).value == 0.0
        assert ht_exponent(2.5, NONPRIVATE).value == -2.5
        assert ht_exponent(1.0, PrivacyParams(math.log(2.0), 0.0)).value == pytest.approx(
            -0.5, abs=1e-15
        )

    @pytest.mark.parametrize("kl", [3.0, math.inf])
    def test_ht_without_leak_is_positive_zero(self, kl):
        value = ht_exponent(kl, BLOCKED).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_mi_cap_examples(self):
        assert mi_cap(0.7, BLOCKED).value == 0.0
        assert mi_cap(0.7, NONPRIVATE).value == 0.7
        with pytest.raises(DomainError):
            mi_cap(-0.1, NONPRIVATE)

    def test_reports_echo_inputs_without_flags(self):
        params = PrivacyParams(0.5, 1e-3)
        ht, cap = ht_exponent(2.0, params), mi_cap(0.7, params)
        assert (ht.bound_name, ht.witness, ht.flags) == ("ht_exponent", {}, ())
        assert ht.inputs == {"kl_p0_p1": 2.0, "epsilon": 0.5, "delta": 1e-3}
        assert (cap.bound_name, cap.witness, cap.flags) == ("mi_cap", {}, ())
        assert cap.inputs == {"entropy": 0.7, "epsilon": 0.5, "delta": 1e-3}

    def test_mi_cap_dominates_exact_binary_channel(self):
        for eps in np.linspace(0.0, 5.0, 21):
            k = randomized_response(float(eps))
            joint = JointDistribution(0.5 * k.rows)
            exact = f_information(joint, FGenerator("kl"))
            assert exact <= mi_cap(LN2, PrivacyParams(float(eps), 0.0)).value + 1e-12


class TestMonotonicityInPrivacy:
    def test_lower_bounds_nonincreasing_in_phi(self):
        eps_grid = np.linspace(0.0, 3.0, 13)
        lecam_vals = [
            lecam_private(1.0, 0.2, 5, PrivacyParams(float(e), 0.01)).value
            for e in eps_grid
        ]
        assert all(b <= a + 1e-12 for a, b in zip(lecam_vals, lecam_vals[1:]))
        xu_vals = [
            bayes_xu_raginsky_private(
                BayesConfig(
                    small_ball=small_ball_uniform01,
                    info_value=0.19,
                    n=4,
                    params=PrivacyParams(float(e), 0.01),
                )
            ).value
            for e in eps_grid
        ]
        assert all(b <= a + 1e-12 for a, b in zip(xu_vals, xu_vals[1:]))

    def test_magnitudes_nondecreasing_in_phi(self):
        eps_grid = np.linspace(0.0, 3.0, 13)
        ht_vals = [abs(ht_exponent(1.0, PrivacyParams(float(e), 0.0)).value) for e in eps_grid]
        cap_vals = [mi_cap(1.0, PrivacyParams(float(e), 0.0)).value for e in eps_grid]
        assert all(a <= b + 1e-12 for a, b in zip(ht_vals, ht_vals[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(cap_vals, cap_vals[1:]))
