import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpkit.dist import Distribution, FGenerator, f_divergence
from ldpkit.errors import CapacityError, DimensionError, DomainError
from ldpkit.info import (
    MAX_BU_N,
    MAX_BU_WORK,
    BernoulliUniformModel,
    JointDistribution,
    _edge_left_ends,
    _tail_by_chunk,
    _tail_by_term,
    bu_igamma,
    bu_mutual_information,
    f_information,
)
from support import (
    bu_class_marginal,
    bu_classes_dense,
    bu_igamma_dense,
    bu_igamma_n1,
    bu_igamma_quadrature,
    bu_mutual_information_quadrature,
    ldpkit_path,
    random_kernel,
    simpson,
)

# Independent fine-grid trapezoid value for I(Theta; X^2), frozen before the
# Simpson implementation existed; agrees with the analytic value
# log(3) - 1 + log(2)/3.
BU_MI_N2_TRAPEZOID = 0.3296613488547582
KL = FGenerator("kl")


def trapezoid_bu_mi(n: int, points: int = 200001) -> float:
    theta = np.linspace(0.0, 1.0, points)
    acc = np.zeros_like(theta)
    for s in range(n + 1):
        m = math.comb(n, s) * theta**s * (1.0 - theta) ** (n - s)
        nz = m > 0
        acc[nz] += m[nz] * np.log((n + 1) * m[nz])
    h = theta[1] - theta[0]
    return float(h * (0.5 * acc[0] + acc[1:-1].sum() + 0.5 * acc[-1]))


class TestJointDistribution:
    def test_validation(self):
        with pytest.raises(DomainError):
            JointDistribution(np.array([[0.5, 0.6]]))
        with pytest.raises(DomainError):
            JointDistribution(np.array([[0.5, -0.1], [0.3, 0.3]]))

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([0.5, 0.5], DimensionError, "joint distribution must be a non-empty 2-d matrix"),
            ([[]], DimensionError, "joint distribution must be a non-empty 2-d matrix"),
            ([[np.nan, 0.5], [0.25, 0.25]], DomainError, "joint distribution entries must be finite"),
            ([[np.inf, 0.0]], DomainError, "joint distribution entries must be finite"),
        ],
    )
    def test_rejects_bad_shape_and_non_finite_entries(self, values, error, message):
        with pytest.raises(error, match=message):
            JointDistribution(np.array(values))


class TestMutualInformation:
    def test_independent_joint(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert f_information(j, KL) == pytest.approx(0.0, abs=1e-14)

    def test_perfectly_correlated(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert f_information(j, KL) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_example_value(self):
        j = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert f_information(j, KL) == pytest.approx(expected, abs=1e-14)
        assert f_information(j, KL) == pytest.approx(0.19274, abs=1e-5)


class TestEgammaInformation:
    def test_independent_joint_vanishes(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        for gamma in (1.0, 1.5, 3.0):
            assert f_information(j, FGenerator("egamma", gamma)) <= 1e-12

    def test_gamma_one_is_tv_to_product(self):
        j = JointDistribution(np.array([[0.35, 0.15], [0.05, 0.45]]))
        flat = Distribution(j.probs.reshape(-1))
        prod = Distribution(np.outer(j.probs.sum(axis=1), j.probs.sum(axis=0)).reshape(-1))
        assert f_information(j, FGenerator("egamma", 1.0)) == pytest.approx(
            f_divergence(flat, prod, FGenerator("tv")), abs=1e-14
        )

    def test_dpi_on_second_coordinate(self, rng):
        for _ in range(25):
            raw = rng.dirichlet(np.ones(6)).reshape(2, 3)
            j = JointDistribution(raw)
            k = random_kernel(rng, 3, 3)
            pushed = JointDistribution(j.probs @ k.rows)
            for f in (FGenerator("egamma", g) for g in (1.0, 1.8, 3.0)):
                assert f_information(pushed, f) <= f_information(j, f) + 1e-10


class TestBernoulliUniformModel:
    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            BernoulliUniformModel(0)

    def test_n_is_capped(self):
        assert BernoulliUniformModel(MAX_BU_N).n == MAX_BU_N
        with pytest.raises(CapacityError, match=f"n = {MAX_BU_N + 1} is over the cap {MAX_BU_N}"):
            BernoulliUniformModel(MAX_BU_N + 1)

    def test_class_marginal_sums_to_one_exactly(self):
        for n in range(1, 13):
            assert math.fsum(bu_class_marginal(n)) == 1.0

    def test_class_marginal_is_exactly_uniform_as_fractions(self):
        for n in range(1, 13):
            total = sum(
                Fraction(math.comb(n, s) * math.factorial(s) * math.factorial(n - s),
                         math.factorial(n + 1))
                for s in range(n + 1)
            )
            assert total == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 1001, 2000])
    def test_class_table_is_the_index_array_one_bit_for_bit(self, n):
        logh, table = BernoulliUniformModel(n)._classes
        logc, logh_dense, _, _, log_choose, u_mode, _ = bu_classes_dense(n)
        expected = np.stack([logc[1:], u_mode, log_choose])
        assert logh.tobytes() == logh_dense.tobytes()
        assert table.tobytes() == expected.tobytes()

    def test_class_table_peak_memory_is_what_it_keeps_and_log_factorials(self):
        # kept: the (3, n) table and the n + 1 log mode heights, 32 MB at the
        # cap; the n + 2 log-factorials and the classes s, overwritten by
        # s log(s/n), are the two other arrays of that size
        model = BernoulliUniformModel(MAX_BU_N)
        tracemalloc.start()
        try:
            model._classes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 7 * (MAX_BU_N + 2)


class TestBuIgamma:
    def test_closed_form_examples(self):
        assert bu_igamma_n1(0.0) == 0.0
        assert bu_igamma_n1(1.0) == 0.25
        assert bu_igamma_n1(1.5) == 0.0625
        assert bu_igamma_n1(2.0) == 0.0
        assert bu_igamma_n1(3.7) == 0.0

    def test_quadrature_matches_closed_form_on_grid(self):
        model = BernoulliUniformModel(1)
        for gamma in np.arange(0.0, 2.5 + 1e-9, 0.01):
            assert bu_igamma(model, float(gamma)) == pytest.approx(
                bu_igamma_n1(float(gamma)), abs=1e-6
            )

    def test_gamma_one_is_tv_of_joint(self):
        assert bu_igamma(BernoulliUniformModel(1), 1.0) == pytest.approx(0.25, abs=1e-9)

    def test_discretized_joint_cross_check(self):
        # midpoint discretization of the n = 1 model; the integrands are
        # piecewise linear in theta so the quantized value is nearly exact
        bins = 2000
        theta = (np.arange(bins) + 0.5) / bins
        joint = JointDistribution(np.stack([(1 - theta) / bins, theta / bins], axis=1))
        for gamma in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert f_information(joint, FGenerator("egamma", gamma)) == pytest.approx(
                bu_igamma_n1(gamma), abs=1e-9
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_nonincreasing_convex_past_one_and_vanishing(self, n):
        # rises on [0, 1] (the (1 - gamma)_+ term), then nonincreasing and
        # convex on [1, n + 1], vanishing once gamma reaches n + 1
        model = BernoulliUniformModel(n)
        rising = [bu_igamma(model, float(g)) for g in np.linspace(0.0, 1.0, 6)]
        assert np.all(np.diff(rising) >= -1e-9)
        grid = np.linspace(1.0, n + 1.0, 25)
        values = [bu_igamma(model, float(g)) for g in grid]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)
        assert np.all(np.diff(diffs) >= -1e-6)
        assert bu_igamma(model, float(n + 1)) <= 1e-6

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            bu_igamma(BernoulliUniformModel(1), -0.3)

    def test_nan_gamma_rejected(self):
        model = BernoulliUniformModel(3)
        with pytest.raises(DomainError):
            bu_igamma(model, float("nan"))
        with pytest.raises(DomainError):
            bu_igamma(model, np.array([0.5, float("nan"), 2.0]))
        with pytest.raises(DomainError):
            bu_igamma(model, np.array([0.5, -1e-300]))

    @pytest.mark.parametrize("n, admitted", [(MAX_BU_N, 1), (10**5, 31), (2000, 11111)])
    def test_work_is_capped_before_any_work(self, n, admitted):
        # gamma = 0 needs no class constants, so the admitted calls are instant
        model = BernoulliUniformModel(n)
        assert not bu_igamma(model, np.zeros(admitted)).any()
        root = math.ceil(math.sqrt(n))
        message = (rf"^{admitted + 1} gammas x {n} x {root} \(n x ceil\(sqrt n\)\) = "
                   rf"{(admitted + 1) * n * root} is over the cap {MAX_BU_WORK}$")
        with pytest.raises(CapacityError, match=message):
            bu_igamma(model, np.ones(admitted + 1))
        assert "_classes" not in vars(model)

    @pytest.mark.parametrize("n, gammas", [(4, 3), (5, 2)])  # ceil(sqrt n) = 2 and 3
    def test_work_cap_prices_gammas_n_and_the_root_of_n(self, monkeypatch, n, gammas):
        import ldpkit.info

        monkeypatch.setattr(ldpkit.info, "MAX_BU_WORK", n * math.ceil(math.sqrt(n)) * gammas)
        model = BernoulliUniformModel(n)
        assert bu_igamma(model, np.full(gammas, 1.5)).shape == (gammas,)
        with pytest.raises(CapacityError):
            bu_igamma(model, np.full(gammas + 1, 1.5))


def test_bu_igamma_class_constants_are_kept_per_model():
    # constants built for one n never leak into another model's calls
    gammas = np.array([0.5, 1.0, 2.5, 4.0, 5.5])
    fresh = {n: [bu_igamma(BernoulliUniformModel(n), float(g)) for g in gammas] for n in (5, 20)}
    reused = {n: BernoulliUniformModel(n) for n in (5, 20)}
    for n in (5, 20, 5):
        for model in (BernoulliUniformModel(n), reused[n]):
            assert [bu_igamma(model, float(g)) for g in gammas] == fresh[n]
            assert bu_igamma(model, gammas).tolist() == fresh[n]


def mode_heights(n: int) -> np.ndarray:
    """max over theta of each class density f_s, the Beta(s+1, n-s+1) density at s/n."""
    def log_height(s):
        out = math.lgamma(n + 2) - math.lgamma(s + 1) - math.lgamma(n - s + 1)
        if s:
            out += s * math.log(s / n)
        if n - s:
            out += (n - s) * math.log((n - s) / n)
        return out

    return np.exp([log_height(s) for s in range(n + 1)])


class TestBuIgammaClosedForm:
    # The Simpson oracle's integrands have kinks where f_s = gamma, so its
    # error is O(h^2) with an irregular constant. Each case evaluates it at
    # `panels` and 2 * `panels` and asserts the two agree to TOL: that
    # difference is about three times the finer value's error, so TOL is at
    # least the oracle's own error. Measured, the closed form sits within
    # 1e-9 of the finer oracle for n <= 20 and within 2e-8 up to n = 2000.
    # TOL is 1e-8 for n <= 20 and 1e-7 (the benchmark's BU tolerance) beyond,
    # where the kinks sharpen: (log f_s)' at the ends of {f_s > gamma} grows
    # like sqrt(n).
    CASES = [
        (1, 40000), (2, 40000), (3, 40000), (5, 40000), (20, 40000), (100, 20000), (2000, 10000),
    ]

    @pytest.mark.parametrize("n,panels", CASES)
    def test_matches_simpson_oracle(self, n, panels):
        tol = 1e-8 if n <= 20 else 1e-7
        heights = mode_heights(n)
        if n <= 5:
            gammas = [0.3, 1.0, 1.7, n + 0.5, *heights]
        elif n <= 100:
            gammas = [0.3, 1.0, 2.5, heights[1], heights[n // 2]]
        else:
            gammas = [1.0]
        model = BernoulliUniformModel(n)
        for gamma in gammas:
            coarse = bu_igamma_quadrature(n, float(gamma), panels)
            fine = bu_igamma_quadrature(n, float(gamma), 2 * panels)
            assert abs(coarse - fine) < tol, (n, gamma)  # the oracle resolves tol
            assert bu_igamma(model, float(gamma)) == pytest.approx(fine, abs=tol), (n, gamma)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 2000])
    def test_zero_and_past_the_largest_density(self, n):
        model = BernoulliUniformModel(n)
        assert bu_igamma(model, 0.0) == 0.0
        # f_0(0) = f_n(1) = n + 1 is the largest density value
        for gamma in (n + 1.0, n + 1.5, 1e300, math.inf):
            assert bu_igamma(model, gamma) == 0.0
        assert 0.0 <= bu_igamma(model, math.nextafter(n + 1.0, 0.0)) <= 1e-12
        # I_gamma = (1/(n+1)) sum_s integral [gamma - f_s]_+ <= gamma below 1
        for gamma in (5e-324, 1e-300, 1e-12, 1e-3):
            assert 0.0 <= bu_igamma(model, gamma) <= gamma

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 200])
    def test_gamma_at_each_mode_height(self, n):
        # at gamma = max f_s class s's superlevel set shrinks to a point; I_gamma
        # is 1-Lipschitz, so the values an ulp either side agree to ~1e-13
        heights = mode_heights(n)
        below = np.nextafter(heights, 0.0)
        above = np.nextafter(heights, np.inf)
        model = BernoulliUniformModel(n)
        values = bu_igamma(model, np.stack([below, heights, above]))
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert np.abs(values - values[1]).max() <= 1e-12

    def test_mode_heights_at_large_n(self):
        n = 2000
        heights = mode_heights(n)[[1, n // 3, n // 2, n - 1]]
        model = BernoulliUniformModel(n)
        values = bu_igamma(model, np.stack([np.nextafter(heights, 0.0), heights]))
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert np.abs(values[0] - values[1]).max() <= 1e-12

    def test_n1_is_the_piecewise_quadratic(self):
        gammas = np.concatenate([np.linspace(0.0, 3.0, 3001), [1.0, 2.0, 1e-300]])
        values = bu_igamma(BernoulliUniformModel(1), gammas)
        expected = np.array([bu_igamma_n1(float(g)) for g in gammas])
        assert np.abs(values - expected).max() <= 1e-15

    @given(
        st.integers(1, 40),
        st.lists(
            st.one_of(
                st.floats(0.0, 45.0, allow_nan=False),
                st.sampled_from([0.0, 1.0, math.inf, 5e-324]),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_array_call_equals_scalar_calls_bit_for_bit(self, n, gammas):
        model = BernoulliUniformModel(n)
        values = bu_igamma(model, np.array(gammas))
        assert values.shape == (len(gammas),)
        for gamma, value in zip(gammas, values):
            scalar = bu_igamma(model, gamma)
            assert type(scalar) is float
            assert scalar.hex() == float(value).hex()

    def test_blocks_of_a_long_grid_match_scalar_calls(self, monkeypatch):
        import ldpkit.info

        monkeypatch.setattr(ldpkit.info, "_BLOCK", 64)  # three gamma values per block
        model = BernoulliUniformModel(20)
        gammas = np.linspace(0.0, 22.0, 41)
        values = bu_igamma(model, gammas)
        assert bits(values) == bits([bu_igamma(model, float(g)) for g in gammas])

    def test_array_shape_is_kept(self):
        model = BernoulliUniformModel(4)
        grid = np.linspace(0.0, 6.0, 12).reshape(3, 4)
        values = bu_igamma(model, grid)
        assert values.shape == (3, 4)
        assert values[2, 1] == bu_igamma(model, float(grid[2, 1]))
        assert type(bu_igamma(model, np.float64(1.5))) is float


def bits(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def ulps_away(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


@st.composite
def bu_gamma_calls(draw):
    """(n, gamma): gamma a 0-d form (int, float, np.float64, 0-d array) or
    a 1-d or 2-d array with repeats, at class mode heights give or take a
    few ulps, at the edges 0, 1, 5e-324, n + 1 and inf, or anywhere."""
    n = draw(st.sampled_from([*range(1, 61), 500, 2000]))
    heights = mode_heights(n)
    point = st.one_of(
        st.builds(lambda s, k: ulps_away(float(heights[s]), k), st.integers(0, n), st.integers(-3, 3)),
        st.sampled_from([0.0, 1.0, 5e-324, n + 1.0, math.nextafter(n + 1.0, 0.0), math.inf]),
        st.floats(0.0, n + 2.0),
    )
    form = draw(st.sampled_from(["int", "float", "float64", "0-d", "1-d", "2-d"]))
    if form == "int":
        return n, draw(st.integers(0, n + 2))
    if form in ("float", "float64", "0-d"):
        x = draw(point)
        return n, {"float": x, "float64": np.float64(x), "0-d": np.array(x)}[form]
    values = draw(st.lists(point, min_size=1, max_size=6 if n >= 500 else 16))
    values += draw(st.lists(st.sampled_from(values), max_size=4))  # repeats
    if form == "2-d":
        values = values[: len(values) // 2 * 2] or values * 2
        return n, np.array(values).reshape(2, -1)
    return n, np.array(values)


@settings(max_examples=60, deadline=None)
@given(bu_gamma_calls())
def test_bu_igamma_is_the_dense_rectangle_bit_for_bit(call):
    n, gamma = call
    value = bu_igamma(BernoulliUniformModel(n), gamma)
    expected = bu_igamma_dense(n, np.asarray(gamma, dtype=float).reshape(-1))
    if np.ndim(gamma) == 0:
        assert type(value) is float
    else:
        assert value.shape == np.shape(gamma)
    assert bits(value) == bits(expected)


@pytest.mark.parametrize(
    "setting",
    [
        {"_FEW_CELLS": 1},  # every block loops over tail terms
        {"_FEW_CELLS": 1 << 30, "_CHUNK": 1},  # every block sums its tails in one-term chunks
        {"_BLOCK": 16},  # each gamma's classes in passes of 16 cells
        {"_FEW_CELLS": 1, "_NEWTON_CAP": 3},  # Newton stops at the cap, tails term by term
        {"_NEWTON_CAP": 3},  # Newton stops at the cap, the default tail split
    ],
)
def test_each_path_is_the_dense_rectangle_bit_for_bit(monkeypatch, setting):
    import ldpkit.info

    for name, value in setting.items():
        monkeypatch.setattr(ldpkit.info, name, value)
    for n in (1, 7, 40, 200):
        heights = mode_heights(n)
        gammas = np.concatenate([
            np.linspace(0.0, n + 2.0, 23), heights, np.nextafter(heights, 0.0),
            [5e-324, 1.0, math.nextafter(n + 1.0, 0.0), math.inf],
        ])
        model = BernoulliUniformModel(n)
        expected = bu_igamma_dense(n, gammas)
        assert bits(bu_igamma(model, gammas)) == bits(expected), n
        assert bits([bu_igamma(model, float(g)) for g in gammas[::5]]) == bits(expected[::5]), n


# gammas at which class n's left end steps past u_lo, its first Newton
# iterate, found with the class-n iteration of the general Newton solver
# (grids linspace(0, n + 1, 4001), and linspace(0, 6, 4001) at n = 5)
PAST_U_LO = {
    3: ["0x1.4189374bc6a7fp-3", "0x1.51eb851eb851fp-3"],
    5: ["0x1.89374bc6a7efap-10", "0x1.26e978d4fdf3cp-8", "0x1.eb851eb851eb8p-8"],
    7: ["0x1.89374bc6a7efap-6", "0x1.a9fbe76c8b43ap-6"],
    40: ["0x1.6f5c28f5c28f6p-2", "0x1.845a1cac08313p-2"],
    200: ["0x1.4e76c8b439581p-1", "0x1.0e24dd2f1a9fcp+0"],
}


def steps_past_u_lo(n: int, gammas) -> int:
    """How many of the gammas (those where class n is active) have class n's
    left end past u_lo = (log gamma - log(n + 1)) / n."""
    logh, table = BernoulliUniformModel(n)._classes
    logg = np.log(np.asarray(gammas, dtype=float))
    logg = logg[logg < logh[n]]
    u = _edge_left_ends(n, table[0, -1], logg)
    return int(np.count_nonzero(u != (logg - table[0, -1]) / n))


class TestEdgeClass:
    """Class n is solved apart from the Newton iteration and the tail sums
    of the interior classes 1..n-1, with the same values bit for bit."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import ldpkit.info

        counts = {}
        for name in ("_log_left_ends", "_tail_by_chunk", "_tail_by_term"):
            def counted(*args, _inner=getattr(ldpkit.info, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _inner(*args)

            monkeypatch.setattr(ldpkit.info, name, counted)
        return counts

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 20, 200])
    def test_a_gamma_above_every_interior_mode_runs_no_newton(self, calls, n):
        logh = bu_classes_dense(n)[1]
        heights = mode_heights(n)[1:n]
        top = heights.max(initial=0.0)
        gammas = [
            *np.linspace(top, n + 1.0, 9)[1:-1], *heights, *np.nextafter(heights, 0.0),
            math.nextafter(n + 1.0, 0.0), 0.5 * top or 0.5, 1.0,
        ]
        model = BernoulliUniformModel(n)
        edge_only = []
        for gamma in gammas:
            calls.clear()
            value = bu_igamma(model, float(gamma))
            # the interior classes active at gamma, as the dense reference has them
            interior = int(bool((math.log(gamma) < logh[1:n]).any()))
            assert calls.get("_log_left_ends", 0) == interior, gamma
            assert calls.get("_tail_by_chunk", 0) + calls.get("_tail_by_term", 0) == interior, gamma
            assert value.hex() == float(bu_igamma_dense(n, np.array([gamma]))[0]).hex(), gamma
            if not interior:
                edge_only.append(gamma)
        assert len(edge_only) >= 8  # the 7 gammas between top and n + 1, and nextafter(n + 1, 0)
        if n > 1:  # a gamma below an interior mode height still runs Newton
            calls.clear()
            bu_igamma(model, 0.5 * top)
            assert calls["_log_left_ends"] == 1
        calls.clear()
        values = bu_igamma(model, np.array(edge_only))
        assert calls == {}
        assert bits(values) == bits(bu_igamma_dense(n, np.array(edge_only)))
        assert bits(bu_igamma(model, np.array(gammas))) == bits(bu_igamma_dense(n, np.array(gammas)))

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_a_curve_of_scalar_calls_is_one_array_call_and_the_dense_one(self, n):
        # the Figure-1 curve: gamma = e^epsilon at 60 epsilon, one call each
        gammas = np.array([math.exp(e) for e in np.linspace(0.01, 3.0, 60)])
        model = BernoulliUniformModel(n)
        scalar = [bu_igamma(model, float(g)) for g in gammas]
        assert bits(scalar) == bits(bu_igamma(model, gammas)) == bits(bu_igamma_dense(n, gammas))
        if n > 5:  # at n = 5 no point of this curve steps past u_lo
            assert steps_past_u_lo(n, gammas) > 0

    @pytest.mark.parametrize("n", sorted(PAST_U_LO))
    def test_class_n_past_its_first_iterate(self, n):
        gammas = np.array([float.fromhex(g) for g in PAST_U_LO[n]])
        assert steps_past_u_lo(n, gammas) == gammas.size
        model = BernoulliUniformModel(n)
        expected = bits(bu_igamma_dense(n, gammas))
        assert bits([bu_igamma(model, float(g)) for g in gammas]) == expected
        assert bits(bu_igamma(model, gammas)) == expected


@st.composite
def tail_cells(draw):
    """(n, cells): cells (s, a) in class order, 1 <= s < n <= 2000 and
    a in (0, s/n], with a = s/n, the mode, drawn often."""
    n = draw(st.integers(2, 2000))
    a_for = lambda s: st.one_of(st.just(s / n), st.floats(0.0, s / n, exclude_min=True))
    cell = st.integers(1, n - 1).flatmap(lambda s: st.tuples(st.just(s), a_for(s)))
    return n, sorted(draw(st.lists(cell, min_size=1, max_size=8)))


def every_tail_term(n: int, s: int, odds: float) -> float:
    """1 + each of the n - s later terms of class s's tail over its first, at
    the given odds, summed in order with no stop."""
    term = total = 1.0
    for t in range(n - s):
        term = term * ((n - s - t) / (s + (t + 2.0))) * odds
        total += term
    return total


@settings(max_examples=100, deadline=None)
@given(tail_cells())
def test_tail_stop_rule_sums_every_term_bit_for_bit(case):
    # the stop lemma of _tail_by_term: past the cut at _TAIL_EPS no term
    # changes a bit of its sum, in either tail function
    n, cells = case
    s = np.array([c for c, _ in cells], dtype=float)
    a = np.array([a for _, a in cells])
    odds = a / (1.0 - a)
    expected = bits([every_tail_term(n, int(c), o) for c, o in zip(s, odds)])
    assert bits(_tail_by_term(s.astype(int) - 1, odds, n)) == expected
    assert bits(_tail_by_chunk(s, n - s, odds, n)) == expected


class TestBuMutualInformation:
    def test_n1_analytic(self):
        value = bu_mutual_information(BernoulliUniformModel(1))
        assert value == pytest.approx(math.log(2.0) - 0.5, abs=1e-7)
        assert value == pytest.approx(0.19315, abs=1e-4)

    def test_n2_matches_frozen_trapezoid_oracle(self):
        value = bu_mutual_information(BernoulliUniformModel(2))
        assert value == pytest.approx(BU_MI_N2_TRAPEZOID, abs=1e-6)

    def test_trapezoid_oracle_reproducible(self):
        assert trapezoid_bu_mi(2) == pytest.approx(BU_MI_N2_TRAPEZOID, abs=1e-9)

    @given(st.integers(1, 8))
    def test_bounded_by_prior_entropy_proxy(self, n):
        # I(Theta; X^n) grows with n but never exceeds log(n + 1)
        value = bu_mutual_information(BernoulliUniformModel(n))
        assert 0.0 < value < math.log(n + 1.0)

    def test_monotone_in_n(self):
        values = [bu_mutual_information(BernoulliUniformModel(n)) for n in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
    def test_matches_simpson_oracle(self, n):
        # The oracle's error is O(h^2) from the x log x endpoint behaviour and
        # grows with n; its panel-halving difference (about three times the
        # finer value's error) is asserted below the 1e-7 tolerance first.
        coarse = bu_mutual_information_quadrature(n, 20000)
        fine = bu_mutual_information_quadrature(n, 40000)
        assert abs(coarse - fine) < 1e-7
        assert bu_mutual_information(BernoulliUniformModel(n)) == pytest.approx(fine, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 3000])
    def test_matches_harmonic_number_sum_in_extended_precision(self, n):
        # log(n+1) + (1/(n+1)) sum_s [log C(n,s) + s (H_s - H_{n+1}) + (n-s)(H_{n-s} - H_{n+1})],
        # the sum before its closed-form reduction, at 30 digits; the float
        # result's own rounding is about 1e-15
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            harmonic = [mpmath.mpf(0)]
            for k in range(1, n + 2):
                harmonic.append(harmonic[-1] + mpmath.mpf(1) / k)
            total = mpmath.fsum(
                mpmath.log(mpmath.binomial(n, s))
                + s * (harmonic[s] - harmonic[n + 1])
                + (n - s) * (harmonic[n - s] - harmonic[n + 1])
                for s in range(n + 1)
            )
            exact = float(mpmath.log(n + 1) + total / (n + 1))
        assert bu_mutual_information(BernoulliUniformModel(n)) == pytest.approx(exact, abs=1e-14)


class TestSimpson:
    @pytest.mark.parametrize("panels", [2, 4, 10, 1000])
    def test_exact_on_cubics(self, panels):
        x = np.linspace(-1.0, 2.0, panels + 1)
        y = 4.0 * x**3 - 3.0 * x**2 + 2.0 * x - 1.0
        exact = (16.0 - 1.0) - (8.0 + 1.0) + (4.0 - 1.0) - 3.0
        assert simpson(y, x[1] - x[0]) == pytest.approx(exact, abs=1e-12)

    def test_import_leaves_scipy_out(self):
        code = (
            "import importlib, sys, ldpkit; "
            "[importlib.import_module(f'ldpkit.{m}') for m in [*ldpkit._EXPORTS, 'cli']]; "
            "print('scipy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=ldpkit_path())
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
