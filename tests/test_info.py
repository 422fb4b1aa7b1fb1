import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldpkit.dist import Distribution, tv
from ldpkit.errors import DomainError
from ldpkit.info import (
    BernoulliUniformModel,
    simpson,
    JointDistribution,
    bu_class_marginal,
    bu_igamma,
    bu_igamma_closed_n1,
    bu_mutual_information,
    egamma_information,
    entropy,
    mutual_information,
)
from support import random_kernel

# Independent fine-grid trapezoid value for I(Theta; X^2), frozen before the
# Simpson implementation existed; agrees with the analytic value
# log(3) - 1 + log(2)/3.
BU_MI_N2_TRAPEZOID = 0.3296613488547582


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

    def test_marginals(self):
        j = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert np.allclose(j.marginal_a().probs, [0.5, 0.5])
        assert np.allclose(j.marginal_b().probs, [0.5, 0.5])


class TestMutualInformation:
    def test_independent_joint(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-14)

    def test_perfectly_correlated(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(j) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_example_value(self):
        j = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert mutual_information(j) == pytest.approx(expected, abs=1e-14)
        assert mutual_information(j) == pytest.approx(0.19274, abs=1e-5)


class TestEgammaInformation:
    def test_independent_joint_vanishes(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        for gamma in (1.0, 1.5, 3.0):
            assert egamma_information(j, gamma) <= 1e-12

    def test_gamma_one_is_tv_to_product(self):
        j = JointDistribution(np.array([[0.35, 0.15], [0.05, 0.45]]))
        flat = Distribution(j.probs.reshape(-1))
        prod = Distribution(np.outer(j.marginal_a().probs, j.marginal_b().probs).reshape(-1))
        assert egamma_information(j, 1.0) == pytest.approx(tv(flat, prod), abs=1e-14)

    def test_dpi_on_second_coordinate(self, rng):
        for _ in range(25):
            raw = rng.dirichlet(np.ones(6)).reshape(2, 3)
            j = JointDistribution(raw)
            k = random_kernel(rng, 3, 3)
            pushed = JointDistribution(j.probs @ k.rows)
            for gamma in (1.0, 1.8, 3.0):
                assert egamma_information(pushed, gamma) <= egamma_information(j, gamma) + 1e-10


class TestEntropy:
    def test_examples(self):
        assert entropy(Distribution.point_mass(2, 5)) == 0.0
        assert entropy(Distribution.uniform(7)) == pytest.approx(math.log(7.0), abs=1e-14)
        expected = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)
        assert entropy(Distribution.bernoulli(0.25)) == pytest.approx(expected, abs=1e-14)
        assert entropy(Distribution.bernoulli(0.25)) == pytest.approx(0.56233, abs=1e-5)


class TestBernoulliUniformModel:
    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            BernoulliUniformModel(0)

    def test_rejects_odd_panels(self):
        with pytest.raises(DomainError):
            BernoulliUniformModel(1, panels=333)

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


class TestBuIgamma:
    def test_closed_form_examples(self):
        assert bu_igamma_closed_n1(0.0) == 0.0
        assert bu_igamma_closed_n1(1.0) == 0.25
        assert bu_igamma_closed_n1(1.5) == 0.0625
        assert bu_igamma_closed_n1(2.0) == 0.0
        assert bu_igamma_closed_n1(3.7) == 0.0

    def test_quadrature_matches_closed_form_on_grid(self):
        model = BernoulliUniformModel(1)
        for gamma in np.arange(0.0, 2.5 + 1e-9, 0.01):
            assert bu_igamma(model, float(gamma)) == pytest.approx(
                bu_igamma_closed_n1(float(gamma)), abs=1e-6
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
            assert egamma_information(joint, gamma) == pytest.approx(
                bu_igamma_closed_n1(gamma), abs=1e-9
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_nonincreasing_convex_past_one_and_vanishing(self, n):
        # rises on [0, 1] (the (1 - gamma)_+ term), then nonincreasing and
        # convex on [1, n + 1], vanishing once gamma reaches n + 1
        model = BernoulliUniformModel(n, panels=4000)
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
        value = bu_mutual_information(BernoulliUniformModel(n, panels=2000))
        assert 0.0 < value < math.log(n + 1.0)

    def test_monotone_in_n(self):
        values = [
            bu_mutual_information(BernoulliUniformModel(n, panels=2000)) for n in (1, 2, 4, 8)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSimpson:
    @pytest.mark.parametrize("panels", [2, 4, 10, 1000])
    def test_exact_on_cubics(self, panels):
        x = np.linspace(-1.0, 2.0, panels + 1)
        y = 4.0 * x**3 - 3.0 * x**2 + 2.0 * x - 1.0
        exact = (16.0 - 1.0) - (8.0 + 1.0) + (4.0 - 1.0) - 3.0
        assert simpson(y, x[1] - x[0]) == pytest.approx(exact, abs=1e-12)

    def test_import_leaves_scipy_out(self):
        code = "import sys, ldpkit, ldpkit.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
