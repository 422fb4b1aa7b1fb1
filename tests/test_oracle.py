import math

import numpy as np
import pytest

from ldpkit.contraction import eta_gamma_two_point
from ldpkit.dist import Distribution, FGenerator, f_divergence
from ldpkit.errors import CapacityError, DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, pushforward, randomized_response
from ldpkit.ldp import delta_at
from ldpkit.oracle import DENOM_FLOOR, SearchConfig, brute_eta_f, brute_profile_check, grid_max
from support import audit_kernel_family, random_kernel


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(seed=1, trials=0)
        with pytest.raises(DomainError):
            SearchConfig(seed=1, trials=10, dirichlet_alpha=0.0)


class TestBruteEtaF:
    def test_constant_output_kernel_contracts_everything(self):
        # quotients of near-zero divergences keep a little float noise, so
        # "zero" is asserted at 1e-9
        cfg = SearchConfig(seed=2, trials=200)
        for f in (
            FGenerator.total_variation(),
            FGenerator.kl(),
            FGenerator.chi_squared(),
            FGenerator.hellinger_squared(),
            FGenerator.egamma(2.0),
        ):
            assert brute_eta_f(bsc(0.5), f, cfg) <= 1e-9

    def test_point_masses_attain_two_point_sup_exactly(self, rng):
        cfg = SearchConfig(seed=9, trials=500)
        for _ in range(10):
            k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            for gamma in (1.0, 1.5, math.e, 4.0):
                brute = brute_eta_f(k, FGenerator.egamma(gamma), cfg)
                two_point = eta_gamma_two_point(k, gamma).eta_gamma
                assert abs(brute - two_point) <= 1e-10

    @pytest.mark.parametrize(
        "f",
        [
            FGenerator.total_variation(),
            FGenerator.kl(),
            FGenerator.chi_squared(),
            FGenerator.hellinger_squared(),
            FGenerator.egamma(0.5),
            FGenerator.egamma(1.5),
        ],
    )
    def test_point_masses_are_pushed_forward_pairs_bit_for_bit(self, f, rng):
        # The sweep over point-mass pairs, one pair at a time through
        # pushforward and the scalar API, joined with the sampled pairs.
        for _ in range(5):
            d = int(rng.integers(2, 5))
            k = random_kernel(rng, d, int(rng.integers(2, 6)))
            sampled = brute_eta_f(k, f, SearchConfig(seed=5, trials=50, include_point_masses=False))
            ratios = [sampled]
            for x in range(d):
                for xp in range(d):
                    px, qx = Distribution.point_mass(x, d), Distribution.point_mass(xp, d)
                    den = f_divergence(px, qx, f)
                    if x != xp and math.isfinite(den) and den >= DENOM_FLOOR:
                        num = f_divergence(pushforward(px, k), pushforward(qx, k), f)
                        ratios.append(num / den)
            assert brute_eta_f(k, f, SearchConfig(seed=5, trials=50)) == max(ratios)

    def test_tv_matches_dobrushin_exactly(self, rng):
        cfg = SearchConfig(seed=13, trials=500)
        for _ in range(5):
            k = random_kernel(rng, 3, 3)
            assert brute_eta_f(k, FGenerator.total_variation(), cfg) == pytest.approx(
                eta_gamma_two_point(k, 1.0).eta_tv, abs=1e-12
            )

    def test_without_point_masses_only_lower(self):
        k = Kernel.identity(3)
        gamma = 2.0
        with_pm = brute_eta_f(k, FGenerator.egamma(gamma), SearchConfig(seed=4, trials=50))
        without = brute_eta_f(
            k, FGenerator.egamma(gamma), SearchConfig(seed=4, trials=50, include_point_masses=False)
        )
        assert without <= with_pm

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("f", [FGenerator.kl(), FGenerator.chi_squared()])
    def test_zero_output_column_changes_nothing(self, f):
        # An output no input emits gives 0/0 in the near-coincident terms;
        # it must add nothing, not turn the search's maximum into NaN.
        cfg = SearchConfig(seed=1, trials=200)
        with_zero = brute_eta_f(Kernel([[0.6, 0.4, 0.0], [0.1, 0.9, 0.0]]), f, cfg)
        assert with_zero == brute_eta_f(Kernel([[0.6, 0.4], [0.1, 0.9]]), f, cfg)

    def test_deterministic(self):
        cfg = SearchConfig(seed=31, trials=400)
        k = k_rr(0.8, 3)
        a = brute_eta_f(k, FGenerator.kl(), cfg)
        b = brute_eta_f(k, FGenerator.kl(), cfg)
        assert a == b


class TestBruteProfileCheck:
    def test_randomized_response_at_own_level(self):
        report = brute_profile_check(randomized_response(1.0), 1.0)
        assert report.delta <= 1e-12

    def test_identity_witness(self):
        report = brute_profile_check(Kernel.identity(2), 3.0)
        assert report.delta == 1.0
        assert report.witness_pair == (0, 1)
        assert report.witness_set == (0,)

    def test_bsc_at_zero(self):
        assert brute_profile_check(bsc(0.25), 0.0).delta == pytest.approx(0.5, abs=1e-15)

    def test_matches_formula_on_family(self):
        for name, k in audit_kernel_family():
            for eps in (0.0, 0.5, 1.0, 2.0):
                raw = brute_profile_check(k, eps).delta
                formula = delta_at(k, eps)
                assert abs(raw - formula) <= 1e-12, name

    def test_capacity_error(self):
        wide = Kernel(np.full((2, 21), 1.0 / 21))
        with pytest.raises(CapacityError):
            brute_profile_check(wide, 1.0)

    def test_infinite_epsilon_keeps_the_residual(self):
        k = Kernel(np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        report = brute_profile_check(k, math.inf)
        assert report.delta == 0.5 == delta_at(k, math.inf)
        assert report.witness_pair == (1, 0)
        assert report.witness_set == (2,)

    def test_negative_epsilon(self):
        with pytest.raises(DomainError):
            brute_profile_check(bsc(0.25), -1.0)


class TestGridMax:
    def test_constant_objective_takes_first_point(self):
        witness, value = grid_max(lambda z: 0.7, np.linspace(0.0, 1.0, 11))
        assert witness == (0.0,)
        assert value == 0.7

    def test_parabola(self):
        witness, value = grid_max(lambda z: z * (1.0 - 2.0 * z), np.linspace(0.0, 0.5, 2001))
        assert witness == (0.25,)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_single_point_grid(self):
        witness, value = grid_max(lambda z: z + 1.0, np.array([0.3]))
        assert witness == (0.3,)
        assert value == pytest.approx(1.3)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            grid_max(lambda z: z, np.array([]))

    def test_two_grids_tie_breaks_lexicographically(self):
        witness, value = grid_max(
            lambda a, b: np.zeros_like(a * b), np.array([1.0, 2.0]), np.array([5.0, 6.0])
        )
        assert witness == (1.0, 5.0)
        assert value == 0.0

    def test_two_grid_optimum(self):
        za = np.linspace(0.0, 1.0, 101)
        gb = np.linspace(0.0, 1.0, 101)
        witness, value = grid_max(lambda a, b: -((a - 0.3) ** 2) - (b - 0.7) ** 2, za, gb)
        assert witness[0] == pytest.approx(0.3, abs=1e-12)
        assert witness[1] == pytest.approx(0.7, abs=1e-12)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_three_grids_rejected(self):
        with pytest.raises(DomainError):
            grid_max(lambda a, b, c: a, np.array([1.0]), np.array([1.0]), np.array([1.0]))
