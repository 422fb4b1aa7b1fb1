import math

import numpy as np
import pytest

import ldpkit.oracle
from ldpkit.contraction import two_point_scan
from ldpkit.dist import Distribution, FGenerator, f_divergence
from ldpkit.errors import CapacityError, DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, randomized_response
from ldpkit.ldp import delta_at
from ldpkit.oracle import (
    DENOM_FLOOR, MAX_PROFILE_WORK, MAX_SAMPLES, SearchConfig, brute_eta_f, brute_profile_check,
)
from support import audit_kernel_family, pushforward, random_kernel


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(seed=1, trials=0)
        with pytest.raises(DomainError):
            SearchConfig(seed=1, trials=10, dirichlet_alpha=0.0)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            SearchConfig(seed=-1, trials=10)

    def test_sample_arrays_are_capped_before_drawing(self, monkeypatch):
        trials = MAX_SAMPLES // 4 + 1
        message = f"^{trials} trials x 4 inputs = {4 * trials} is over the cap {MAX_SAMPLES}$"
        with pytest.raises(CapacityError, match=message):
            SearchConfig(seed=1, trials=trials).dirichlet_pairs(4)
        # trials past numpy's index range are refused the same way
        message = f"^{10**30} trials x 1 inputs = {10**30} is over the cap {MAX_SAMPLES}$"
        with pytest.raises(CapacityError, match=message):
            SearchConfig(seed=1, trials=10**30).dirichlet_pairs(1)
        monkeypatch.setattr(ldpkit.oracle, "MAX_SAMPLES", 12)
        assert SearchConfig(seed=1, trials=3).dirichlet_pairs(4)[0].shape == (3, 4)
        with pytest.raises(CapacityError, match="^13 trials x 1 inputs = 13 is over the cap 12$"):
            SearchConfig(seed=1, trials=13).dirichlet_pairs(1)


class TestBruteEtaF:
    def test_constant_output_kernel_contracts_everything(self):
        # quotients of near-zero divergences keep a little float noise, so
        # "zero" is asserted at 1e-9
        cfg = SearchConfig(seed=2, trials=200)
        for f in (
            FGenerator("tv"),
            FGenerator("kl"),
            FGenerator("chi2"),
            FGenerator("hellinger_sq"),
            FGenerator("egamma", 2.0),
        ):
            assert brute_eta_f(bsc(0.5), f, cfg) <= 1e-9

    def test_point_masses_attain_two_point_sup_exactly(self, rng):
        cfg = SearchConfig(seed=9, trials=500)
        for _ in range(10):
            k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            gammas = (1.0, 1.5, math.e, 4.0)
            for gamma, two_point in zip(gammas, two_point_scan(k, gammas)[0]):
                brute = brute_eta_f(k, FGenerator("egamma", gamma), cfg)
                assert abs(brute - two_point) <= 1e-10

    @pytest.mark.parametrize(
        "f",
        [
            FGenerator("tv"),
            FGenerator("kl"),
            FGenerator("chi2"),
            FGenerator("hellinger_sq"),
            FGenerator("egamma", 0.5),
            FGenerator("egamma", 1.5),
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
            assert brute_eta_f(k, FGenerator("tv"), cfg) == pytest.approx(
                two_point_scan(k, [1.0])[0][0], abs=1e-12
            )

    def test_without_point_masses_only_lower(self):
        k = Kernel.identity(3)
        gamma = 2.0
        with_pm = brute_eta_f(k, FGenerator("egamma", gamma), SearchConfig(seed=4, trials=50))
        without = brute_eta_f(
            k, FGenerator("egamma", gamma), SearchConfig(seed=4, trials=50, include_point_masses=False)
        )
        assert without <= with_pm

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("f", [FGenerator("kl"), FGenerator("chi2")])
    def test_zero_output_column_changes_nothing(self, f):
        # An output no input emits gives 0/0 in the near-coincident terms;
        # it must add nothing, not turn the search's maximum into NaN.
        cfg = SearchConfig(seed=1, trials=200)
        with_zero = brute_eta_f(Kernel([[0.6, 0.4, 0.0], [0.1, 0.9, 0.0]]), f, cfg)
        assert with_zero == brute_eta_f(Kernel([[0.6, 0.4], [0.1, 0.9]]), f, cfg)

    def test_deterministic(self):
        cfg = SearchConfig(seed=31, trials=400)
        k = k_rr(0.8, 3)
        a = brute_eta_f(k, FGenerator("kl"), cfg)
        b = brute_eta_f(k, FGenerator("kl"), cfg)
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

    # pairs x 2^max(|Z|, 13) is capped before any set is enumerated
    @pytest.mark.parametrize("shape, sets", [((17, 20), 20), ((182, 4), 13), ((10**4, 4), 13)])
    def test_work_cap(self, shape, sets):
        pairs = shape[0] * (shape[0] - 1)
        message = (f"^{pairs} input pairs x 2\\^{sets} output sets = {pairs << sets} "
                   f"is over the cap {MAX_PROFILE_WORK}$")
        with pytest.raises(CapacityError, match=message):
            brute_profile_check(Kernel(np.full(shape, 1.0 / shape[1])), 1.0)

    def test_work_cap_admits_its_bound(self, monkeypatch):
        monkeypatch.setattr(ldpkit.oracle, "MAX_PROFILE_WORK", 6 << 13)
        assert brute_profile_check(Kernel.identity(3), 1.0).delta == 1.0
        with pytest.raises(CapacityError):
            brute_profile_check(Kernel.identity(4), 1.0)

    def test_infinite_epsilon_keeps_the_residual(self):
        k = Kernel(np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        report = brute_profile_check(k, math.inf)
        assert report.delta == 0.5 == delta_at(k, math.inf)
        assert report.witness_pair == (1, 0)
        assert report.witness_set == (2,)

    def test_negative_epsilon(self):
        with pytest.raises(DomainError):
            brute_profile_check(bsc(0.25), -1.0)
