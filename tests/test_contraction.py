import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit.contraction
from ldpkit.contraction import (
    PrivacyParams,
    eta_gamma_two_point,
    eta_kl_bsc,
    eta_tv_from_eta_gamma,
    pairwise_egamma,
    phi,
    phi_n,
)
from ldpkit.dist import FGenerator, egamma, excess
from ldpkit.errors import DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, randomized_response, tensor_power
from ldpkit.oracle import SearchConfig, brute_eta_f
from support import kernels, loop_infinite_epsilon_residual, loop_two_point, random_kernel


class TestPrivacyParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            PrivacyParams(-0.1, 0.0)
        with pytest.raises(DomainError):
            PrivacyParams(1.0, 1.5)

    def test_defaults(self):
        assert PrivacyParams(1.0).delta == 0.0


class TestTwoPoint:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_randomized_response_contracts_to_zero(self, eps):
        report = eta_gamma_two_point(randomized_response(eps), math.exp(eps))
        assert report.eta_gamma <= 1e-12

    def test_identity_kernel(self):
        report = eta_gamma_two_point(Kernel.identity(2), 3.0)
        assert report.eta_gamma == 1.0
        assert report.argmax_pair == (0, 1)

    def test_k_rr_contracts_to_zero(self):
        report = eta_gamma_two_point(k_rr(math.log(3.0), 3), 3.0)
        assert report.eta_gamma <= 1e-12

    def test_gamma_below_one_rejected(self):
        with pytest.raises(DomainError):
            eta_gamma_two_point(bsc(0.25), 0.5)

    def test_tie_break_is_lexicographic(self):
        assert eta_gamma_two_point(bsc(0.5), 2.0).argmax_pair == (0, 0)

    @given(kernels(), st.floats(1.0, 5.0))
    def test_matches_dobrushin_at_one_and_bounds(self, k, gamma):
        report = eta_gamma_two_point(k, gamma)
        assert eta_gamma_two_point(k, 1.0).eta_gamma == pytest.approx(
            loop_two_point(k, 1.0)[1], abs=1e-12
        )
        assert 0.0 <= report.eta_gamma <= report.eta_tv + 1e-12

    def test_gamma_curve(self):
        k = bsc(0.2)
        values = [eta_gamma_two_point(k, g).eta_gamma for g in (1.0, 2.0, 3.0)]
        assert values[0] == pytest.approx(0.6, abs=1e-12)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_gamma_random_kernels(self, rng):
        grid = np.linspace(1.0, 8.0, 15)
        for _ in range(10):
            k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            values = [eta_gamma_two_point(k, float(g)).eta_gamma for g in grid]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_gamma_curve_csv_emission(self, tmp_path):
        from ldpkit.cli import write_csv

        k = randomized_response(1.0)
        gammas = np.linspace(1.0, 4.0, 7)
        curve = [eta_gamma_two_point(k, g) for g in gammas]
        out = tmp_path / "curve.csv"
        write_csv(out, ["gamma", "eta_gamma"], [[r.gamma, r.eta_gamma] for r in curve])
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,eta_gamma"
        assert len(lines) == 8
        assert float(lines[-1].split(",")[1]) <= 1e-12

    def test_report_serialization(self):
        d = eta_gamma_two_point(bsc(0.2), 2.0).to_dict()
        assert set(d) == {"eta_gamma", "gamma", "eta_tv", "argmax_pair", "upper_bounds"}


class TestPairwiseScan:
    @given(kernels(max_in=5, max_out=6), st.floats(1.0, 5.0))
    def test_matches_per_pair_loop(self, k, gamma):
        eta, eta_tv, pair = loop_two_point(k, gamma)
        report = eta_gamma_two_point(k, gamma)
        assert report.eta_gamma == pytest.approx(eta, abs=1e-12)
        assert report.eta_tv == pytest.approx(eta_tv, abs=1e-12)
        assert report.argmax_pair == pair

    def test_matches_per_pair_loop_on_dense_rows(self, rng):
        for _ in range(20):
            k = random_kernel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 12)))
            for gamma in (1.0, 1.4, 3.0):
                eta, _, pair = loop_two_point(k, gamma)
                report = eta_gamma_two_point(k, gamma)
                assert report.eta_gamma == eta
                assert report.argmax_pair == pair

    def test_gamma_grid_in_one_scan(self, rng):
        k = random_kernel(rng, 5, 7)
        gammas = [1.0, 1.5, 2.0, math.inf]
        scan = pairwise_egamma(k, gammas)
        assert scan.shape == (4, 5, 5)
        for g, values in zip(gammas[:-1], scan):
            assert values.max() == eta_gamma_two_point(k, g).eta_gamma
        assert np.all(np.diagonal(scan, axis1=1, axis2=2) == 0.0)

    def test_infinite_gamma_is_the_residual(self, rng):
        k = Kernel(np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        assert pairwise_egamma(k, [math.inf])[0].tolist() == [[0.0, 0.0], [0.5, 0.0]]
        for _ in range(10):
            rows = random_kernel(rng, 4, 6).rows * (rng.random((4, 6)) < 0.6)
            rows[:, 0] += 0.1
            k = Kernel(rows / rows.sum(axis=1, keepdims=True))
            assert pairwise_egamma(k, [math.inf]).max() == pytest.approx(
                loop_infinite_epsilon_residual(k), abs=1e-15
            )

    def test_blocks_give_the_same_values(self, rng, monkeypatch):
        k = random_kernel(rng, 9, 5)
        gammas = np.append(np.linspace(1.0, 4.0, 7), math.inf)
        whole = pairwise_egamma(k, gammas)
        # The formula in one unblocked pass, with no reused buffer.
        direct = excess(k.rows[:, None, :], k.rows, gammas[:, None, None, None])
        assert np.array_equal(whole, np.minimum(direct, 1.0))
        monkeypatch.setattr(ldpkit.contraction, "SCAN_BYTES", 8 * 9 * 5 * 2)
        assert np.array_equal(pairwise_egamma(k, gammas), whole)
        monkeypatch.setattr(ldpkit.contraction, "SCAN_BYTES", 1)
        assert np.array_equal(pairwise_egamma(k, gammas), whole)

    def test_disjoint_rows_clamped_to_one(self):
        # Seeded instance whose unclamped E_2 sums to 1 + 1 ulp; before the
        # clamp, eta_tv_from_eta_gamma rejected it and the scan raised.
        rng = np.random.default_rng(30)
        rows = np.zeros((2, 6))
        rows[0, :3] = rng.dirichlet(np.ones(3))
        rows[1, 3:] = rng.dirichlet(np.ones(3))
        k = Kernel(rows)
        assert egamma(k.row(0), k.row(1), 2.0) > 1.0
        report = eta_gamma_two_point(k, 2.0)
        assert report.eta_gamma == 1.0
        assert report.eta_tv == 1.0
        assert report.upper_bounds["eta_tv_from_eta_gamma"] == 1.0

    def test_rejects_gamma_below_one_in_grid(self):
        with pytest.raises(DomainError, match="0.5"):
            pairwise_egamma(bsc(0.25), [1.0, 0.5])
        with pytest.raises(DomainError):
            pairwise_egamma(bsc(0.25), [math.nan])


class TestDobrushin:
    @given(st.floats(0.0, 1.0))
    def test_bsc_closed_form(self, omega):
        eta_tv = eta_gamma_two_point(bsc(omega), 1.0).eta_tv
        assert eta_tv == pytest.approx(abs(1 - 2 * omega), abs=1e-12)

    def test_fully_mixing_and_identity(self):
        assert eta_gamma_two_point(bsc(0.5), 1.0).eta_tv == 0.0
        assert eta_gamma_two_point(Kernel.identity(3), 1.0).eta_tv == 1.0


class TestPhi:
    def test_examples(self):
        assert phi(PrivacyParams(0.0, 0.0)) == 0.0
        assert phi(PrivacyParams(3.0, 1.0)) == 1.0
        assert phi(PrivacyParams(math.log(2.0), 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_phi_n_examples(self):
        assert phi_n(PrivacyParams(0.7, 0.2), 1) == phi(PrivacyParams(0.7, 0.2))
        assert phi_n(PrivacyParams(0.0, 0.0), 5) == 0.0
        assert phi_n(PrivacyParams(math.log(2.0), 0.0), 2) == pytest.approx(0.75, abs=1e-15)

    def test_phi_n_matches_direct_expression(self):
        params = PrivacyParams(0.37, 0.05)
        for n in (1, 2, 7):
            direct = 1.0 - math.exp(-n * params.epsilon) * (1.0 - params.delta) ** n
            assert phi_n(params, n) == pytest.approx(direct, abs=1e-14)

    @given(st.floats(0.0, 5.0), st.floats(0.0, 1.0))
    def test_monotone_in_epsilon_delta_n(self, eps, delta):
        p = PrivacyParams(eps, delta)
        assert phi(PrivacyParams(eps + 0.5, delta)) >= phi(p)
        if delta <= 0.9:
            assert phi(PrivacyParams(eps, delta + 0.1)) >= phi(p)
        assert phi_n(p, 3) >= phi_n(p, 2) >= phi_n(p, 1)

    def test_phi_n_rejects_bad_n(self):
        with pytest.raises(DomainError):
            phi_n(PrivacyParams(1.0), 0)


class TestEtaTvFromEtaGamma:
    def test_specializations(self):
        eps = 0.8
        assert eta_tv_from_eta_gamma(0.0, math.exp(eps)) == pytest.approx(
            phi(PrivacyParams(eps, 0.0)), abs=1e-15
        )
        delta = 0.1
        assert eta_tv_from_eta_gamma(delta, math.exp(eps)) == pytest.approx(
            phi(PrivacyParams(eps, delta)), abs=1e-15
        )
        assert eta_tv_from_eta_gamma(1.0, 4.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eta_tv_from_eta_gamma(1.2, 2.0)
        with pytest.raises(DomainError):
            eta_tv_from_eta_gamma(0.5, 0.9)


class TestDominanceChain:
    def test_brute_below_dobrushin_below_gamma_bound(self, rng):
        cfg = SearchConfig(seed=11, trials=300)
        for _ in range(10):
            k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            eta_tv = eta_gamma_two_point(k, 1.0).eta_tv
            for f in (FGenerator.kl(), FGenerator.hellinger_squared()):
                assert brute_eta_f(k, f, cfg) <= eta_tv + 1e-10
            for gamma in (1.0, 1.7, 3.2):
                report = eta_gamma_two_point(k, gamma)
                assert eta_tv <= eta_tv_from_eta_gamma(report.eta_gamma, gamma) + 1e-12

    def test_tensorization_bound(self, rng):
        for _ in range(20):
            k = random_kernel(rng, 2, 2)
            eta1 = eta_gamma_two_point(k, 1.0).eta_tv
            eta2 = eta_gamma_two_point(tensor_power(k, 2), 1.0).eta_tv
            assert eta2 <= 1.0 - (1.0 - eta1) ** 2 + 1e-10


class TestEtaKlBsc:
    def test_randomized_response_form(self):
        for eps in (0.5, 1.0, 2.0):
            e = math.exp(eps)
            assert eta_kl_bsc(1.0 / (1.0 + e)) == pytest.approx(
                ((e - 1) / (e + 1)) ** 2, abs=1e-14
            )

    def test_brute_estimate_approaches_from_below(self):
        rr = randomized_response(1.0)
        closed = eta_kl_bsc(1.0 / (1.0 + math.e))
        est = brute_eta_f(rr, FGenerator.kl(), SearchConfig(seed=3, trials=2000))
        assert est <= closed + 1e-10
        assert est == pytest.approx(closed, abs=1e-3)
