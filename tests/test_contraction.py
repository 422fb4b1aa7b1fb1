import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit.contraction
from ldpkit.contraction import (
    PrivacyParams,
    eta_kl_bsc,
    eta_tv_from_eta_gamma,
    phi,
    phi_n,
    two_point_scan,
)
from ldpkit.dist import FGenerator, excess, f_divergence
from ldpkit.errors import DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, randomized_response, tensor_power
from ldpkit.ldp import delta_at
from ldpkit.oracle import SearchConfig, brute_eta_f
from support import (
    eps_delta_rr,
    kernels,
    loop_infinite_epsilon_residual,
    loop_two_point,
    random_kernel,
)


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
        (eta,), _ = two_point_scan(randomized_response(eps), [math.exp(eps)])
        assert eta <= 1e-12

    def test_identity_kernel(self):
        (eta,), (pair,) = two_point_scan(Kernel.identity(2), [3.0])
        assert eta == 1.0
        assert pair == (0, 1)

    def test_k_rr_contracts_to_zero(self):
        (eta,), _ = two_point_scan(k_rr(math.log(3.0), 3), [3.0])
        assert eta <= 1e-12

    def test_gamma_below_one_rejected(self):
        with pytest.raises(DomainError):
            two_point_scan(bsc(0.25), [0.5])

    def test_tie_break_is_lexicographic(self):
        assert two_point_scan(bsc(0.5), [2.0])[1] == [(0, 0)]

    @given(kernels(), st.floats(1.0, 5.0))
    def test_matches_dobrushin_at_one_and_bounds(self, k, gamma):
        # kernels() draws zero entries too, so eta_inf can be positive.
        (eta_gamma, eta_tv, eta_inf), _ = two_point_scan(k, [gamma, 1.0, math.inf])
        assert eta_tv == pytest.approx(loop_two_point(k, 1.0)[1], abs=1e-12)
        assert 0.0 <= eta_gamma <= eta_tv + 1e-12
        # Exact, with no tolerance: fl(gamma q) >= q and rounding is
        # monotone, so each pair's E_gamma is at most its E_1.
        assert 0.0 <= eta_inf <= eta_gamma <= eta_tv <= 1.0

    def test_gamma_curve(self):
        k = bsc(0.2)
        values, _ = two_point_scan(k, [1.0, 2.0, 3.0])
        assert values[0] == pytest.approx(0.6, abs=1e-12)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_gamma_random_kernels(self, rng):
        grid = np.linspace(1.0, 8.0, 15)
        for _ in range(10):
            k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            values, _ = two_point_scan(k, grid)
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_gamma_curve_csv_emission(self, tmp_path):
        from ldpkit.cli import write_csv

        k = randomized_response(1.0)
        gammas = np.linspace(1.0, 4.0, 7)
        curve, _ = two_point_scan(k, gammas)
        out = tmp_path / "curve.csv"
        write_csv(out, ["gamma", "eta_gamma"], [[g, eta] for g, eta in zip(gammas, curve)])
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,eta_gamma"
        assert len(lines) == 8
        assert float(lines[-1].split(",")[1]) <= 1e-12


class TestPairwiseScan:
    @given(kernels(max_in=5, max_out=6), st.floats(1.0, 5.0))
    def test_matches_per_pair_loop(self, k, gamma):
        eta, eta_tv, pair = loop_two_point(k, gamma)
        (scan_eta, scan_tv), (scan_pair, _) = two_point_scan(k, [gamma, 1.0])
        assert scan_eta == pytest.approx(eta, abs=1e-12)
        assert scan_tv == pytest.approx(eta_tv, abs=1e-12)
        assert scan_pair == pair

    def test_matches_per_pair_loop_on_dense_rows(self, rng):
        for _ in range(20):
            k = random_kernel(rng, int(rng.integers(2, 9)), int(rng.integers(2, 12)))
            for gamma in (1.0, 1.4, 3.0):
                eta, _, pair = loop_two_point(k, gamma)
                assert two_point_scan(k, [gamma]) == ([eta], [pair])

    def test_gamma_grid_in_one_scan(self, rng):
        k = random_kernel(rng, 5, 7)
        gammas = [1.0, 1.5, 2.0, math.inf]
        values, pairs = two_point_scan(k, gammas)
        assert len(values) == len(pairs) == 4
        for g, value, pair in zip(gammas, values, pairs):
            assert two_point_scan(k, [g]) == ([value], [pair])
        # A positive value is never a row against itself.
        assert all(x != xp for (x, xp), v in zip(pairs, values) if v > 0.0)

    def test_infinite_gamma_is_the_residual(self, rng):
        k = Kernel(np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        values, pairs = two_point_scan(k, [math.inf])
        assert values == [0.5]
        assert pairs == [(1, 0)]
        for _ in range(10):
            rows = random_kernel(rng, 4, 6).rows * (rng.random((4, 6)) < 0.6)
            rows[:, 0] += 0.1
            k = Kernel(rows / rows.sum(axis=1, keepdims=True))
            assert two_point_scan(k, [math.inf])[0][0] == pytest.approx(
                loop_infinite_epsilon_residual(k), abs=1e-15
            )

    def test_blocks_give_the_same_values(self, rng, monkeypatch):
        k = random_kernel(rng, 9, 5)
        gammas = np.append(np.linspace(1.0, 4.0, 7), math.inf)
        values, pairs = two_point_scan(k, gammas)
        # The formula in one unblocked pass, with no reused buffer.
        direct = np.minimum(excess(k.rows[:, None, :], k.rows, gammas[:, None, None, None]), 1.0)
        assert values == direct.max(axis=(1, 2)).tolist()
        for budget in (8 * 9 * 5 * 2, 1):
            monkeypatch.setattr(ldpkit.contraction, "SCAN_BYTES", budget)
            assert two_point_scan(k, gammas) == (values, pairs)

    @given(kernels(max_in=5, max_out=6), st.lists(st.floats(1.0, 20.0), max_size=4))
    def test_scan_is_the_max_and_first_argmax(self, k, middle):
        # Zero entries are allowed, so gamma = inf meets the residual and
        # disjoint rows meet the clamp at 1.
        gammas = np.array([1.0, *middle, math.inf])
        n = k.input_size
        direct = np.minimum(excess(k.rows[:, None, :], k.rows, gammas[:, None, None, None]), 1.0)
        flat = direct.reshape(gammas.size, n * n)
        xs, xps = np.unravel_index(flat.argmax(axis=1), (n, n))
        want = (flat.max(axis=1).tolist(), list(zip(xs.tolist(), xps.tolist())))
        for budget in (ldpkit.contraction.SCAN_BYTES, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ldpkit.contraction, "SCAN_BYTES", budget)
                assert two_point_scan(k, gammas) == want

    def test_disjoint_rows_clamped_to_one(self):
        # Seeded instance whose unclamped E_2 sums to 1 + 1 ulp; before the
        # clamp, eta_tv_from_eta_gamma rejected it and the scan raised.
        # excess cuts it to 1, so f_divergence gives exactly 1.
        rng = np.random.default_rng(30)
        rows = np.zeros((2, 6))
        rows[0, :3] = rng.dirichlet(np.ones(3))
        rows[1, 3:] = rng.dirichlet(np.ones(3))
        k = Kernel(rows)
        assert f_divergence(k.row(0), k.row(1), FGenerator("egamma", 2.0)) == 1.0
        values, _ = two_point_scan(k, [2.0, 1.0])
        assert values == [1.0, 1.0]
        assert eta_tv_from_eta_gamma(values[0], 2.0) == 1.0

    def test_rejects_gamma_below_one_in_grid(self):
        with pytest.raises(DomainError, match="0.5"):
            two_point_scan(bsc(0.25), [1.0, 0.5])
        with pytest.raises(DomainError):
            two_point_scan(bsc(0.25), [math.nan])


class TestDobrushin:
    @given(st.floats(0.0, 1.0))
    def test_bsc_closed_form(self, omega):
        (eta_tv,), _ = two_point_scan(bsc(omega), [1.0])
        assert eta_tv == pytest.approx(abs(1 - 2 * omega), abs=1e-12)

    def test_fully_mixing_and_identity(self):
        assert two_point_scan(bsc(0.5), [1.0])[0] == [0.0]
        assert two_point_scan(Kernel.identity(3), [1.0])[0] == [1.0]


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

    # (eps, delta) randomized response is exactly (eps, delta)-LDP and attains
    # psi = (e^eps - 1 + 2 delta) / (e^eps + 1), which phi exceeds by a closed-form gap.
    @pytest.mark.parametrize("eps, delta", [(1, 0), (1, 0.01), (0.3, 0.2), (0.5, 0), (2, 0.05)])
    def test_eps_delta_rr_attains_psi_below_phi(self, eps, delta):
        k = eps_delta_rr(eps, delta)
        e = math.exp(eps)
        psi = (e - 1 + 2 * delta) / (e + 1)
        assert abs(delta_at(k, eps) - delta) <= 1e-15
        assert abs(two_point_scan(k, [1.0])[0][0] - psi) <= 1e-15
        gap = phi(PrivacyParams(eps, delta)) - psi
        assert abs(gap - (e - 1) * (1 - delta) / (e * (e + 1))) <= 1e-15


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
            gammas = (1.0, 1.7, 3.2)
            values, _ = two_point_scan(k, gammas)
            eta_tv = values[0]
            for f in (FGenerator("kl"), FGenerator("hellinger_sq")):
                assert brute_eta_f(k, f, cfg) <= eta_tv + 1e-10
            for gamma, eta in zip(gammas, values):
                assert eta_tv <= eta_tv_from_eta_gamma(eta, gamma) + 1e-12

    def test_tensorization_bound(self, rng):
        for _ in range(20):
            k = random_kernel(rng, 2, 2)
            (eta1,), _ = two_point_scan(k, [1.0])
            (eta2,), _ = two_point_scan(tensor_power(k, 2), [1.0])
            assert eta2 <= 1.0 - (1.0 - eta1) ** 2 + 1e-10


class TestEtaKlBsc:
    def test_randomized_response_form(self):
        for eps in (0.5, 1.0, 2.0):
            e = math.exp(eps)
            assert eta_kl_bsc(1.0 / (1.0 + e)) == pytest.approx(
                ((e - 1) / (e + 1)) ** 2, abs=1e-14
            )

    @pytest.mark.parametrize("omega", [-0.1, 1.5, math.nan])
    def test_crossover_outside_unit_interval(self, omega):
        message = f"crossover probability must be in [0, 1], got {omega}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            eta_kl_bsc(omega)

    def test_brute_estimate_approaches_from_below(self):
        rr = randomized_response(1.0)
        closed = eta_kl_bsc(1.0 / (1.0 + math.e))
        est = brute_eta_f(rr, FGenerator("kl"), SearchConfig(seed=3, trials=2000))
        assert est <= closed + 1e-10
        assert est == pytest.approx(closed, abs=1e-3)
