import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit.contraction
import ldpkit.dist
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
    phi_n_decimal,
    random_kernel,
)

# epsilon from the smallest subnormal to 1e6 and inf, delta from 0 to the
# largest float below 1, and n up to 10^17: the grid phi_n must keep within
# PHI_ULPS of the 60-digit reference, where 1 - (1 - x) lost every digit.
PHI_EPSILONS = (0.0, 5e-324, 1e-300, 1e-17, 1e-9, 1e-3, 0.5, 1.0, 5.0, 50.0, 1e6, math.inf)
PHI_DELTAS = (0.0, 5e-324, 1e-300, 1e-17, 1e-9, 1e-3, 0.5, 0.9, 1 - 2**-53)
PHI_NS = (1, 2, 10, 1000, 10**9, 10**17)
PHI_ULPS = 4


def _within_ulps(value: float, ref: float) -> bool:
    return abs(value - ref) <= PHI_ULPS * math.ulp(ref)


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


@st.composite
def tied_kernels(draw):
    """Kernels up to 6 x 8 with exact ties: duplicated rows, all-zero
    columns, point-mass or small-integer rows, often disjoint, and rows on
    a run of columns that other rows' runs may miss, whose pairs' E_gamma
    stays flat as gamma rises."""
    nx, nz = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    live = draw(st.lists(st.booleans(), min_size=nz, max_size=nz).filter(any))
    cols = np.flatnonzero(live)
    rows = np.zeros((nx, nz))
    for x in range(nx):
        kinds = ["point", "weights", "run"]
        kind = draw(st.sampled_from(["copy", *kinds] if x else kinds))
        if kind == "copy":
            rows[x] = rows[draw(st.integers(0, x - 1))]
        elif kind == "point":
            rows[x, draw(st.sampled_from(cols.tolist()))] = 1.0
        elif kind == "run":
            lo = draw(st.integers(0, cols.size - 1))
            hi = draw(st.integers(lo + 1, cols.size))
            run = st.lists(st.integers(1, 3), min_size=hi - lo, max_size=hi - lo)
            rows[x, cols[lo:hi]] = draw(run)
        else:
            w = draw(st.lists(st.integers(0, 3) | st.integers(0, 1000), min_size=nz, max_size=nz))
            rows[x] = np.where(live, w, 0)
            rows[x, cols[0]] += rows[x].sum() == 0
    return Kernel(rows / rows.sum(axis=1, keepdims=True))


@st.composite
def unsorted_gammas(draw):
    """An unsorted gamma list with repeats, drawn with 1.0 and inf."""
    gamma = st.just(1.0) | st.just(math.inf) | st.floats(1.0, 20.0)
    gammas = draw(st.lists(gamma, min_size=1, max_size=8))
    gammas += draw(st.lists(st.sampled_from(gammas), max_size=4))
    return draw(st.permutations(gammas))


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

    @given(tied_kernels(), unsorted_gammas())
    def test_scan_is_the_max_and_first_argmax(self, k, gammas):
        # Zero entries are allowed, so gamma = inf meets the residual and
        # disjoint rows meet the clamp at 1. Budgets of one byte and of one
        # and two gammas' slabs make blocks of one, one and two gammas, each
        # pruned after the first; the default takes one block.
        n, m = k.rows.shape
        g = np.array(gammas)
        direct = excess(k.rows[:, None, :], k.rows, g[:, None, None, None]).reshape(g.size, n * n)
        want = (direct.max(axis=1).tolist(), [divmod(i, n) for i in direct.argmax(axis=1).tolist()])
        for budget in (1, 8 * n * n * m, 16 * n * n * m, ldpkit.contraction.SCAN_BYTES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ldpkit.contraction, "SCAN_BYTES", budget)
                assert two_point_scan(k, gammas) == want

    def test_evaluates_few_pairs_of_a_sparse_kernel(self, monkeypatch):
        # Each row is Dirichlet on its own random support, as in the audit
        # benchmark, and the grid is its 31-point profile.
        rng = np.random.default_rng(7)
        rows = np.zeros((36, 64))
        for row in rows:
            support = rng.choice(64, size=int(rng.integers(16, 33)), replace=False)
            row[support] = rng.dirichlet(np.ones(support.size))
        k = Kernel(rows)
        gammas = np.exp(np.linspace(0.0, 3.0, 31))
        direct = excess(rows[:, None, :], rows, gammas[:, None, None, None]).reshape(31, 36 * 36)
        cells = []

        def counted(*args, **kwargs):
            out = excess(*args, **kwargs)
            cells.append(np.size(out))
            return out

        monkeypatch.setattr(ldpkit.dist, "excess", counted)
        values, pairs = two_point_scan(k, gammas)
        assert values == direct.max(axis=1).tolist()
        assert pairs == [divmod(i, 36) for i in direct.argmax(axis=1).tolist()]
        assert sum(cells) < 31 * 36**2 / 10
        # One gamma a block: here the full first block, then two pruned
        # blocks of three calls each, the second run on through the rest.
        assert len(cells) <= 8

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

    @pytest.mark.parametrize(
        "gammas, first",
        [([2.0, 0.9], "0.9"), ([0.5], "0.5"), ([math.nan], "nan"), ([0.7, 2.0, 0.5], "0.7")],
    )
    def test_refusal_names_the_first_bad_gamma(self, gammas, first):
        message = f"two-point formula requires gamma >= 1, got {first}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            two_point_scan(bsc(0.25), gammas)

    def test_empty_grid(self, monkeypatch):
        # One block, and a budget of one byte, which takes the blocked walk.
        k = k_rr(1.0, 4)
        assert two_point_scan(k, []) == ([], [])
        monkeypatch.setattr(ldpkit.contraction, "SCAN_BYTES", 1)
        assert two_point_scan(k, []) == ([], [])


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

    @pytest.mark.parametrize("n", PHI_NS)
    def test_phi_n_matches_the_decimal_reference(self, n):
        bad = [
            (eps, delta) for eps in PHI_EPSILONS for delta in PHI_DELTAS
            if not _within_ulps(phi_n(PrivacyParams(eps, delta), n), phi_n_decimal(eps, delta, n))
        ]
        assert bad == []

    @given(st.floats(-300.0, 3.0), st.floats(-300.0, 0.0), st.integers(1, 10**17))
    def test_log_uniform_phi_n_matches_the_decimal_reference(self, log_eps, log_delta, n):
        eps, delta = 10.0**log_eps, 10.0**log_delta
        assert _within_ulps(phi_n(PrivacyParams(eps, delta), n), phi_n_decimal(eps, delta, n))

    @pytest.mark.parametrize("delta", [0.0, -0.0])
    def test_no_leak_is_positive_zero(self, delta):
        p = PrivacyParams(0.0, delta)
        for value in (phi(p), phi_n(p, 1), phi_n(p, 10**17)):
            assert math.copysign(1.0, value) == 1.0 and value == 0.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, math.inf])
    def test_delta_one_is_exactly_one(self, eps):
        p = PrivacyParams(eps, 1.0)
        assert phi(p) == phi_n(p, 1) == phi_n(p, 10**17) == 1.0

    @given(st.floats(0.0, 1.0), st.floats(1.0, math.inf))
    def test_phi_n_at_one_is_phi_bit_for_bit(self, delta, gamma):
        p = PrivacyParams(math.log(gamma), delta)
        assert phi_n(p, 1).hex() == phi(p).hex()
        assert eta_tv_from_eta_gamma(delta, gamma).hex() == phi(p).hex()

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
