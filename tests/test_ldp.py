import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit.contraction
import ldpkit.ldp
from ldpkit.contraction import PrivacyParams, pairwise_egamma
from ldpkit.dist import Distribution, egamma
from ldpkit.errors import DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, pushforward, randomized_response
from ldpkit.ldp import (
    IS_LDP_TOL,
    PrivacyProfile,
    delta_at,
    is_ldp,
    privacy_profile,
    tightest_epsilon,
    verify_equivalence,
)
from ldpkit.oracle import brute_profile_check, tightest_epsilon_sorted_prefix
from support import (
    audit_kernel_family,
    bisect_tightest_epsilon,
    kernels,
    loop_two_point,
    loop_verify,
    random_kernel,
)

# Two rows with different supports: row 0 puts mass 0.5 where row 1 is zero.
SPLIT_SUPPORT = Kernel(np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))


class TestDeltaAt:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_randomized_response_exactly_private(self, eps):
        assert delta_at(randomized_response(eps), eps) <= 1e-12

    def test_identity_is_never_private(self):
        for eps in (0.0, 1.0, 10.0):
            assert delta_at(Kernel.identity(2), eps) == 1.0

    def test_constant_mechanism(self):
        assert delta_at(bsc(0.5), 0.0) == 0.0

    def test_rr_at_weaker_epsilon(self):
        expected = (math.e - math.exp(0.5)) / (1.0 + math.e)
        assert delta_at(randomized_response(1.0), 0.5) == pytest.approx(expected, abs=1e-12)
        assert delta_at(randomized_response(1.0), 0.5) == pytest.approx(0.2877, abs=1e-4)

    def test_at_zero_equals_dobrushin(self, rng):
        for _ in range(10):
            k = random_kernel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert delta_at(k, 0.0) == pytest.approx(loop_two_point(k, 1.0)[1], abs=1e-12)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            delta_at(bsc(0.25), -0.5)

    def test_profile_nonincreasing_on_grid(self, rng):
        grid = np.linspace(0.0, 4.0, 40)
        for _ in range(5):
            k = random_kernel(rng, 3, 4)
            deltas = [delta_at(k, float(e)) for e in grid]
            assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 2.5))
    def test_example_mechanism_contracts_all_pairs(self, p, q, eps):
        # pushing any two Bernoulli inputs through the mechanism kills the
        # divergence at gamma = e^eps
        rr = randomized_response(eps)
        a = pushforward(Distribution.bernoulli(p), rr)
        b = pushforward(Distribution.bernoulli(q), rr)
        assert egamma(a, b, math.exp(eps)) <= 1e-12

    def test_infinite_epsilon_is_the_residual(self):
        assert delta_at(SPLIT_SUPPORT, math.inf) == 0.5
        assert delta_at(Kernel.identity(3), math.inf) == 1.0
        assert delta_at(randomized_response(1.0), math.inf) == 0.0

    @pytest.mark.parametrize("eps", [710.0, 1e6])
    def test_overflowing_epsilon_rejected(self, eps):
        with pytest.raises(DomainError, match="overflows"):
            delta_at(bsc(0.25), eps)
        with pytest.raises(DomainError, match="overflows"):
            verify_equivalence(bsc(0.25), PrivacyParams(eps, 0.1), 10)

    @given(kernels(max_in=5, max_out=6), st.floats(0.0, 4.0))
    def test_matches_per_pair_loop(self, k, eps):
        assert delta_at(k, eps) == pytest.approx(loop_two_point(k, math.exp(eps))[0], abs=1e-12)


class TestIsLdp:
    def test_examples(self):
        assert is_ldp(randomized_response(1.0), PrivacyParams(1.0, 0.0))
        assert not is_ldp(randomized_response(1.0), PrivacyParams(0.9, 0.0))
        assert is_ldp(Kernel.identity(4), PrivacyParams(0.3, 1.0))

    def test_infinite_epsilon_not_certified_below_residual(self):
        assert not is_ldp(SPLIT_SUPPORT, PrivacyParams(math.inf, 0.0))
        assert is_ldp(SPLIT_SUPPORT, PrivacyParams(math.inf, 0.5))


class TestTightestEpsilon:
    def test_randomized_response(self):
        for eps in (0.3, 1.0, 2.5):
            res = tightest_epsilon(randomized_response(eps), 0.0)
            assert res.epsilon == pytest.approx(eps, abs=1e-12)

    def test_constant_mechanism(self):
        res = tightest_epsilon(bsc(0.5), 0.0)
        assert res.epsilon == 0.0

    def test_k_rr(self):
        res = tightest_epsilon(k_rr(math.log(3.0), 3), 0.0)
        assert res.epsilon == pytest.approx(math.log(3.0), abs=1e-9)

    def test_unachievable_delta_returns_inf(self):
        res = tightest_epsilon(Kernel.identity(2), 0.5)
        assert res.epsilon == math.inf
        assert res.delta_achieved == 1.0

    def test_round_trip(self, rng):
        for _ in range(10):
            k = random_kernel(rng, 3, 3)
            for delta in (0.0, 0.05, 0.3):
                res = tightest_epsilon(k, delta)
                if math.isfinite(res.epsilon):
                    assert delta_at(k, res.epsilon) <= delta + 1e-9

    def test_bad_delta(self):
        with pytest.raises(DomainError):
            tightest_epsilon(bsc(0.25), 1.5)

    def test_residual_decides_finiteness(self):
        assert tightest_epsilon(SPLIT_SUPPORT, 0.49).epsilon == math.inf
        assert tightest_epsilon(SPLIT_SUPPORT, 0.49).delta_achieved == 0.5
        res = tightest_epsilon(SPLIT_SUPPORT, 0.5)
        assert math.isfinite(res.epsilon)
        assert res.delta_achieved <= 0.5 + 1e-12

    @given(kernels(max_in=4, max_out=5), st.sampled_from([0.0, 1e-6, 0.05, 0.3, 0.9]))
    def test_matches_bisection(self, k, delta):
        res = tightest_epsilon(k, delta)
        old, saturated = bisect_tightest_epsilon(k, delta)
        assert not saturated
        if math.isinf(old):
            assert res.epsilon == math.inf
        else:
            assert abs(res.epsilon - old) <= 1e-9
            assert delta_at(k, res.epsilon) <= delta + 1e-12
            assert res.delta_achieved == delta_at(k, res.epsilon)

    def test_agrees_with_raw_definition(self):
        for _, k in audit_kernel_family():
            for delta in (0.0, 1e-6, 0.1):
                eps = tightest_epsilon(k, delta).epsilon
                if math.isinf(eps):
                    assert brute_profile_check(k, 50.0).delta > delta
                    continue
                assert brute_profile_check(k, eps).delta <= delta + 1e-12
                if eps > 0:
                    assert brute_profile_check(k, max(0.0, eps - 1e-9)).delta > delta

    def test_blocks_give_the_same_answer(self, rng, monkeypatch):
        ks = [random_kernel(rng, 7, 5) for _ in range(3)]
        whole = [tightest_epsilon(k, 0.01).epsilon for k in ks]
        monkeypatch.setattr(ldpkit.contraction, "SCAN_BYTES", 1)
        assert [tightest_epsilon(k, 0.01).epsilon for k in ks] == whole

    @given(kernels(max_in=5, max_out=7), st.sampled_from([0.0, 1e-6, 0.05, 0.3, 0.9]))
    def test_matches_sorted_prefix_reference(self, k, delta):
        res = tightest_epsilon(k, delta)
        ref = tightest_epsilon_sorted_prefix(k, delta)
        assert math.isinf(res.epsilon) == math.isinf(ref)
        if math.isfinite(ref):
            assert abs(res.epsilon - ref) <= 1e-12
        assert res.delta_achieved == delta_at(k, res.epsilon)

    @pytest.mark.parametrize(
        "k, most",
        [
            (randomized_response(1.0), 3),
            (k_rr(1.0, 32), 3),
            (Kernel(np.random.default_rng(3).dirichlet(np.ones(48), size=32)), 12),
        ],
        ids=["rr", "k_rr(1, 32)", "dirichlet 32x48"],
    )
    def test_few_scans(self, monkeypatch, k, most):
        calls = []

        def counted(kernel, gammas):
            calls.append(gammas)
            return pairwise_egamma(kernel, gammas)

        monkeypatch.setattr(ldpkit.ldp, "pairwise_egamma", counted)
        for delta in (0.0, 1e-6, 0.05):
            calls.clear()
            tightest_epsilon(k, delta)
            assert 2 <= len(calls) <= most

    def test_memory_stays_within_the_scan_budget(self):
        k = k_rr(1.0, 128)
        for run in (
            lambda: privacy_profile(k, np.linspace(0.0, 3.0, 31)),
            lambda: tightest_epsilon(k, 1e-6),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 3 * ldpkit.contraction.SCAN_BYTES


class TestVerifyEquivalence:
    def test_certified_mechanism_never_violates(self):
        report = verify_equivalence(randomized_response(1.0), PrivacyParams(1.0, 0.0), 1000)
        assert report.certified
        assert not report.violation_found
        assert report.max_ratio <= 1e-12

    def test_identity_violates_at_point_mass(self):
        report = verify_equivalence(Kernel.identity(2), PrivacyParams(1.0, 0.0), 1000)
        assert not report.certified
        assert report.violation_found
        assert report.violation_pair is not None
        p, q = report.violation_pair
        assert sorted(np.asarray(p).tolist()) == [0.0, 1.0]
        assert sorted(np.asarray(q).tolist()) == [0.0, 1.0]

    def test_vacuous_delta_is_trivially_fine(self):
        report = verify_equivalence(Kernel.identity(3), PrivacyParams(1.0, 1.0), 10)
        assert report.certified
        assert not report.violation_found

    @given(kernels(min_in=1, max_in=4), st.floats(0.0, 3.0), st.sampled_from([-1, 0, 1]))
    def test_certified_is_is_ldp(self, k, eps, shift):
        # delta at the tight value and one tolerance either side of it
        delta = min(1.0, max(0.0, delta_at(k, eps) + shift * IS_LDP_TOL))
        params = PrivacyParams(eps, delta)
        assert verify_equivalence(k, params, 5).certified == is_ldp(k, params)

    def test_single_input_kernel_has_no_point_mass_pairs(self):
        k = Kernel(np.array([[0.2, 0.8]]))
        params = PrivacyParams(0.0, 0.0)
        report = verify_equivalence(k, params, 20)
        assert report.certified and is_ldp(k, params)
        assert not report.violation_found
        assert report.max_ratio_pair is None

    def test_deterministic_under_seed(self):
        a = verify_equivalence(bsc(0.3), PrivacyParams(0.5, 0.1), 200, seed=5)
        b = verify_equivalence(bsc(0.3), PrivacyParams(0.5, 0.1), 200, seed=5)
        assert a.max_ratio == b.max_ratio

    def test_certified_random_kernels_contract(self, rng):
        for _ in range(5):
            k = random_kernel(rng, 3, 4)
            eps = 0.8
            delta = delta_at(k, eps)
            report = verify_equivalence(k, PrivacyParams(eps, min(1.0, delta)), 300)
            assert report.certified
            assert not report.violation_found

    def test_matches_per_pair_verifier(self, rng):
        def same(a, b):
            if a is None or b is None:
                return a is b
            return all(np.array_equal(u, v) for u, v in zip(a, b))

        for i in range(20):
            # Every odd case is binary at epsilon = 0, where all pairs tie in
            # exact arithmetic (each ratio is the Dobrushin coefficient), so
            # only matching rounding picks the same pair.
            nx = 2 if i % 2 else int(rng.integers(2, 6))
            k = random_kernel(rng, nx, int(rng.integers(2, 7)))
            eps = 0.0 if i % 2 else float(rng.uniform(0.0, 2.0))
            tight = delta_at(k, eps)
            for delta in (0.5 * tight, min(1.0, 1.5 * tight + 1e-4)):
                report = verify_equivalence(k, PrivacyParams(eps, delta), 200, seed=i)
                violation, max_ratio, max_pair = loop_verify(k, eps, delta, 200, seed=i)
                assert same(report.violation_pair, violation)
                assert same(report.max_ratio_pair, max_pair)
                assert report.max_ratio == pytest.approx(max_ratio, rel=1e-12)

    def test_point_mass_sweep_of_many_inputs_stays_small(self):
        # 256 inputs: the point-mass pairs alone would be a 65280 x 256
        # matrix (134 MB) if built.
        tracemalloc.start()
        try:
            report = verify_equivalence(k_rr(1.0, 256), PrivacyParams(0.5, 0.0), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.violation_found
        assert peak < 32 * 2**20

    def test_report_serialization(self):
        d = verify_equivalence(bsc(0.3), PrivacyParams(0.5, 0.2), 50).to_dict()
        assert d["trials"] == 50
        assert isinstance(d["max_ratio"], float)


class TestPrivacyProfile:
    def test_profile_construction(self):
        profile = privacy_profile(randomized_response(1.0), [0.0, 0.5, 1.0, 2.0])
        deltas = [d for _, d in profile.points]
        assert deltas[0] == pytest.approx(loop_two_point(randomized_response(1.0), 1.0)[1])
        assert deltas[2] <= 1e-12

    def test_chunks_give_the_same_profile(self, rng, monkeypatch):
        k = random_kernel(rng, 6, 5)
        grid = np.linspace(0.0, 3.0, 11)
        whole = privacy_profile(k, grid)
        # Three gammas per chunk: four chunks, the last one partial.
        monkeypatch.setattr(ldpkit.contraction, "SCAN_BYTES", 8 * 6 * 6 * 3)
        assert privacy_profile(k, grid) == whole

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            PrivacyProfile(points=((0.5, 0.3), (0.5, 0.2)))

    def test_deltas_must_not_increase(self):
        with pytest.raises(DomainError):
            PrivacyProfile(points=((0.0, 0.1), (1.0, 0.4)))
