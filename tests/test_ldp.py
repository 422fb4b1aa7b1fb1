import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit.contraction
import ldpkit.ldp
from ldpkit.contraction import PrivacyParams, two_point_scan
from ldpkit.dist import Distribution, FGenerator, f_divergence, normalize_rows
from ldpkit.errors import DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, randomized_response
from ldpkit.ldp import (
    IS_LDP_TOL,
    PrivacyProfile,
    delta_at,
    is_ldp,
    privacy_profile,
    tightest_epsilon,
    verify_equivalence,
)
from ldpkit.oracle import brute_profile_check
from support import (
    audit_kernel_family,
    bisect_tightest_epsilon,
    hadamard_response,
    kernels,
    loop_two_point,
    loop_verify,
    pushforward,
    random_kernel,
    tightest_epsilon_sorted_prefix,
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
        a = pushforward(Distribution([1 - p, p]), rr)
        b = pushforward(Distribution([1 - q, q]), rr)
        assert f_divergence(a, b, FGenerator("egamma", math.exp(eps))) <= 1e-12

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

    # epsilon* is the smallest double whose delta is within delta: one
    # double lower, the scan's delta is above it.
    def test_last_bit_on_hadamard_response(self):
        k = hadamard_response(1.0, 7)
        res = tightest_epsilon(k, 0.05)
        assert res.epsilon == 0.8529051013643217
        assert res.delta_achieved == delta_at(k, res.epsilon) == 0.04999999999999999
        assert delta_at(k, math.nextafter(res.epsilon, 0.0)) == 0.050000000000000044

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
        # A new Kernel keeps no scan, so the blocked walk runs.
        assert [tightest_epsilon(Kernel(k.rows), 0.01).epsilon for k in ks] == whole

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
            return two_point_scan(kernel, gammas)

        monkeypatch.setattr(ldpkit.ldp, "two_point_scan", counted)
        for delta in (0.0, 1e-6, 0.05):
            calls.clear()
            tightest_epsilon(Kernel(k.rows), delta)  # keeps no scan of the last delta
            assert 2 <= len(calls) <= most

    def test_memory_stays_within_the_scan_budget(self):
        k = k_rr(1.0, 128)
        for run in (
            lambda: privacy_profile(Kernel(k.rows), np.linspace(0.0, 3.0, 31)),
            lambda: tightest_epsilon(Kernel(k.rows), 1e-6),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 3 * ldpkit.contraction.SCAN_BYTES


def _bits(result):
    """A result as nested lists with each float as its hex, so == is bit for bit."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, np.ndarray):
        result = result.tolist()
    if isinstance(result, (list, tuple)):
        return [_bits(r) for r in result]
    return result.hex() if isinstance(result, float) else result


# Levels from a short list, so that calls share gammas: 0 is gamma = 1 and
# inf the residual.
LEVELS = (0.0, 0.5, math.log(3.0), 1.0, 2.0, math.inf)
DELTAS = (0.0, 1e-6, 0.05, 0.3)
_level = st.sampled_from(LEVELS)
_params = st.builds(PrivacyParams, _level, st.sampled_from(DELTAS))
LDP_CALLS = st.one_of(
    st.tuples(st.just(delta_at), _level),
    st.tuples(st.just(is_ldp), _params),
    st.tuples(st.just(privacy_profile), st.lists(_level, max_size=5, unique=True).map(sorted)),
    st.tuples(st.just(tightest_epsilon), st.sampled_from(DELTAS)),
    st.tuples(st.just(verify_equivalence), _params, st.just(20)),
)


class TestKeptScans:
    # A Kernel keeps the (value, pair) of each gamma it was scanned at; a new
    # Kernel of the same rows keeps none, so it scans every gamma afresh.
    @given(kernels(max_in=5, max_out=6), st.lists(LDP_CALLS, min_size=1, max_size=6),
           st.sampled_from([1, ldpkit.contraction.SCAN_BYTES]))
    def test_any_sequence_of_calls_is_each_call_on_a_new_kernel(self, k, calls, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ldpkit.contraction, "SCAN_BYTES", budget)
            for fn, *args in calls:
                assert _bits(fn(k, *args)) == _bits(fn(Kernel(k.rows), *args)), fn.__name__

    def test_kept_gammas_stay_within_the_scan_budget(self):
        # 10^5 gammas: the first SCAN_BYTES / 256 are kept, the rest returned.
        k = k_rr(1.0, 3)
        grid = np.linspace(0.0, 3.0, 10**5)
        want = two_point_scan(k, [math.exp(e) for e in grid])[0]
        tracemalloc.start()
        try:
            profile = privacy_profile(k, grid)
            assert [d for _, d in profile.points] == want
            del profile
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(k._scans) == ldpkit.contraction.SCAN_BYTES >> 8
        assert kept <= ldpkit.contraction.SCAN_BYTES
        assert delta_at(k, 3.0) == want[-1]
        assert len(k._scans) == ldpkit.contraction.SCAN_BYTES >> 8


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

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            verify_equivalence(bsc(0.3), PrivacyParams(0.5, 0.2), 10, seed=-1)

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

    def test_normalizes_only_the_pushforwards(self, rng, monkeypatch):
        # The Dirichlet draws are fixed points of normalize_rows, so the
        # verifier takes them as drawn; only the pushforwards go through it.
        shapes = []

        def counted(v):
            shapes.append(np.shape(v))
            return normalize_rows(v)

        monkeypatch.setattr(ldpkit.ldp, "normalize_rows", counted)
        verify_equivalence(random_kernel(rng, 4, 6), PrivacyParams(0.5, 0.1), 50)
        assert shapes == [(50, 6), (50, 6)]

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
        assert privacy_profile(Kernel(k.rows), grid) == whole  # a Kernel that keeps no scan

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            PrivacyProfile(points=((0.5, 0.3), (0.5, 0.2)))

    @pytest.mark.parametrize("delta", [-0.1, 1.5, math.nan])
    def test_deltas_must_lie_in_unit_interval(self, delta):
        with pytest.raises(DomainError, match="profile deltas must lie in"):
            PrivacyProfile(points=((0.0, delta),))

    def test_deltas_must_not_increase(self):
        with pytest.raises(DomainError):
            PrivacyProfile(points=((0.0, 0.1), (1.0, 0.4)))


# Every pair of Hadamard-response rows has the same closed-form profile,
# so the scan, eta_TV and the inverted profile are checked at |X| = 127.
@pytest.mark.parametrize("k", [7, 127])
def test_hadamard_response_matches_its_closed_form(k):
    eps = 1.0
    e = math.exp(eps)
    kernel = hadamard_response(eps, k)
    grid = np.linspace(0.0, 2.0, 9)
    for (_, got), e2 in zip(privacy_profile(kernel, grid).points, grid):
        assert abs(got - max(e - math.exp(e2), 0.0) / (2 * (1 + e))) <= 1e-15
    assert abs(two_point_scan(kernel, [1.0])[0][0] - (e - 1) / (2 * (e + 1))) <= 1e-15
    for delta in (0.0, 0.01, 0.05, 0.1):
        expected = math.log(e - 2 * delta * (1 + e))
        got = tightest_epsilon(kernel, delta).epsilon
        assert abs(got - expected) <= 4 * math.ulp(expected), delta


# ROADMAP item 11: the 31-point profile of HR(1, 127) over [0, 3] is the closed
# form. All pairs tie, so the full pass runs up to epsilon = 1, where every
# value reaches 0, and one pruned block then runs on through the rest.
def test_hadamard_response_profile_over_the_audit_grid():
    e = math.e
    grid = np.linspace(0.0, 3.0, 31)
    points = privacy_profile(hadamard_response(1.0, 127), grid).points
    for (_, got), e2 in zip(points, grid):
        assert abs(got - max(e - math.exp(e2), 0.0) / (2 * (1 + e))) <= 1e-15
