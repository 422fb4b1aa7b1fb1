import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ldpkit.contraction import eta_tv_from_eta_gamma
from ldpkit.dist import Distribution, FGenerator, divergence, excess, f_divergence, normalize_rows
from ldpkit.errors import DimensionError, DomainError
from ldpkit.oracle import SearchConfig
from support import (
    bu_igamma_n1,
    distribution_pairs,
    distributions,
    egamma_integral_form,
    egamma_threshold_form,
)


class TestDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            Distribution(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            Distribution(np.array([0.5, 0.6]))

    def test_renormalizes_tiny_deviation(self):
        d = Distribution(np.array([0.5, 0.5 + 3e-10]))
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_rejects_deviation_beyond_tolerance(self):
        with pytest.raises(DomainError):
            Distribution(np.array([0.5, 0.5 + 1e-8]))

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([], DimensionError, "distribution must be a non-empty 1-d vector"),
            ([[0.5, 0.5]], DimensionError, "distribution must be a non-empty 1-d vector"),
            ([np.nan, 1.0], DomainError, "distribution entries must be finite"),
            ([np.inf, 0.0], DomainError, "distribution entries must be finite"),
        ],
    )
    def test_rejects_bad_shape_and_non_finite_entries(self, values, error, message):
        with pytest.raises(error, match=message):
            Distribution(np.array(values))

    def test_probs_are_read_only(self):
        d = Distribution(np.full(3, 1 / 3))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_point_mass(self):
        assert Distribution.point_mass(1, 3).probs.tolist() == [0.0, 1.0, 0.0]
        for index in (-1, 3, 1.5):
            with pytest.raises(DomainError, match=f"index {index} outside alphabet of size 3"):
                Distribution.point_mass(index, 3)
        for size, message in [(2.5, "an integer, got 2.5"), (True, "an integer, got True"),
                              (-1, ">= 1, got -1")]:
            with pytest.raises(DomainError, match=f"^alphabet size must be {message}$"):
                Distribution.point_mass(0, size)


class TestNormalizeRows:
    @given(
        st.lists(st.floats(0.0, 1e3), min_size=1, max_size=300).filter(lambda v: sum(v) > 0),
        st.floats(-2.0, 2.0),
    )
    def test_idempotent_and_keeps_what_is_within_the_band(self, raw, scale):
        once = normalize_rows(np.array(raw))
        assert normalize_rows(once).tobytes() == once.tobytes()
        # Off 1 by up to twice the band, so both sides of it are drawn.
        v = once * (1.0 + round(scale * 4 * once.size) * 2.0**-53)
        if abs(v.sum() - 1.0) <= v.size * 2.0**-51:
            assert normalize_rows(v).tobytes() == v.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 36, 256])
    def test_dirichlet_draws_are_fixed_points(self, d):
        # The sampled verifier uses its pairs as drawn, which rests on this.
        for seed in range(50):
            for v in SearchConfig(seed, 1000).dirichlet_pairs(d):
                assert normalize_rows(v).tobytes() == v.tobytes()


class TestFGenerator:
    def test_egamma_requires_gamma(self):
        with pytest.raises(DomainError):
            FGenerator("egamma")
        with pytest.raises(DomainError):
            FGenerator("egamma", -0.5)

    def test_other_kinds_reject_gamma(self):
        with pytest.raises(DomainError):
            FGenerator("kl", gamma=2.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            FGenerator("renyi")


_P, _Q = Distribution(np.array([0.7, 0.3])), Distribution(np.array([0.2, 0.8]))
TV = FGenerator("tv")
HELLINGER = FGenerator("hellinger_sq")


def _eg(gamma: float) -> FGenerator:
    return FGenerator("egamma", gamma)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: FGenerator("egamma", g),
        lambda g: f_divergence(_P, _Q, _eg(g)),
        lambda g: egamma_integral_form(_P, _Q, g),
        lambda g: egamma_threshold_form(_P, _Q, g),
        lambda g: eta_tv_from_eta_gamma(0.5, g),
        lambda g: bu_igamma_n1(g),
    ],
    ids=["FGenerator", "egamma", "integral_form", "threshold_form", "eta_tv_bound", "bu_n1"],
)
def test_nan_gamma_is_rejected(call):
    # Every comparison with NaN is false, so a "gamma < 0" check let it
    # through and the formulas returned NaN or 0.
    with pytest.raises(DomainError, match="gamma"):
        call(math.nan)


class TestTV:
    def test_identity_is_zero(self):
        p = Distribution(np.array([0.2, 0.3, 0.5]))
        assert f_divergence(p, p, TV) == 0.0

    def test_disjoint_point_masses(self):
        assert f_divergence(Distribution.point_mass(0, 2), Distribution.point_mass(1, 2), TV) == 1.0

    def test_bernoulli_example(self):
        assert f_divergence(Distribution([0.5, 0.5]), Distribution([0.75, 0.25]), TV) == 0.25

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            f_divergence(Distribution(np.full(2, 1 / 2)), Distribution(np.full(3, 1 / 3)), TV)

    @given(distribution_pairs())
    def test_symmetric_and_bounded(self, pair):
        p, q = pair
        d = f_divergence(p, q, TV)
        assert d == f_divergence(q, p, TV)
        assert 0.0 <= d <= 1.0


class TestEgamma:
    @given(distributions(), st.floats(0.0, 6.0))
    def test_identical_arguments_vanish(self, p, gamma):
        assert f_divergence(p, p, _eg(gamma)) <= 1e-12

    @given(distribution_pairs())
    def test_gamma_one_is_tv(self, pair):
        p, q = pair
        assert f_divergence(p, q, _eg(1.0)) == pytest.approx(f_divergence(p, q, TV), abs=1e-14)

    @given(st.floats(1.0, 8.0))
    def test_disjoint_point_masses_give_one(self, gamma):
        p = Distribution.point_mass(0, 2)
        q = Distribution.point_mass(1, 2)
        assert f_divergence(p, q, _eg(gamma)) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.0, 1.0))
    def test_disjoint_point_masses_below_one(self, gamma):
        # below gamma = 1 the (1 - gamma)_+ term caps the divergence at gamma
        p = Distribution.point_mass(0, 2)
        q = Distribution.point_mass(1, 2)
        assert f_divergence(p, q, _eg(gamma)) == pytest.approx(min(gamma, 1.0), abs=1e-15)

    def test_negative_gamma_rejected(self):
        p = Distribution(np.full(2, 1 / 2))
        with pytest.raises(DomainError):
            f_divergence(p, p, _eg(-0.1))

    @given(distribution_pairs(), st.floats(0.0, 5.0))
    def test_three_forms_agree(self, pair, gamma):
        p, q = pair
        sup_form = f_divergence(p, q, _eg(gamma))
        assert egamma_integral_form(p, q, gamma) == pytest.approx(sup_form, abs=1e-12)
        assert egamma_threshold_form(p, q, gamma) == pytest.approx(sup_form, abs=1e-12)

    @given(distribution_pairs())
    def test_unimodal_in_gamma_with_peak_at_one(self, pair):
        # nondecreasing on [0, 1], nonincreasing on [1, inf); the peak is TV
        p, q = pair
        rising = [f_divergence(p, q, _eg(g)) for g in (0.0, 0.3, 0.7, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(rising, rising[1:]))
        falling = [f_divergence(p, q, _eg(g)) for g in (1.0, 1.5, 2.5, 4.0)]
        assert all(b <= a + 1e-12 for a, b in zip(falling, falling[1:]))

    @given(distribution_pairs(), st.floats(1.0, 5.0))
    def test_sandwich_between_tv_bounds(self, pair, gamma):
        p, q = pair
        e = f_divergence(p, q, _eg(gamma))
        t = f_divergence(p, q, TV)
        assert 1.0 - gamma * (1.0 - t) <= e + 1e-10
        assert e <= t + 1e-10


class TestHellinger:
    def test_identity_and_maximal(self):
        p = Distribution(np.array([0.2, 0.8]))
        assert f_divergence(p, p, HELLINGER) == 0.0
        assert f_divergence(
            Distribution.point_mass(0, 2), Distribution.point_mass(1, 2), HELLINGER
        ) == pytest.approx(2.0)

    def test_bernoulli_example(self):
        value = f_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]), HELLINGER)
        assert value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        assert value == pytest.approx(0.58579, abs=1e-5)

    @given(distribution_pairs())
    def test_tv_below_hellinger_distance(self, pair):
        p, q = pair
        assert f_divergence(p, q, TV) <= math.sqrt(f_divergence(p, q, HELLINGER)) + 1e-12
        assert f_divergence(p, q, HELLINGER) <= 2.0 + 1e-12


class TestFDivergence:
    @pytest.mark.parametrize(
        "f",
        [
            FGenerator("tv"),
            FGenerator("kl"),
            FGenerator("chi2"),
            FGenerator("hellinger_sq"),
            FGenerator("egamma", 1.7),
            FGenerator("egamma", 0.4),
        ],
    )
    def test_zero_at_equal_arguments(self, f):
        p = Distribution(np.array([0.1, 0.4, 0.5]))
        assert f_divergence(p, p, f) == pytest.approx(0.0, abs=1e-14)

    def test_kl_example(self):
        value = f_divergence(Distribution([0.5, 0.5]), Distribution([0.75, 0.25]), FGenerator("kl"))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.14384, abs=1e-5)

    def test_kl_infinite_off_support(self):
        p = Distribution([0.5, 0.5])
        q = Distribution.point_mass(1, 2)
        assert f_divergence(p, q, FGenerator("kl")) == math.inf
        assert f_divergence(p, q, FGenerator("chi2")) == math.inf
        # reverse direction stays finite
        assert math.isfinite(f_divergence(q, p, FGenerator("kl")))

    def test_kl_and_chi2_at_a_subnormal_q_without_overflow(self):
        # p / q overflows at q = 1e-320; the KL term is then log p - log q
        p, q = Distribution([1.0, 0.0]), Distribution([1e-320, 1.0])
        assert f_divergence(p, q, FGenerator("kl")) == -math.log(1e-320) == 736.8272408909739
        assert f_divergence(p, q, FGenerator("chi2")) == math.inf
        # in a batch with it, a row with no overflow keeps the bits of p log(p / q)
        rows = np.array([[0.5, 0.5], [1.0, 0.0]])
        qs = np.array([[0.25, 0.75], [1e-320, 1.0]])
        kl = divergence(rows, qs, FGenerator("kl"))
        assert kl[0] == (rows[0] * np.log(rows[0] / qs[0])).sum()
        assert kl[1] == 736.8272408909739

    def test_finite_limits_for_tv_hellinger_egamma(self):
        p = Distribution([0.5, 0.5])
        q = Distribution.point_mass(1, 2)
        assert f_divergence(p, q, FGenerator("tv")) == 0.5
        assert math.isfinite(f_divergence(p, q, FGenerator("hellinger_sq")))
        assert math.isfinite(f_divergence(p, q, FGenerator("egamma", 2.0)))

    def test_tv_kind_matches_tv(self):
        p = Distribution(np.array([0.2, 0.3, 0.5]))
        q = Distribution(np.array([0.6, 0.1, 0.3]))
        assert f_divergence(p, q, TV) == 0.5 * np.abs(p.probs - q.probs).sum()

    @given(distribution_pairs(), st.floats(0.0, 5.0))
    def test_egamma_kind_matches_egamma_exactly(self, pair, gamma):
        # the sup-over-sets form: the excess mass, less (1 - gamma)_+
        p, q = pair
        sup_form = max(excess(p.probs, q.probs, gamma) - max(1.0 - gamma, 0.0), 0.0)
        assert f_divergence(p, q, _eg(gamma)) == sup_form

    @given(distribution_pairs())
    def test_pinsker(self, pair):
        p, q = pair
        kl = f_divergence(p, q, FGenerator("kl"))
        assert f_divergence(p, q, TV) ** 2 <= 0.5 * kl + 1e-10


ALL_KINDS = [
    FGenerator("tv"),
    FGenerator("kl"),
    FGenerator("chi2"),
    FGenerator("hellinger_sq"),
    FGenerator("egamma", 0.4),
    FGenerator("egamma", 2.5),
]


class TestBatchedLayer:
    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_stack_matches_scalar_bit_for_bit(self, f, rng):
        # rows with some zeros, so the support conventions are exercised
        raw = rng.dirichlet(np.ones(6), size=(2, 30)) * (rng.random((2, 30, 6)) < 0.7)
        raw[..., 0] += 0.05
        pairs = [[Distribution(v / v.sum()) for v in side] for side in raw]
        ps, qs = (np.array([d.probs for d in side]) for side in pairs)
        values = divergence(ps, qs, f)
        assert values.shape == (30,)
        for value, p, q in zip(values, *pairs):
            assert value == f_divergence(p, q, f)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_broadcasts_over_all_pairs(self, f, rng):
        rows = rng.dirichlet(np.ones(4), size=5)
        table = divergence(rows[:, None], rows, f)
        assert table.shape == (5, 5)
        assert np.all(np.abs(np.diagonal(table)) <= 1e-14)
        assert table[1, 3] == divergence(rows[1], rows[3], f)

    def test_infinite_gamma_is_the_residual(self):
        p = Distribution(np.array([0.5, 0.5, 0.0]))
        q = Distribution(np.array([0.2, 0.3, 0.5]))
        assert f_divergence(q, p, _eg(math.inf)) == 0.5
        assert f_divergence(p, q, _eg(math.inf)) == 0.0

    def test_bounded_divergences_keep_their_range_on_disjoint_supports(self):
        # Disjoint supports sit on each bound; before the range rule a few
        # percent of these pairs rounded a few ulps past it.
        rng = np.random.default_rng(28)
        for a, b in ((1, 2), (2, 3), (3, 3), (4, 6), (7, 5)):
            ps, qs = np.zeros((2, 4000, a + b))
            ps[:, :a] = rng.dirichlet(np.ones(a), size=4000)
            qs[:, a:] = rng.dirichlet(np.ones(b), size=4000)
            ps, qs = normalize_rows(ps), normalize_rows(qs)
            assert divergence(ps, qs, FGenerator("tv")).max() <= 1.0
            assert divergence(ps, qs, FGenerator("hellinger_sq")).max() <= 2.0
            for gamma in (0.0, 0.5, 1.0, 2.0, math.inf):
                top = divergence(ps, qs, _eg(gamma)).max()
                assert top <= min(gamma, 1.0)
                assert excess(ps, qs, gamma).max() <= 1.0
        p, q = Distribution([0.2, 0.7, 0.1, 0.0]), Distribution([0.0, 0.0, 0.0, 1.0])
        assert f_divergence(p, q, FGenerator("tv")) <= 1.0
