import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldpkit
import ldpkit.info
from ldpkit.dist import RENORM_TOL, Distribution, FGenerator, f_divergence
from ldpkit.errors import CapacityError, DimensionError, DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, parse_kernel, randomized_response, tensor_power
from support import distributions, kernels, pushforward


class TestKernelInvariants:
    def test_rejects_negative_row_with_index(self):
        with pytest.raises(DomainError, match="row 1"):
            Kernel(np.array([[0.5, 0.5], [1.2, -0.2]]))

    def test_rejects_bad_row_sum_with_index(self):
        with pytest.raises(DomainError, match="row 0"):
            Kernel(np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.5, 0.5], [0.5, 0.6], [1.2, -0.2], [0.1, 0.1]], "row 1: sums to"),
            ([[0.5, 0.5], [1.2, -0.2], [0.5, 0.6]], "row 1: entries must be nonnegative"),
            ([[0.5, 0.5], [0.5, 0.5], [0.7, -0.2], [2.0, 0.0]], "row 2: entries must be nonnegative"),
        ],
    )
    def test_first_bad_row_is_reported(self, rows, message):
        # A row both negative and off in its sum reports the sign (row 2 of
        # the last case), and the first bad row wins over later ones.
        with pytest.raises(DomainError, match=message):
            Kernel(np.array(rows))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rescaled_rows_match_a_per_row_loop_bit_for_bit(self, order, rng):
        raw = rng.dirichlet(np.ones(150), size=6) * (1 + rng.normal(0, 1e-11, size=(6, 1)))
        raw[2] = raw[2] / raw[2].sum()
        raw = np.array(raw, order=order)
        expected = raw.copy()
        for i in range(raw.shape[0]):
            # Kept when the sum is within len * 2**-51 of 1, else divided once.
            total = float(expected[i].sum())
            if abs(total - 1.0) > expected[i].size * 2.0**-51:
                expected[i] = expected[i] / total
        assert np.array_equal(Kernel(raw).rows, expected)

    @given(
        st.integers(1, 4096),
        st.integers(1, 4),
        st.sampled_from(["C", "F"]),
        st.integers(0, 2**32 - 1),
    )
    def test_validating_stored_rows_changes_nothing(self, outputs, inputs, order, seed):
        # Rows off by up to RENORM_TOL / 2, by rounding only, or not at all;
        # the stored rows must come back bit for bit from both constructors.
        rng = np.random.default_rng(seed)
        raw = rng.dirichlet(np.full(outputs, rng.choice([0.1, 1.0, 10.0])), size=inputs)
        scale = rng.choice([0.0, 1e-7, 1.0], size=(inputs, 1))
        raw *= 1 + scale * rng.uniform(-RENORM_TOL / 2, RENORM_TOL / 2, size=(inputs, 1))
        k = Kernel(np.array(raw, order=order))
        assert np.array_equal(Kernel(k.rows).rows, k.rows)
        for x in range(inputs):
            assert np.array_equal(Distribution(k.rows[x]).probs, k.rows[x])
            assert np.array_equal(k.row(x).probs, k.rows[x])

    def test_renormalizes_tiny_row_deviation(self):
        k = Kernel(np.array([[0.5, 0.5 + 1e-10], [0.25, 0.75]]))
        assert np.allclose(k.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_shapes(self):
        k = Kernel(np.array([[0.1, 0.2, 0.7]]))
        assert (k.input_size, k.output_size) == (1, 3)

    @pytest.mark.parametrize("x", [-1, 2, True, 1.5])
    def test_row_index_outside_alphabet(self, x):
        with pytest.raises(DomainError, match=f"input symbol {x} outside alphabet of size 2"):
            bsc(0.25).row(x)

    def test_identity_needs_a_symbol(self):
        with pytest.raises(DomainError, match="alphabet size must be >= 1"):
            Kernel.identity(0)


class TestParsing:
    def test_parse_json(self):
        k = parse_kernel('{"rows": [[0.75, 0.25], [0.25, 0.75]]}')
        assert np.array_equal(k.rows, bsc(0.25).rows)

    def test_parse_csv(self):
        k = parse_kernel("0.75,0.25\n0.25,0.75\n")
        assert np.array_equal(k.rows, bsc(0.25).rows)

    def test_parse_reports_first_bad_row(self):
        with pytest.raises(DomainError, match="row 1"):
            parse_kernel("0.5,0.5\n0.9,0.3\n")

    def test_parse_ragged_rows(self):
        with pytest.raises(DimensionError):
            parse_kernel("0.5,0.5\n1.0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "0.5,abc\n0.5,0.5\n",
            '{"rows": [[0.5, 0.5], [0.2',
            "[[0.5, 0.5], [0.2, 0.8]]",
            '{"rows": "abc"}',
            '{"rows": 5}',
            '{"rows": [[true, false], ["0.5", "0.5"]]}',
            '{"rows": [[0.5, 0.5], ["0.5", 0.5]]}',
        ],
    )
    def test_unparseable_text_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="malformed kernel file"):
            parse_kernel(text)

    def test_json_round_trip(self):
        k = k_rr(1.0, 3)
        assert np.array_equal(parse_kernel(json.dumps({"rows": k.rows.tolist()})).rows, k.rows)


class TestConstructors:
    def test_bsc_rows(self):
        k = bsc(0.25)
        assert k.rows.tolist() == [[0.75, 0.25], [0.25, 0.75]]

    def test_bsc_identity_and_mixing(self):
        assert np.array_equal(bsc(0.0).rows, np.eye(2))
        assert np.all(bsc(0.5).rows == 0.5)

    def test_bsc_domain(self):
        with pytest.raises(DomainError, match=r"^crossover probability must be in \[0, 1\], got 1.5$"):
            bsc(1.5)

    def test_randomized_response_is_bsc(self):
        assert np.array_equal(randomized_response(1.0).rows, bsc(1 / (1 + math.e)).rows)

    def test_randomized_response_at_zero_mixes_fully(self):
        assert np.array_equal(randomized_response(0.0).rows, bsc(0.5).rows)

    def test_randomized_response_domain(self):
        with pytest.raises(DomainError):
            randomized_response(-0.2)

    def test_k_rr_matches_formula(self):
        k = k_rr(math.log(3.0), 3)
        assert np.allclose(np.diag(k.rows), 0.6, atol=1e-15)
        off = k.rows[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.2, atol=1e-15)

    def test_k_rr_binary_specialization(self):
        assert np.allclose(k_rr(0.7, 2).rows, randomized_response(0.7).rows, atol=1e-15)

    def test_k_rr_at_zero_uniform(self):
        assert np.allclose(k_rr(0.0, 4).rows, 0.25)

    def test_k_rr_domain(self):
        with pytest.raises(DomainError):
            k_rr(1.0, 1)

    # e^eps overflows past eps = 709.78; without a guard that was a
    # RuntimeWarning, and k_rr's diagonal became inf * 0.
    @pytest.mark.parametrize("epsilon", [math.inf, 709.79, 800.0])
    def test_infinite_odds_give_the_identity(self, epsilon):
        assert np.array_equal(randomized_response(epsilon).rows, np.eye(2))
        assert np.array_equal(k_rr(epsilon, 3).rows, np.eye(3))

    @pytest.mark.parametrize("epsilon", [math.nan, -0.2])
    def test_nan_and_negative_epsilon_name_epsilon(self, epsilon):
        with pytest.raises(DomainError, match="epsilon must be >= 0"):
            randomized_response(epsilon)
        with pytest.raises(DomainError, match="epsilon must be >= 0"):
            k_rr(epsilon, 3)


class TestPushforward:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 3.0))
    def test_binary_mixing_formula(self, p, eps):
        omega = 1.0 / (1.0 + math.exp(eps))
        out = pushforward(Distribution([1 - p, p]), randomized_response(eps))
        mixed = p * (1 - omega) + omega * (1 - p)
        assert out.probs[1] == pytest.approx(mixed, abs=1e-12)

    def test_identity_preserves(self):
        p = Distribution(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(pushforward(p, Kernel.identity(3)).probs, p.probs)

    def test_fully_mixing_kernel(self):
        out = pushforward(Distribution([0.1, 0.9]), bsc(0.5))
        assert np.allclose(out.probs, 0.5)


class TestProducts:
    def test_tensor_power_one_is_same(self):
        k = bsc(0.25)
        assert np.array_equal(tensor_power(k, 1).rows, k.rows)

    def test_tensor_power_zero_rejected(self):
        with pytest.raises(DomainError, match="^tensor power n must be >= 1, got 0$"):
            tensor_power(bsc(0.25), 0)

    def test_tensor_power_mixing(self):
        assert np.all(tensor_power(bsc(0.5), 2).rows == 0.25)

    def test_tensor_power_entry(self):
        k2 = tensor_power(bsc(0.25), 2)
        assert k2.rows[0, 1] == 0.75 * 0.25

    def test_tensor_cap_names_size(self):
        with pytest.raises(CapacityError, match="8192"):
            tensor_power(bsc(0.25), 13)

    def test_huge_power_fails_cleanly(self):
        # 2^(10^6) has 301030 digits, past Python's int-to-str limit.
        message = r"^tensor-power input alphabet states = {}\^1000000 is over the cap 4096$"
        with pytest.raises(CapacityError, match=message.format(2)):
            tensor_power(bsc(0.25), 10**6)
        with pytest.raises(CapacityError, match=message.format(10)):
            tensor_power(Kernel.identity(10), 10**6)

    @given(st.data(), kernels(max_in=3, max_out=3), st.integers(1, 3))
    def test_product_commutes_with_tensor(self, data, k, n):
        p = data.draw(distributions(size=k.input_size))
        def iid(d):
            return Distribution(reduce(np.kron, [d.probs] * n))

        left = pushforward(iid(p), tensor_power(k, n))
        right = iid(pushforward(p, k))
        assert np.allclose(left.probs, right.probs, atol=1e-12)


@st.composite
def dpi_instances(draw):
    k = draw(kernels(max_in=3, max_out=3))
    p = draw(distributions(size=k.input_size))
    q = draw(distributions(size=k.input_size))
    gamma = draw(st.floats(1.0, 5.0))
    return p, q, k, gamma


def test_test_only_names_are_not_shipped():
    # Their references, where tests still need one, live in tests/support.py.
    removed = {
        ldpkit.dist.Distribution: ["bernoulli", "uniform"],
        ldpkit.info: ["entropy", "bu_class_marginal"],
        ldpkit.info.JointDistribution: ["marginal_a", "marginal_b"],
        ldpkit.kernel: ["pushforward", "product_distribution"],
        ldpkit.kernel.Kernel: ["to_json"],
        ldpkit.oracle: ["grid_max"],
    }
    for owner, names in removed.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert not hasattr(ldpkit, name), name


class TestDataProcessing:
    @given(dpi_instances())
    def test_dpi_all_divergences(self, instance):
        p, q, k, gamma = instance
        fs = [
            FGenerator("tv"),
            FGenerator("kl"),
            FGenerator("chi2"),
            FGenerator("hellinger_sq"),
            FGenerator("egamma", gamma),
        ]
        pk, qk = pushforward(p, k), pushforward(q, k)
        for f in fs:
            before = f_divergence(p, q, f)
            after = f_divergence(pk, qk, f)
            if math.isinf(before):
                continue
            assert after <= before + 1e-10
