import json
import math
import re

import numpy as np
import pytest

from ldpkit.bounds import (
    BayesConfig,
    GridSpec,
    bayes_egamma_lb,
    fano_lb,
    highdim_mean_lb,
    lecam_private,
    moment_estimation_lb,
    small_ball_uniform01,
)
from ldpkit.contraction import PrivacyParams, phi_n
from ldpkit.errors import DomainError, at_least, count, finite_above, in_unit_interval
from ldpkit.info import BernoulliUniformModel, bu_igamma, bu_mutual_information
from ldpkit.kernel import Kernel, bsc, k_rr, tensor_power
from ldpkit.ldp import verify_equivalence
from ldpkit.oracle import SearchConfig

NAN = math.nan
P = PrivacyParams(1.0, 0.1)


# A comparison with NaN is false, so a check written as `if n < 1` lets
# NaN through to a silent NaN or vacuous 0.0; each of these once did.
@pytest.mark.parametrize(
    "call",
    [
        lambda: phi_n(P, NAN),
        lambda: lecam_private(1.0, 0.1, NAN, P),
        lambda: moment_estimation_lb(2.0, NAN, P),
        lambda: fano_lb(4, 0.1, 1.0, NAN, P),
        lambda: highdim_mean_lb(8, 1.0, NAN, P),
        lambda: BayesConfig(small_ball_uniform01, 0.1, NAN, P),
        lambda: fano_lb(NAN, 0.1, 1.0, 5, P),
        lambda: highdim_mean_lb(NAN, 1.0, 5, P),
        lambda: BernoulliUniformModel(NAN),
        lambda: SearchConfig(seed=NAN, trials=10),
        lambda: SearchConfig(seed=0, trials=NAN),
        lambda: GridSpec(0.0, 1.0, NAN),
        lambda: tensor_power(bsc(0.2), NAN),
    ],
    ids=[
        "phi_n-n", "lecam-n", "moment-n", "fano-n", "highdim-n", "bayes-config-n",
        "fano-v_count", "highdim-d", "bu-model-n", "search-seed", "search-trials",
        "grid-steps", "tensor-power-n",
    ],
)
def test_nan_count_or_parameter_is_one_domain_error_naming_nan(call):
    with pytest.raises(DomainError, match=r", got nan$"):
        call()


# A count that is a float or a bool once gave a bare TypeError from numpy,
# or went through: n = 2.5 gave a mutual information, n = True a broadcast
# error, steps = True a one-point grid.
@pytest.mark.parametrize(
    "call, got",
    [
        (lambda: tensor_power(bsc(0.2), 2.5), "2.5"),
        (lambda: tensor_power(bsc(0.2), True), "True"),
        (lambda: Kernel.identity(2.5), "2.5"),
        (lambda: k_rr(1.0, 2.5), "2.5"),
        (lambda: k_rr(1.0, 3.0), "3.0"),
        (lambda: SearchConfig(seed=1, trials=2.5).dirichlet_pairs(3), "2.5"),
        (lambda: SearchConfig(seed=1.5, trials=2).dirichlet_pairs(3), "1.5"),
        (lambda: SearchConfig(seed=True, trials=2).dirichlet_pairs(3), "True"),
        (lambda: bu_mutual_information(BernoulliUniformModel(2.5)), "2.5"),
        (lambda: BernoulliUniformModel(True), "True"),
        (lambda: GridSpec(0.0, 1.0, True), "True"),
        (lambda: phi_n(P, 2.5), "2.5"),
        (lambda: phi_n(P, True), "True"),
        (lambda: lecam_private(1.0, 0.1, 2.5, P), "2.5"),
        (lambda: moment_estimation_lb(2.0, 2.5, P), "2.5"),
        (lambda: fano_lb(4.5, 0.1, 1.0, 5, P), "4.5"),
        (lambda: fano_lb(4, 0.1, 1.0, 2.5, P), "2.5"),
        (lambda: highdim_mean_lb(8.5, 1.0, 5, P), "8.5"),
        (lambda: highdim_mean_lb(8, 1.0, 2.5, P), "2.5"),
        (lambda: BayesConfig(small_ball_uniform01, 0.1, 2.5, P), "2.5"),
    ],
    ids=[
        "tensor-power-n", "tensor-power-bool", "identity-size", "k_rr-k", "k_rr-whole-float",
        "search-trials", "search-seed", "search-seed-bool", "bu-model-n", "bu-model-bool",
        "grid-steps-bool", "phi_n-n", "phi_n-bool", "lecam-n", "moment-n",
        "fano-v_count", "fano-n", "highdim-d", "highdim-n", "bayes-config-n",
    ],
)
def test_fractional_or_bool_count_is_one_domain_error_naming_it(call, got):
    with pytest.raises(DomainError, match=f" must be an integer, got {re.escape(got)}$"):
        call()


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_integer_accepts_python_and_numpy_integers(value):
    count("n", value, 1)
    assert Kernel.identity(value).input_size == 3
    assert Kernel.identity(value).row(value - 1).probs.tolist() == [0.0, 0.0, 1.0]
    assert BernoulliUniformModel(value).n == 3
    assert type(verify_equivalence(bsc(0.3), P, value).trials) is int
    # a report echoes the count as the equal int, so it serializes as one
    calculators = [
        lambda n: lecam_private(1.0, 0.1, n, P),
        lambda n: moment_estimation_lb(2.0, n, P),
        lambda n: fano_lb(n, 0.1, 1.0, n, P),
        lambda n: highdim_mean_lb(n, 1.0, n, P),
        lambda n: bayes_egamma_lb(BayesConfig(small_ball_uniform01, 0.1, n, P)),
    ]
    for calculator in calculators:
        report = calculator(value)
        assert report == calculator(3)
        assert json.dumps(report.inputs) == json.dumps(calculator(3).inputs)


def _outcome(call, count):
    """The float that call(count) returns, or the type and message of what it raises."""
    try:
        return "returns", float(call(count))
    except Exception as exc:
        return "raises", type(exc).__name__, str(exc)


# A numpy-integer count was once kept as given, so its arithmetic wrapped
# around in the fixed-width dtype: n + 1 = 0 for a uint8 n of 255, a
# trials x d product under the sample cap, and 2^n under the state cap.
# The caps are lowered so that a wrapped count cannot build much.
@pytest.mark.parametrize(
    "call, count",
    [
        (lambda n: bu_igamma(BernoulliUniformModel(n), 2.0), np.uint8(255)),
        (lambda n: bu_mutual_information(BernoulliUniformModel(n)), np.uint8(255)),
        (lambda n: SearchConfig(seed=1, trials=n).dirichlet_pairs(6), np.uint8(200)),
        (lambda n: tensor_power(bsc(0.2), n), np.int8(7)),
    ],
    ids=["bu-igamma", "bu-mutual-information", "search-trials", "tensor-power-n"],
)
def test_numpy_integer_count_behaves_like_the_equal_int(monkeypatch, call, count):
    monkeypatch.setattr("ldpkit.kernel.DEFAULT_STATE_CAP", 64)
    monkeypatch.setattr("ldpkit.oracle.MAX_SAMPLES", 1000)
    assert _outcome(call, count) == _outcome(call, int(count))


def test_fractional_grid_steps_is_one_domain_error():
    # numpy takes steps as an integer, so a fractional one is refused when built
    with pytest.raises(DomainError, match=r"^grid steps must be an integer, got 2\.5$"):
        GridSpec(0.0, 1.0, 2.5)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda v: at_least("n", v, 1), "n must be >= 1, got {}"),
        (lambda v: count("n", v, 1), "n must be >= 1, got {}"),
        (lambda v: in_unit_interval("delta", v), "delta must be in [0, 1], got {}"),
        (lambda v: finite_above("tau", v, 0), "tau must be > 0, got {}"),
    ],
    ids=["at_least", "count", "in_unit_interval", "finite_above"],
)
@pytest.mark.parametrize("value", [NAN, -0.5])
def test_each_check_rejects_nan_and_names_the_value(check, message, value):
    with pytest.raises(DomainError, match=f"^{re.escape(message.format(value))}$"):
        check(value)

