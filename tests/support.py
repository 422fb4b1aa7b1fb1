"""Shared generators and hypothesis strategies for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

from ldpkit.dist import Distribution, egamma, tv
from ldpkit.kernel import Kernel, bsc, k_rr, pushforward, randomized_response


def random_distribution(rng, size: int) -> Distribution:
    return Distribution(rng.dirichlet(np.ones(size)))


def random_kernel(rng, nx: int, nz: int) -> Kernel:
    return Kernel(rng.dirichlet(np.ones(nz), size=nx))


def audit_kernel_family(seed: int = 7):
    """Named kernels with output size <= 10 for raw-definition checks."""
    rng = np.random.default_rng(seed)
    return [
        ("rr(0.5)", randomized_response(0.5)),
        ("rr(1)", randomized_response(1.0)),
        ("rr(2)", randomized_response(2.0)),
        ("krr(ln3,3)", k_rr(math.log(3.0), 3)),
        ("krr(1,5)", k_rr(1.0, 5)),
        ("bsc(0.25)", bsc(0.25)),
        ("bsc(0.5)", bsc(0.5)),
        ("identity(3)", Kernel.identity(3)),
        ("random(3,7)", random_kernel(rng, 3, 7)),
        ("random(4,10)", random_kernel(rng, 4, 10)),
        ("random(2,6)", random_kernel(rng, 2, 6)),
    ]


@st.composite
def distributions(draw, size: int | None = None, min_size: int = 2, max_size: int = 5):
    k = size if size is not None else draw(st.integers(min_size, max_size))
    weights = draw(
        st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(lambda w: sum(w) > 0)
    )
    arr = np.asarray(weights, dtype=float)
    return Distribution(arr / arr.sum())


@st.composite
def distribution_pairs(draw, min_size: int = 2, max_size: int = 5):
    k = draw(st.integers(min_size, max_size))
    return draw(distributions(size=k)), draw(distributions(size=k))


@st.composite
def kernels(draw, min_in: int = 2, max_in: int = 4, min_out: int = 2, max_out: int = 4):
    nx = draw(st.integers(min_in, max_in))
    nz = draw(st.integers(min_out, max_out))
    rows = [draw(distributions(size=nz)).probs for _ in range(nx)]
    return Kernel(np.vstack(rows))


# --------------------------------------------------------------------------
# Per-pair reference implementations of the two-point scan, the profile
# inversion and the sampled verifier: one row pair (or input pair) at a
# time through the scalar Distribution API, which the batched engine must
# reproduce. Test-only and slow.


def loop_two_point(k: Kernel, gamma: float) -> tuple[float, float, tuple[int, int]]:
    """(eta_gamma, eta_tv, argmax pair) by scanning every ordered row pair;
    the first pair in row-major order to reach the max wins. gamma >= 1
    (gamma = inf gives the residual)."""
    best = 0.0
    best_tv = 0.0
    best_pair = (0, 0)
    for x in range(k.input_size):
        px = k.row(x)
        for xp in range(k.input_size):
            qx = k.row(xp)
            value = egamma(px, qx, gamma)
            if value > best:
                best = value
                best_pair = (x, xp)
            best_tv = max(best_tv, tv(px, qx))
    return best, best_tv, best_pair


def loop_infinite_epsilon_residual(k: Kernel) -> float:
    """Largest mass one row puts where another row is exactly zero."""
    best = 0.0
    for x in range(k.input_size):
        for xp in range(k.input_size):
            if x == xp:
                continue
            best = max(best, float(k.rows[x][k.rows[xp] == 0.0].sum()))
    return best


def bisect_tightest_epsilon(k: Kernel, delta: float, eps_max: float = 50.0, tol: float = 1e-9):
    """Smallest epsilon with delta(epsilon) <= delta by bisection on
    [0, eps_max] to absolute tolerance tol, using loop_two_point.

    Returns (epsilon, saturated): +inf when delta is below the
    infinite-epsilon residual, (eps_max, True) when eps_max is not enough.
    """

    def delta_at(eps: float) -> float:
        return loop_two_point(k, math.exp(eps))[0]

    if delta_at(0.0) <= delta:
        return 0.0, False
    if delta < loop_infinite_epsilon_residual(k):
        return math.inf, False
    if delta_at(eps_max) > delta:
        return eps_max, True
    lo, hi = 0.0, eps_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if delta_at(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi, False


def loop_verify(k: Kernel, epsilon: float, delta: float, trials: int, seed: int):
    """The sampled verifier pair by pair: point masses (x, x'), x != x',
    row-major, then Dirichlet pairs in draw order. Returns
    (violation_pair, max_ratio, max_ratio_pair). max_ratio_pair is the
    first pair of largest ratio. violation_pair is the worst point-mass
    pair (the first of largest E_gamma between pushforwards) when it
    violates, and otherwise the first violating Dirichlet pair."""
    gamma = math.exp(epsilon)
    d = k.input_size
    pairs = [
        (Distribution.point_mass(x, d), Distribution.point_mass(xp, d))
        for x in range(d)
        for xp in range(d)
        if x != xp
    ]
    rng = np.random.default_rng(seed)
    ps = rng.dirichlet(np.ones(d), size=trials)
    qs = rng.dirichlet(np.ones(d), size=trials)
    pairs.extend((Distribution(p), Distribution(q)) for p, q in zip(ps, qs))
    probes = []  # (p, q, num, den) in probe order
    for p, q in pairs:
        num = egamma(pushforward(p, k), pushforward(q, k), gamma)
        probes.append((p.probs, q.probs, num, egamma(p, q, gamma)))
    max_ratio, max_ratio_pair = 0.0, None
    for p, q, num, den in probes:
        if den > 1e-12 and num / den > max_ratio:
            max_ratio, max_ratio_pair = num / den, (p, q)
    violating = [(p, q) for p, q, num, den in probes if num > delta * den + 1e-10]
    # Every point-mass pair has den = 1, so the worst one violates if any does.
    worst = max(probes[: d * (d - 1)], key=lambda probe: probe[2], default=None)
    if worst is not None and worst[2] > delta * worst[3] + 1e-10:
        return worst[:2], max_ratio, max_ratio_pair
    return (violating[0] if violating else None), max_ratio, max_ratio_pair
