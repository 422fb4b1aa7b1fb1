"""Contraction coefficients of kernels and closed-form bounds on them.

For gamma >= 1 the hockey-stick contraction coefficient has a two-point
characterization: it is the largest E_gamma between any two rows of the
kernel. At gamma = 1 this is Dobrushin's total-variation coefficient.
The universal upper bound for any f-divergence contraction of an
(epsilon, delta)-locally-private kernel is

    phi(epsilon, delta) = 1 - (1 - delta) * exp(-epsilon),

with the n-fold tensorized version phi_n = 1 - (1 - phi)^n. Only the
scan imports numpy, when it runs; the closed forms need none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, at_least, count, in_unit_interval

if TYPE_CHECKING:
    from .kernel import Kernel

# Byte budget of the one buffer a pairwise scan reuses for every block:
# blocks of rows (and of gammas) are sized to fit it, down to one row's
# (|X|, |Z|) slab when that alone is larger. 1 MiB fits a 2 MiB
# per-core L2 cache, so the passes over a block stay in cache.
SCAN_BYTES = 1 << 20


@dataclass(frozen=True)
class PrivacyParams:
    """The pair (epsilon, delta) with epsilon >= 0 and delta in [0, 1]."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        at_least("epsilon", self.epsilon, 0)
        in_unit_interval("delta", self.delta)


def gamma_from_epsilon(epsilon: float) -> float:
    """gamma = e^epsilon for epsilon in [0, inf].

    A finite epsilon whose exponential overflows is rejected rather than
    read as gamma = inf: that would certify against the infinite-epsilon
    residual instead of the level asked for.
    """
    at_least("epsilon", epsilon, 0)
    try:
        return math.exp(epsilon)
    except OverflowError:
        raise DomainError(f"epsilon = {epsilon!r} is too large: e^epsilon overflows") from None


def two_point_scan(k: Kernel, gammas) -> tuple[list[float], list[tuple[int, int]]]:
    """eta_gamma(K) and its witness pair for every gamma >= 1 (+inf allowed).

    Returns ``(values, pairs)``: ``values[i]`` is the largest
    E_gamma_i(K_x || K_x') over ordered row pairs, clamped to at most 1
    (disjoint rows can otherwise sum to 1 + 1 ulp), and ``pairs[i]`` is
    the lexicographically smallest (x, x') attaining it ((0, 0) when it
    is 0). One numpy pass over the (gamma, x, x', z) difference tensor,
    in blocks of rows and gammas sized by SCAN_BYTES, each written into
    one buffer allocated once per call; each gamma block's pair values
    fill one slab that is reduced before the next block starts.
    """
    import numpy as np

    from .dist import excess

    g = np.asarray(gammas, dtype=float).reshape(-1)
    bad = g[~(g >= 1)]
    if bad.size:
        raise DomainError(f"two-point formula requires gamma >= 1, got {float(bad[0])!r}")
    rows = k.rows
    n, m = rows.shape
    step = min(n, max(1, SCAN_BYTES // (8 * n * m)))
    gstep = max(1, min(g.size, SCAN_BYTES // (8 * n * m * step)))
    buf = np.empty(gstep * step * n * m)
    slab = np.empty((gstep, n, n))
    values, pairs = [], []
    for a in range(0, g.size, gstep):
        gb = g[a : a + gstep, None, None, None]
        block = slab[: gb.shape[0]]
        for lo in range(0, n, step):
            p = rows[lo : lo + step, None, :]
            t = buf[: gb.shape[0] * p.shape[0] * n * m].reshape(gb.shape[0], p.shape[0], n, m)
            np.minimum(excess(p, rows, gb, out=t), 1.0, out=block[:, lo : lo + step])
        flat = block.reshape(gb.shape[0], n * n)
        values.extend(flat.max(axis=1).tolist())
        pairs.extend(divmod(i, n) for i in flat.argmax(axis=1).tolist())
    return values, pairs


def phi(params: PrivacyParams) -> float:
    """Universal f-divergence contraction bound 1 - (1 - delta) e^{-epsilon}."""
    return 1.0 - (1.0 - params.delta) * math.exp(-params.epsilon)


def phi_n(params: PrivacyParams, n: int) -> float:
    """Tensorized bound 1 - (1 - phi)^n = 1 - e^{-n epsilon} (1 - delta)^n."""
    return 1.0 - (1.0 - phi(params)) ** count("n", n, 1)


def eta_tv_from_eta_gamma(eta_gamma: float, gamma: float) -> float:
    """Upper bound on the TV coefficient: eta_tv <= 1 - (1 - eta_gamma) / gamma."""
    in_unit_interval("eta_gamma", eta_gamma)
    at_least("gamma", gamma, 1)
    return 1.0 - (1.0 - eta_gamma) / gamma


def eta_kl_bsc(omega: float) -> float:
    """KL contraction coefficient of a binary symmetric channel: (1 - 2 omega)^2.

    Substituting omega = 1/(1 + e^eps) gives ((e^eps - 1)/(e^eps + 1))^2
    for the randomized-response parameterization. (The form 1 - 2 omega^2
    sometimes quoted is inconsistent with that specialization.)
    """
    in_unit_interval("crossover probability", omega)
    return (1.0 - 2.0 * omega) ** 2
