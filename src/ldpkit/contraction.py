"""Contraction coefficients of kernels and closed-form bounds on them.

For gamma >= 1 the hockey-stick contraction coefficient has a two-point
characterization: it is the largest E_gamma between any two rows of the
kernel. At gamma = 1 this is Dobrushin's total-variation coefficient.
The universal upper bound for any f-divergence contraction of an
(epsilon, delta)-locally-private kernel is

    phi(epsilon, delta) = 1 - (1 - delta) * exp(-epsilon),

with the n-fold tensorized version phi_n = 1 - (1 - phi)^n. ``phi_n``
computes both as -expm1(n (log1p(-delta) - epsilon)), exact to a few ulps
as epsilon and delta go to 0. Only the scan imports numpy, when it runs;
the closed forms need none.
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
    E_gamma_i(K_x || K_x') over ordered row pairs, at most 1 as
    :func:`ldpkit.dist.excess` gives it, and ``pairs[i]`` is
    the lexicographically smallest (x, x') attaining it ((0, 0) when it
    is 0). The (gamma, x, x', z) difference tensor is computed in blocks
    of rows and gammas sized by SCAN_BYTES, each written into one buffer
    allocated once per call; each gamma block's pair values fill one
    slab that is reduced before the next block starts.

    Gammas that fit one block take one full pass, in the caller's order.
    More are taken in ascending order (a stable sort), the first block in
    a full pass. Each pair's E_gamma is nonincreasing in gamma bit for
    bit: fl(gamma q) does not fall as gamma rises, and the subtraction,
    max(., 0), the pairwise row sum and min(., 1) are each monotone under
    round-to-nearest. So a pair's value at the largest gamma evaluated so
    far bounds it at every later gamma. A later block is floored by the
    last witness pair's value at the block's largest gamma, which no
    block maximum falls below, and evaluates only the pairs whose bound
    is >= that floor (a tie can still win on the lexicographic rule) and
    > 0, always with (0, 0), whose value is 0: the rest cannot attain
    any of the block's maxima, nor win a tie. The candidates' rows are
    gathered into the same buffer, so each value is the full pass's bit
    for bit; a block where more than half the pairs are candidates takes
    the full pass. A scan that returns every pair above a threshold must
    keep the pairs whose bound is >= min(floor, threshold).
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
    # Past the first block a candidate takes two gathered rows beside its
    # gstep rows of terms; n >= 3 rows leave room for them already.
    buf = np.empty(max(gstep * step * n, gstep + 2) * m)
    slab = np.empty((gstep, n, n))

    def full(gb):  # every pair's values, (len(gb), n * n)
        gb = gb[:, None, None, None]
        block = slab[: gb.shape[0]]
        for lo in range(0, n, step):
            p = rows[lo : lo + step, None, :]
            t = buf[: gb.shape[0] * p.shape[0] * n * m].reshape(gb.shape[0], p.shape[0], n, m)
            block[:, lo : lo + step] = excess(p, rows, gb, out=t)
        return block.reshape(gb.shape[0], n * n)

    if g.size <= gstep:
        flat = full(g)
        return flat.max(axis=1).tolist(), [divmod(i, n) for i in flat.argmax(axis=1).tolist()]

    def pruned(gb, xs, xps):  # the values of the pairs (xs, xps), (len(gb), xs.size)
        vals = slab.reshape(gstep, n * n)[: gb.size, : xs.size]
        chunk = buf.size // ((gb.size + 2) * m)
        for lo in range(0, xs.size, chunk):
            c = min(chunk, xs.size - lo)
            p, q = buf[: 2 * c * m].reshape(2, c, m)
            # mode="clip" takes straight into out, where "raise" would buffer
            np.take(rows, xs[lo : lo + c], axis=0, out=p, mode="clip")
            np.take(rows, xps[lo : lo + c], axis=0, out=q, mode="clip")
            t = buf[2 * c * m : (gb.size + 2) * c * m].reshape(gb.size, c, m)
            vals[:, lo : lo + c] = excess(p, q, gb[:, None, None], out=t)
        return vals

    order = np.argsort(g, kind="stable")
    gs = g[order]
    values, pairs = [0.0] * g.size, [(0, 0)] * g.size
    bound = np.empty((n, n))
    for a in range(0, g.size, gstep):
        gb = gs[a : a + gstep]
        many = True
        if a:
            x, xp = pairs[order[a - 1]]
            floor = excess(rows[x], rows[xp], gb[-1], out=buf[:m])
            keep = bound >= floor if floor else bound > 0.0
            keep[0, 0] = True
            # A gathered pair costs about 1.5 times a pair of the full pass.
            many = 2 * np.count_nonzero(keep) > n * n
        if many:
            flat = full(gb)
            bound[...] = flat[-1].reshape(n, n)
            top = flat.argmax(axis=1)
        else:
            xs, xps = keep.nonzero()
            flat = pruned(gb, xs, xps)
            bound[xs, xps] = flat[-1]
            i = flat.argmax(axis=1)
            top = xs[i] * n + xps[i]
        found = zip(order[a : a + gstep].tolist(), flat.max(axis=1).tolist(), top.tolist())
        for i, v, w in found:
            values[i], pairs[i] = v, divmod(w, n)
    return values, pairs


def phi(params: PrivacyParams) -> float:
    """Universal f-divergence contraction bound 1 - (1 - delta) e^{-epsilon}."""
    return phi_n(params, 1)


def phi_n(params: PrivacyParams, n: int) -> float:
    """Tensorized bound 1 - (1 - phi)^n = 1 - e^{-n epsilon} (1 - delta)^n,
    as one expm1 of a log1p: exact as epsilon and delta go to 0, +0.0 at
    zero, and 1 at delta = 1, where log1p(-1) would raise."""
    n = count("n", n, 1)
    if params.delta == 1.0:
        return 1.0
    return 0.0 - math.expm1(n * (math.log1p(-params.delta) - params.epsilon))


def eta_tv_from_eta_gamma(eta_gamma: float, gamma: float) -> float:
    """Upper bound on the TV coefficient: eta_tv <= 1 - (1 - eta_gamma) / gamma."""
    in_unit_interval("eta_gamma", eta_gamma)
    at_least("gamma", gamma, 1)
    return phi(PrivacyParams(math.log(gamma), eta_gamma))


def eta_kl_bsc(omega: float) -> float:
    """KL contraction coefficient of a binary symmetric channel: (1 - 2 omega)^2.

    Substituting omega = 1/(1 + e^eps) gives ((e^eps - 1)/(e^eps + 1))^2
    for the randomized-response parameterization. (The form 1 - 2 omega^2
    sometimes quoted is inconsistent with that specialization.)
    """
    in_unit_interval("crossover probability", omega)
    return (1.0 - 2.0 * omega) ** 2
