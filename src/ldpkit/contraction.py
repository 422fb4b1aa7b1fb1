"""Contraction coefficients of kernels and closed-form bounds on them.

For gamma >= 1 the hockey-stick contraction coefficient has a two-point
characterization: it is the largest E_gamma between any two rows of the
kernel. At gamma = 1 this is Dobrushin's total-variation coefficient.
The universal upper bound for any f-divergence contraction of an
(epsilon, delta)-locally-private kernel is

    phi(epsilon, delta) = 1 - (1 - delta) * exp(-epsilon),

with the n-fold tensorized version phi_n = 1 - (1 - phi)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import excess
from .errors import DomainError
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
        if not self.epsilon >= 0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta must be in [0, 1], got {self.delta!r}")


def gamma_from_epsilon(epsilon: float) -> float:
    """gamma = e^epsilon for epsilon in [0, inf].

    A finite epsilon whose exponential overflows is rejected rather than
    read as gamma = inf: that would certify against the infinite-epsilon
    residual instead of the level asked for.
    """
    if not epsilon >= 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon!r}")
    try:
        return math.exp(epsilon)
    except OverflowError:
        raise DomainError(f"epsilon = {epsilon!r} is too large: e^epsilon overflows") from None


@dataclass(frozen=True)
class ContractionReport:
    """Result of a two-point contraction scan.

    ``argmax_pair`` is the (x, x') ordered input pair achieving the sup,
    ties broken toward the smallest lexicographic pair so reports are
    deterministic. ``upper_bounds`` collects named closed-form bounds
    evaluated alongside.
    """

    eta_gamma: float
    gamma: float
    eta_tv: float
    argmax_pair: tuple[int, int]
    upper_bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        ok = (
            self.eta_gamma >= -1e-12
            and self.eta_gamma <= self.eta_tv + 1e-12
            and self.eta_tv <= 1.0 + 1e-12
        )
        if not ok:
            raise DomainError(
                f"contraction ordering violated: eta_gamma={self.eta_gamma!r}, "
                f"eta_tv={self.eta_tv!r}"
            )

    def to_dict(self) -> dict:
        return {
            "eta_gamma": self.eta_gamma,
            "gamma": self.gamma,
            "eta_tv": self.eta_tv,
            "argmax_pair": list(self.argmax_pair),
            "upper_bounds": dict(self.upper_bounds),
        }


def pairwise_egamma(k: Kernel, gammas) -> np.ndarray:
    """E_gamma(K_x || K_x') for every gamma >= 1 (+inf allowed) and ordered pair.

    Returns an array of shape (len(gammas), |X|, |X|), clamped to at
    most 1 (disjoint rows can otherwise sum to 1 + 1 ulp). One numpy pass
    over the (gamma, x, x', z) difference tensor, in blocks of rows and
    gammas sized by SCAN_BYTES, each written into one buffer allocated
    once per call.
    """
    g = np.asarray(gammas, dtype=float).reshape(-1)
    bad = g[~(g >= 1)]
    if bad.size:
        raise DomainError(f"two-point formula requires gamma >= 1, got {float(bad[0])!r}")
    rows = k.rows
    n, m = rows.shape
    out = np.empty((g.size, n, n))
    step = min(n, max(1, SCAN_BYTES // (8 * n * m)))
    gstep = max(1, min(g.size, SCAN_BYTES // (8 * n * m * step)))
    buf = np.empty(gstep * step * n * m)
    for a in range(0, g.size, gstep):
        gb = g[a : a + gstep, None, None, None]
        for lo in range(0, n, step):
            p = rows[lo : lo + step, None, :]
            t = buf[: gb.shape[0] * p.shape[0] * n * m].reshape(gb.shape[0], p.shape[0], n, m)
            out[a : a + gstep, lo : lo + step] = excess(p, rows, gb, out=t)
    return np.minimum(out, 1.0, out=out)


def eta_gamma_two_point(k: Kernel, gamma: float) -> ContractionReport:
    """Hockey-stick contraction coefficient via the two-point formula.

    Scans all ordered input pairs (E_gamma is asymmetric) in O(|X|^2 |Z|),
    at gamma and at 1 (for eta_tv) in one pass; valid for gamma >= 1 only.
    The argmax pair is the lexicographically smallest ordered pair
    attaining the sup ((0, 0) when the sup is 0).
    """
    gamma = float(gamma)
    values, tv_values = pairwise_egamma(k, [gamma, 1.0])
    best = float(values.max())
    x, xp = np.unravel_index(int(np.argmax(values)), values.shape)
    return ContractionReport(
        eta_gamma=best,
        gamma=gamma,
        eta_tv=float(tv_values.max()),
        argmax_pair=(int(x), int(xp)),
        upper_bounds={"eta_tv_from_eta_gamma": eta_tv_from_eta_gamma(best, gamma)},
    )


def phi(params: PrivacyParams) -> float:
    """Universal f-divergence contraction bound 1 - (1 - delta) e^{-epsilon}."""
    return 1.0 - (1.0 - params.delta) * math.exp(-params.epsilon)


def phi_n(params: PrivacyParams, n: int) -> float:
    """Tensorized bound 1 - (1 - phi)^n = 1 - e^{-n epsilon} (1 - delta)^n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return 1.0 - (1.0 - phi(params)) ** n


def eta_tv_from_eta_gamma(eta_gamma: float, gamma: float) -> float:
    """Upper bound on the TV coefficient: eta_tv <= 1 - (1 - eta_gamma) / gamma."""
    if not 0.0 <= eta_gamma <= 1.0:
        raise DomainError(f"eta_gamma must be in [0, 1], got {eta_gamma!r}")
    if gamma < 1:
        raise DomainError(f"gamma must be >= 1, got {gamma!r}")
    return 1.0 - (1.0 - eta_gamma) / gamma


def eta_kl_bsc(omega: float) -> float:
    """KL contraction coefficient of a binary symmetric channel: (1 - 2 omega)^2.

    Substituting omega = 1/(1 + e^eps) gives ((e^eps - 1)/(e^eps + 1))^2
    for the randomized-response parameterization. (The form 1 - 2 omega^2
    sometimes quoted is inconsistent with that specialization.)
    """
    if not 0.0 <= omega <= 1.0:
        raise DomainError(f"crossover probability {omega!r} outside [0, 1]")
    return (1.0 - 2.0 * omega) ** 2
