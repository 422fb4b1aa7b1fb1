"""Exact (epsilon, delta)-LDP auditing of finite mechanisms.

The tightest delta at privacy level epsilon equals the hockey-stick
contraction coefficient of the kernel at gamma = e^epsilon, so the whole
privacy profile of a finite mechanism is computable exactly from its
rows. A sampled verifier checks the contraction inequality

    E_{e^eps}(PK || QK) <= delta * E_{e^eps}(P || Q)

on random and point-mass input pairs; the point masses make the negative
direction exact rather than probabilistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contraction
from .contraction import PrivacyParams, gamma_from_epsilon, pairwise_egamma
from .dist import Distribution, excess, normalize_rows
from .errors import DomainError
from .kernel import Kernel

# Fixed default seed for the sampled verifier; override per call for
# independent replications.
DEFAULT_SEED = 1729

IS_LDP_TOL = 1e-12
VERIFY_TOL = 1e-10


def delta_at(k: Kernel, epsilon: float) -> float:
    """Smallest delta for which k is (epsilon, delta)-LDP; epsilon may be +inf."""
    return float(pairwise_egamma(k, [gamma_from_epsilon(epsilon)]).max())


def is_ldp(k: Kernel, params: PrivacyParams) -> bool:
    """Whether k satisfies (epsilon, delta)-LDP, up to additive 1e-12."""
    return delta_at(k, params.epsilon) <= params.delta + IS_LDP_TOL


@dataclass(frozen=True)
class PrivacyProfile:
    """Sampled privacy profile: (epsilon, tightest delta) pairs on a grid."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        eps = [e for e, _ in self.points]
        deltas = [d for _, d in self.points]
        if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
            raise DomainError("epsilon grid must be strictly increasing")
        if any(not 0.0 <= d <= 1.0 for d in deltas):
            raise DomainError("profile deltas must lie in [0, 1]")
        if any(d2 > d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:])):
            raise DomainError("profile deltas must be nonincreasing in epsilon")


def privacy_profile(k: Kernel, epsilons) -> PrivacyProfile:
    """Evaluate the exact profile on a strictly increasing epsilon grid.

    The grid is scanned in chunks whose (chunk, |X|, |X|) values fit
    the scan's byte budget, keeping only each chunk's maxima.
    """
    eps = [float(e) for e in epsilons]
    gammas = [gamma_from_epsilon(e) for e in eps]
    chunk = max(1, contraction.SCAN_BYTES // (8 * k.input_size**2))
    deltas = []
    for a in range(0, len(gammas), chunk):
        deltas.extend(pairwise_egamma(k, gammas[a : a + chunk]).max(axis=(1, 2)).tolist())
    return PrivacyProfile(points=tuple(zip(eps, deltas)))


@dataclass(frozen=True)
class EpsilonSearchResult:
    """Outcome of inverting the profile at a target delta.

    ``epsilon`` is +inf when no finite level achieves the target (the
    kernel leaks some mass even at infinite epsilon).
    """

    epsilon: float
    delta_achieved: float


def tightest_epsilon(k: Kernel, delta: float) -> EpsilonSearchResult:
    """Smallest epsilon with delta_at(k, epsilon) <= delta, exactly.

    f(gamma) = max over ordered pairs of E_gamma(K_x || K_x') is convex,
    nonincreasing and piecewise linear on [1, inf], and f(inf) is the
    residual. One scan at gamma = inf and 1 settles epsilon* = inf
    (residual above delta) and epsilon* = 0 (f(1) <= delta). Otherwise
    Newton steps run from gamma = 1: with (x, x') the argmax pair and
    Q = K_x'(A) on A = {z : K_x(z) > gamma K_x'(z)}, that pair's tangent
    f(gamma) - (gamma' - gamma) Q lies below f, so its root
    gamma + (f(gamma) - delta) / Q does not pass gamma*. Each step lands
    on a new linear piece, so the iterates rise strictly and reach
    gamma* after finitely many scans; they stop when f <= delta or gamma
    no longer rises. Every iterate is scanned at e^epsilon, so the last
    scan is delta_at(k, epsilon).
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must be in [0, 1], got {delta!r}")
    (residual, _), (best, pair) = map(_top, pairwise_egamma(k, [math.inf, 1.0]))
    if residual > delta:
        return EpsilonSearchResult(epsilon=math.inf, delta_achieved=residual)
    epsilon, gamma = 0.0, 1.0
    while best > delta:
        p, q = k.rows[pair[0]], k.rows[pair[1]]
        slope = float(q[p - gamma * q > 0.0].sum())
        next_epsilon = math.log(gamma + (best - delta) / slope)
        next_gamma = gamma_from_epsilon(next_epsilon)
        if not next_gamma > gamma:
            break
        epsilon, gamma = next_epsilon, next_gamma
        best, pair = _top(pairwise_egamma(k, [gamma])[0])
    return EpsilonSearchResult(epsilon=epsilon, delta_achieved=best)


def _top(values: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest entry of one gamma's (|X|, |X|) scan and its (x, x') pair.

    Only these scalars are kept, so no scan array outlives its step.
    """
    i = int(np.argmax(values))
    return float(values.flat[i]), divmod(i, values.shape[1])


@dataclass(frozen=True)
class EquivalenceReport:
    """Sampled check of the contraction form of the LDP constraint.

    ``max_ratio`` is the largest observed E_gamma(PK||QK) / E_gamma(P||Q)
    over pairs with non-negligible denominator, with the achieving pair
    recorded. ``violation_found`` reports whether any pair (point masses
    included) exceeded delta * E_gamma(P||Q) beyond tolerance.
    """

    epsilon: float
    delta: float
    certified: bool
    trials: int
    max_ratio: float
    max_ratio_pair: tuple | None
    violation_found: bool
    violation_pair: tuple | None

    def to_dict(self) -> dict:
        def _pair(pair):
            if pair is None:
                return None
            return [list(np.asarray(v, dtype=float)) for v in pair]

        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "certified": self.certified,
            "trials": self.trials,
            "max_ratio": self.max_ratio,
            "max_ratio_pair": _pair(self.max_ratio_pair),
            "violation_found": self.violation_found,
            "violation_pair": _pair(self.violation_pair),
        }


def _pushforward(ps: np.ndarray, k: Kernel) -> np.ndarray:
    # A stack of vector-matrix products rounds like pushforward does row
    # by row; one (trials, |X|) @ (|X|, |Z|) product would not.
    return normalize_rows((ps[:, None, :] @ k.rows)[:, 0, :])


def verify_equivalence(
    k: Kernel, params: PrivacyParams, trials: int, seed: int = DEFAULT_SEED
) -> EquivalenceReport:
    """Probe the contraction inequality on sampled plus point-mass pairs.

    When the kernel is certified at (epsilon, delta), no probed pair may
    violate the inequality beyond an additive 1e-10. When it is not, the
    point-mass sweep is guaranteed to exhibit a violating pair, because
    the two-point supremum is attained there.

    Pairs are probed in a fixed order: the point masses (x, x'), x != x',
    row-major, then the Dirichlet pairs in draw order. The first violating
    pair and the first pair of largest ratio are reported. E_gamma between
    two distinct point masses is 1, and their pushforwards are rows of k,
    so that sweep reads straight off the pairwise scan.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    gamma = gamma_from_epsilon(params.epsilon)
    d = k.input_size
    off_diagonal = np.flatnonzero(~np.eye(d, dtype=bool))
    point_num = pairwise_egamma(k, [gamma])[0].reshape(-1)[off_diagonal]
    # The scan's diagonal is exactly 0, so this is is_ldp from the same scan.
    certified = float(point_num.max(initial=0.0)) <= params.delta + IS_LDP_TOL

    rng = np.random.default_rng(seed)
    ps = normalize_rows(rng.dirichlet(np.ones(d), size=trials))
    qs = normalize_rows(rng.dirichlet(np.ones(d), size=trials))
    num = np.concatenate([point_num, excess(_pushforward(ps, k), _pushforward(qs, k), gamma)])
    den = np.concatenate([np.ones(point_num.size), excess(ps, qs, gamma)])

    def pair(i: int) -> tuple:
        if i < point_num.size:
            x, xp = divmod(int(off_diagonal[i]), d)
            return Distribution.point_mass(x, d).probs, Distribution.point_mass(xp, d).probs
        return ps[i - point_num.size], qs[i - point_num.size]

    violations = np.flatnonzero(num > params.delta * den + VERIFY_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 1e-12, num / den, 0.0)
    best = int(np.argmax(ratios))
    max_ratio = float(ratios[best])
    return EquivalenceReport(
        epsilon=params.epsilon,
        delta=params.delta,
        certified=certified,
        trials=trials,
        max_ratio=max_ratio,
        max_ratio_pair=pair(best) if max_ratio > 0.0 else None,
        violation_found=violations.size > 0,
        violation_pair=pair(int(violations[0])) if violations.size else None,
    )
