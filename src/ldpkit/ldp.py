"""Exact (epsilon, delta)-LDP auditing of finite mechanisms.

The tightest delta at privacy level epsilon equals the hockey-stick
contraction coefficient of the kernel at gamma = e^epsilon, so the whole
privacy profile of a finite mechanism is computable exactly from its
rows. A sampled verifier checks the contraction inequality

    E_{e^eps}(PK || QK) <= delta * E_{e^eps}(P || Q)

on random and point-mass input pairs; the point masses make the negative
direction exact rather than probabilistic.

Every audit question here, and so every answer of ``ldpkit audit``,
reads one function of the kernel, gamma -> (eta_gamma, witness pair),
through one helper, ``_scan``. It keeps each gamma's (value, pair) on
the Kernel instance and runs :func:`~ldpkit.contraction.two_point_scan`
only on the gammas it does not hold yet. A Kernel is frozen, compared by
identity, and its rows are read-only, and each gamma's result does not
depend on the other gammas of its scan, so a kept value is the one a
fresh scan gives, bit for bit. A kernel keeps at most SCAN_BYTES / 256
gammas (4096), about SCAN_BYTES of entries; past that, results are
returned but not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_SEED
from .contraction import SCAN_BYTES, PrivacyParams, gamma_from_epsilon, two_point_scan
from .dist import excess, normalize_rows
from .errors import DomainError, in_unit_interval
from .kernel import Kernel
from .oracle import SearchConfig

IS_LDP_TOL = 1e-12
VERIFY_TOL = 1e-10


def _scan(k: Kernel, gammas: list) -> list[tuple[float, tuple[int, int]]]:
    """``two_point_scan(k, gammas)`` as one (value, pair) per gamma, scanning
    only the gammas that k does not keep yet, and keeping them while there is room."""
    kept = k._scans
    if kept is None:
        kept = {}
        object.__setattr__(k, "_scans", kept)
    missed = [g for g in gammas if g not in kept]
    if not missed:
        return [kept[g] for g in gammas]
    scanned = list(zip(*two_point_scan(k, missed)))
    # Keep what fits; the rest is returned, not kept.
    kept.update(zip(missed[: max(0, (SCAN_BYTES >> 8) - len(kept))], scanned))
    if len(missed) == len(gammas):
        return scanned
    fresh = dict(zip(missed, scanned))
    return [fresh.get(g) or kept[g] for g in gammas]  # a (value, pair) is never falsy


def delta_at(k: Kernel, epsilon: float) -> float:
    """Smallest delta for which k is (epsilon, delta)-LDP; epsilon may be +inf."""
    return _scan(k, [gamma_from_epsilon(epsilon)])[0][0]


def is_ldp(k: Kernel, params: PrivacyParams) -> bool:
    """Whether k satisfies (epsilon, delta)-LDP, up to additive 1e-12."""
    return delta_at(k, params.epsilon) <= params.delta + IS_LDP_TOL


@dataclass(frozen=True)
class PrivacyProfile:
    """Sampled privacy profile: (epsilon, tightest delta) pairs on a grid."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # one pass; of the rules broken, the first in this order is named
        out_of_range = rising = False
        e1, d1 = -math.inf, math.nan  # no point before the first
        for e2, d2 in self.points:
            if not e2 > e1:  # NaN fails every check
                raise DomainError("epsilon grid must be strictly increasing")
            if not 0.0 <= d2 <= 1.0:
                out_of_range = True
            elif d2 > d1 + 1e-12:
                rising = True
            e1, d1 = e2, d2
        if out_of_range:
            raise DomainError("profile deltas must lie in [0, 1]")
        if rising:
            raise DomainError("profile deltas must be nonincreasing in epsilon")


def privacy_profile(k: Kernel, epsilons) -> PrivacyProfile:
    """Evaluate the exact profile on a strictly increasing epsilon grid, in one
    scan of the gammas that k does not keep yet."""
    eps = [float(e) for e in epsilons]
    deltas = [v for v, _ in _scan(k, [gamma_from_epsilon(e) for e in eps])]
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
    in_unit_interval("delta", delta)
    (residual, _), (best, pair) = _scan(k, [math.inf, 1.0])
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
        ((best, pair),) = _scan(k, [gamma])
    return EpsilonSearchResult(epsilon=epsilon, delta_achieved=best)


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


def _pushforward(ps: np.ndarray, k: Kernel) -> np.ndarray:
    # A stack of vector-matrix products rounds like the reference
    # tests/support.pushforward, row by row; one matmul would not.
    return normalize_rows((ps[:, None, :] @ k.rows)[:, 0, :])


def verify_equivalence(
    k: Kernel, params: PrivacyParams, trials: int, seed: int = DEFAULT_SEED
) -> EquivalenceReport:
    """Probe the contraction inequality on sampled plus point-mass pairs.

    When the kernel is certified at (epsilon, delta), no probed pair may
    violate the inequality beyond an additive 1e-10. When it is not, the
    point-mass sweep is guaranteed to exhibit a violating pair, because
    the two-point supremum is attained there: the worst point-mass pair
    is judged by the certification test itself (additive 1e-12), so it
    violates exactly when the kernel is uncertified.

    Pairs are probed in a fixed order: the worst point-mass pair (x, x'),
    then the Dirichlet pairs in draw order. The first violating pair and
    the first pair of largest ratio are reported. E_gamma between two
    distinct point masses is 1 and their pushforwards are rows of k, so
    the point-mass sweep is the two-point scan: its top pair has the
    largest ratio of them all, and violates whenever any of them does.
    ``seed`` and ``trials`` make a :class:`~ldpkit.oracle.SearchConfig`,
    which checks them and draws the Dirichlet(1) pairs, used as drawn: their
    rows are already fixed points of :func:`normalize_rows`. ``certified`` is
    :func:`is_ldp`, which reads the kept scan at e^epsilon as the sweep does.
    """
    cfg = SearchConfig(seed=seed, trials=trials)
    gamma = gamma_from_epsilon(params.epsilon)
    ((top, worst),) = _scan(k, [gamma])
    certified = is_ldp(k, params)
    d = k.input_size

    ps, qs = cfg.dirichlet_pairs(d)
    num = np.concatenate([[top], excess(_pushforward(ps, k), _pushforward(qs, k), gamma)])
    den = np.concatenate([[1.0], excess(ps, qs, gamma)])

    def pair(i: int) -> tuple:
        if i == 0:
            p, q = np.zeros((2, d))
            p[worst[0]] = q[worst[1]] = 1.0
            return p, q
        return ps[i - 1], qs[i - 1]

    violating = num > params.delta * den + VERIFY_TOL
    violating[0] = not certified
    violations = np.flatnonzero(violating)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den > 1e-12, num / den, 0.0)
    best = int(np.argmax(ratios))
    max_ratio = float(ratios[best])
    return EquivalenceReport(
        epsilon=params.epsilon,
        delta=params.delta,
        certified=certified,
        trials=cfg.trials,
        max_ratio=max_ratio,
        max_ratio_pair=pair(best) if max_ratio > 0.0 else None,
        violation_found=violations.size > 0,
        violation_pair=pair(int(violations[0])) if violations.size else None,
    )
