"""Mutual information and hockey-stick information on finite joints,
plus the Bernoulli-uniform conjugate model.

The Bernoulli-uniform model has a uniform parameter Theta on [0, 1] and
n conditionally i.i.d. Bernoulli(theta) observations. Its marginal over
length-n binary strings depends only on the number of ones s,

    P(x^n) = s! (n - s)! / (n + 1)!,

so every information integral collapses to n + 1 one-dimensional terms
evaluated by composite Simpson quadrature (cost O(n * panels), never
2^n). All informations are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, egamma
from .errors import DomainError


def simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule over an odd number of samples spaced dx apart.

    Sums in the same order as scipy.integrate.simpson, so the values
    match it bit for bit.
    """
    return float(np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability matrix over a product alphabet A x B, total mass 1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DomainError("joint distribution must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(arr)):
            raise DomainError("joint entries must be finite")
        if np.any(arr < 0):
            raise DomainError("joint entries must be nonnegative")
        total = float(arr.sum())
        if not abs(total - 1.0) < 1e-9:
            raise DomainError(f"joint mass sums to {total!r}, not 1")
        if total != 1.0:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def size_a(self) -> int:
        return int(self.probs.shape[0])

    @property
    def size_b(self) -> int:
        return int(self.probs.shape[1])

    def marginal_a(self) -> Distribution:
        return Distribution(self.probs.sum(axis=1))

    def marginal_b(self) -> Distribution:
        return Distribution(self.probs.sum(axis=0))


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    v = p.probs[p.probs > 0]
    return float(-(v * np.log(v)).sum())


def mutual_information(j: JointDistribution) -> float:
    """I(A; B) = sum p(a,b) log(p(a,b) / (p(a) p(b))) in nats."""
    pa = j.probs.sum(axis=1)
    pb = j.probs.sum(axis=0)
    prod = np.outer(pa, pb)
    mask = j.probs > 0
    return float((j.probs[mask] * np.log(j.probs[mask] / prod[mask])).sum())


def egamma_information(j: JointDistribution, gamma: float) -> float:
    """I_gamma(A; B): hockey-stick divergence of the joint from the product."""
    pa = j.probs.sum(axis=1)
    pb = j.probs.sum(axis=0)
    joint = Distribution(j.probs.reshape(-1))
    product = Distribution(np.outer(pa, pb).reshape(-1))
    return egamma(joint, product, gamma)


@dataclass(frozen=True)
class BernoulliUniformModel:
    """Uniform prior on [0, 1] with n conditionally i.i.d. Bernoulli draws.

    ``panels`` is the composite-Simpson panel count; the hockey-stick
    integrands have kinks, so the panel count is the accuracy knob (the
    default keeps the absolute error well under 1e-7 at desk scale).
    """

    n: int
    panels: int = 20000

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sample size n must be >= 1, got {self.n}")
        if self.panels < 2 or self.panels % 2 != 0:
            raise DomainError(f"panels must be even and >= 2, got {self.panels}")


def bu_class_marginal(n: int) -> np.ndarray:
    """Marginal mass of each count class s: C(n,s) * s!(n-s)!/(n+1)!.

    Computed as an exact integer ratio per class (every class carries
    mass 1/(n+1)), so the classes telescope to total mass one.
    """
    if n < 1:
        raise DomainError(f"sample size n must be >= 1, got {n}")
    den = math.factorial(n + 1)
    return np.array(
        [
            math.comb(n, s) * math.factorial(s) * math.factorial(n - s) / den
            for s in range(n + 1)
        ]
    )


def _theta_grid(panels: int) -> tuple[np.ndarray, float]:
    grid = np.linspace(0.0, 1.0, panels + 1)
    return grid, grid[1] - grid[0]


def bu_igamma(model: BernoulliUniformModel, gamma: float) -> float:
    """Hockey-stick information I_gamma(Theta; X^n) of the model.

    Evaluates, per count class s,

        integral over [0,1] of [theta^s (1-theta)^(n-s) (n+1)!/(s!(n-s)!) - gamma]_+

    by composite Simpson, sums the classes in fixed s order, divides by
    n + 1, and subtracts max(1 - gamma, 0) so the result is the genuine
    divergence for every gamma >= 0 (the subtraction vanishes for
    gamma >= 1).
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma!r}")
    n = model.n
    grid, h = _theta_grid(model.panels)
    total = 0.0
    for s in range(n + 1):
        coef = float((n + 1) * math.comb(n, s))
        integrand = np.maximum(coef * grid**s * (1.0 - grid) ** (n - s) - gamma, 0.0)
        total += float(simpson(integrand, dx=h))
    return max(0.0, total / (n + 1) - max(1.0 - gamma, 0.0))


def bu_igamma_closed_n1(gamma: float) -> float:
    """Closed form of I_gamma(Theta; X) at n = 1: a piecewise quadratic."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma!r}")
    if gamma <= 1.0:
        return 0.25 * gamma**2
    if gamma <= 2.0:
        return 0.25 * (gamma - 2.0) ** 2
    return 0.0


def bu_mutual_information(model: BernoulliUniformModel) -> float:
    """I(Theta; X^n) in nats by composite Simpson over the prior.

    The conditional-vs-marginal KL at a fixed theta collapses to
    sum_s m_s(theta) log((n+1) m_s(theta)) with m_s the Binomial(n, theta)
    mass function; endpoint singularities are removable (x log x -> 0).
    """
    n = model.n
    grid, h = _theta_grid(model.panels)
    acc = np.zeros_like(grid)
    for s in range(n + 1):
        m = math.comb(n, s) * grid**s * (1.0 - grid) ** (n - s)
        nz = m > 0
        acc[nz] += m[nz] * np.log((n + 1) * m[nz])
    return float(simpson(acc, dx=h))
