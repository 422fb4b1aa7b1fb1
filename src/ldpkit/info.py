"""f-informations of finite joints, and the Bernoulli-uniform conjugate model.

The f-information of a joint P_AB is I_f(A; B) = D_f(P_AB || P_A x P_B):
mutual information for KL and I_gamma for the hockey-stick divergence.

The Bernoulli-uniform model has a uniform parameter Theta on [0, 1] and
n conditionally i.i.d. Bernoulli(theta) observations. Its marginal over
length-n binary strings depends only on the number of ones s,

    P(x^n) = s! (n - s)! / (n + 1)!,

so each count class carries mass 1/(n + 1) and has the Beta(s + 1,
n - s + 1) posterior density f_s. Both informations are closed forms in
those n + 1 classes (cost O(n) per gamma, never 2^n, no quadrature):
I_gamma from binomial tails at the ends of each class's superlevel set
{f_s > gamma}, and I(Theta; X^n) from a harmonic-number identity, so
the model is its sample size n alone. Composite Simpson quadrature of
the same integrals lives in the test suite (tests/support.py) as the
cross-check. All informations are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import Distribution, FGenerator, f_divergence, probability_array
from .errors import DomainError, count, within_cap

# Largest n of the Bernoulli-uniform model (I_gamma: ~180 B a class, ~40 s a gamma at it).
MAX_BU_N = 10**6
# bu_igamma's gammas x n x ceil(sqrt(n)), ~30 ns a unit: 1 gamma at MAX_BU_N, 31 at n = 10^5.
MAX_BU_WORK = 10**9


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability matrix over a product alphabet A x B, total mass 1."""

    probs: np.ndarray

    def __post_init__(self):
        probs = probability_array(self.probs, 2, "joint distribution")
        object.__setattr__(self, "probs", probs)


def f_information(j: JointDistribution, f: FGenerator) -> float:
    """I_f(A; B): the f-divergence of the joint from the product of its marginals."""
    product = np.outer(j.probs.sum(axis=1), j.probs.sum(axis=0))
    return f_divergence(Distribution(j.probs.reshape(-1)), Distribution(product.reshape(-1)), f)


@dataclass(frozen=True)
class BernoulliUniformModel:
    """Uniform prior on [0, 1] with n conditionally i.i.d. Bernoulli draws."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", count("sample size n", self.n, 1))
        within_cap("sample size n", self.n, MAX_BU_N)

    @cached_property
    def _classes(self) -> tuple:
        """The gamma-free constants of bu_igamma, built on first use and kept
        with the model. For classes 0..n: the log Beta normalizers and log
        mode heights. For classes 1..n: s and n - s as floats, the
        gamma-free part of the log of the first tail term, the log mode
        log(s/n), and s n."""
        n = self.n
        k = np.arange(n + 1)
        logfact = np.array([math.lgamma(j + 1.0) for j in range(n + 2)])
        # log of the Beta normalizer (n+1) C(n,s) and of the mode height
        # f_s(s/n), each summed so that classes s and n - s agree bit for bit
        logc = math.log(n + 1) + (logfact[n] - (logfact[k] + logfact[n - k]))
        xlogx = np.zeros(n + 1)
        xlogx[1:] = k[1:] * np.log(k[1:] / n)
        logh = logc + (xlogx + xlogx[::-1])
        s, rest = k[1:].astype(float), (n - k[1:]).astype(float)
        log_choose = logfact[n + 1] - (logfact[2:] + logfact[n - k[1:]])
        return logc, logh, s, rest, log_choose, np.log(s / s[-1]), s * s[-1]


# Gamma values times count classes handled together, so a long gamma grid
# at large n never builds a (grid, n) temporary.
_BLOCK = 1 << 16
# Newton converges in a handful of steps; the cap is only approached when
# gamma is within rounding of a class's mode height (a near-double root,
# where convergence is linear).
_NEWTON_CAP = 100
# Binomial-tail terms are summed until one falls below this fraction of the
# running sum. Past the pmf's mode they fall off faster than geometrically,
# so the dropped remainder is below the sum's last bit.
_TAIL_EPS = 2.0**-60


def check_bu_igamma_work(model: BernoulliUniformModel, gammas: int) -> None:
    """Refuse :func:`bu_igamma` work over MAX_BU_WORK at ``gammas`` gammas, before
    any grid of them is built."""
    n = model.n
    root = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    within_cap(f"{gammas} gammas x {n} x {root} (n x ceil(sqrt n))", gammas * n * root, MAX_BU_WORK)


def bu_igamma(model: BernoulliUniformModel, gamma):
    """Hockey-stick information I_gamma(Theta; X^n) of the model.

    I_gamma = (1/(n+1)) sum_s integral of [f_s - gamma]_+ - max(1 - gamma, 0),
    with f_s the Beta(s+1, n-s+1) density of count class s. f_s is
    log-concave, so {f_s > gamma} is an interval [a_s, b_s] and the class
    integral is F_s(b_s) - F_s(a_s) - gamma (b_s - a_s), where
    F_s(x) = P(Bin(n+1, x) >= s+1) is the Beta CDF. The result is exact up
    to rounding: I_0 = 0, and I_gamma = 0 from gamma = n + 1 = max f_s on.

    ``gamma`` is a number (the result is a float) or an array (the result
    has its shape, and each element equals the scalar call bit for bit).
    NaN and negative gamma are rejected, and so is work over MAX_BU_WORK.
    """
    g = np.asarray(gamma, dtype=float)
    n = model.n
    check_bu_igamma_work(model, g.size)
    if np.isnan(g).any():
        raise DomainError("gamma must not be NaN")
    if (g < 0).any():
        raise DomainError(f"gamma must be >= 0, got {float(g.min())!r}")
    flat = g.reshape(-1)
    out = np.zeros(flat.shape)
    inside = np.flatnonzero((flat > 0) & (flat < n + 1))
    step = max(1, _BLOCK // n)
    for i in range(0, inside.size, step):
        idx = inside[i : i + step]
        out[idx] = _igamma_block(model._classes, flat[idx])
    return float(out[0]) if g.ndim == 0 else out.reshape(g.shape)


def _igamma_block(classes: tuple, gamma: np.ndarray) -> np.ndarray:
    """bu_igamma for a 1-d block of gamma values, all in (0, n + 1).

    Only left ends are solved for: reflecting theta -> 1 - theta maps
    class s onto class n - s, so b_s = 1 - a_{n-s} and
    1 - F_s(b_s) = F_{n-s}(a_{n-s}). Each tail is thereby an upper
    binomial tail starting above its mean ((n+1) a_s < s + 1), summed from
    its first term outward, and the complementary tail past the mean is
    never formed by subtraction. Class 0 has a_0 = 0 (f_0 decreases).
    With d_s = gamma a_s - F_s(a_s) = integral over [0, a_s] of (gamma - f_s),
    class s contributes (1 - gamma) + d_s + d_{n-s}. The active classes
    are closed under s -> n - s, so over m of them the sum is
    m (1 - gamma) + 2 sum_s d_s; below gamma = 1 all n + 1 are active and
    m (1 - gamma) cancels max(1 - gamma, 0) (n + 1) exactly.
    """
    logc, logh, s, rest, log_choose, u_mode, sn = classes
    n = s.size
    logg = np.log(gamma)[:, None]
    active = logg < logh  # {f_s > gamma} is non-empty; symmetric in s <-> n - s

    # Class n has no (1 - theta) factor, and its left end rounds to
    # theta = 1 when gamma is within rounding of n + 1; the 0 * inf
    # products that makes are masked in _rest_terms.
    with np.errstate(divide="ignore", invalid="ignore"):
        u = _log_left_ends(s, rest, logc[1:], logh[1:], u_mode, sn, logg, active[:, 1:])
        # F_s(a_s) = P(Bin(n+1, a_s) >= s+1): the first term in log space,
        # then the term ratios (n+1-j)/(j+1) * a/(1-a) while they matter,
        # at j = s+1+t, where (n+1-j, j+1) = (n-s-t, s+2+t) are exact.
        rest_log1m, odds = _rest_terms(u, rest)
        log_first = log_choose + (s + 1.0) * u + rest_log1m
        term, total = np.ones_like(u), np.ones_like(u)
        live = active[:, 1:].copy()
        for t in range(n):
            term = term * ((rest - t) / (s + (t + 2.0))) * odds
            live &= term > _TAIL_EPS * total
            if not live.any():
                break
            np.add(total, term, out=total, where=live)
        tail = np.exp(log_first) * total

    d = np.where(active[:, 1:], gamma[:, None] * np.exp(u) - tail, 0.0).sum(axis=1)
    m = active.sum(axis=1)
    total = 2.0 * d + (m * (1.0 - gamma) - (n + 1) * np.maximum(1.0 - gamma, 0.0))
    return np.maximum(total / (n + 1), 0.0)


def _rest_terms(u, rest):
    """(n - s) log(1 - theta) and theta / (1 - theta) at theta = e^u; both
    are 0 for class n, whose density has no (1 - theta) factor."""
    log1m = np.log1p(-np.exp(u))
    rest_log1m, odds = rest * log1m, np.exp(u - log1m)
    rest_log1m[:, -1] = odds[:, -1] = 0.0  # the last column is class n
    return rest_log1m, odds


def _log_left_ends(s, rest, logc, logh, u_mode, sn, logg, active):
    """log a_s for classes s = 1..n: the root of r(u) = log f_s(e^u) - log gamma
    below the mode u_m = log(s/n), where it is active.

    In u = log(theta), r is increasing and concave on (-inf, u_m), so Newton
    steps from the left approach the root monotonically, and a step from its
    right lands left of it. Steps are clipped to [u_lo, u_m]: u_lo drops the
    (n - s) log(1 - theta) <= 0 term, so it lies at or left of the root.
    """
    u_lo = (logg - logc) / s
    # the quadratic model of r at the mode starts near-double roots close by
    drop = np.sqrt(2.0 * np.maximum(logh - logg, 0.0) * rest / sn)
    live = active.copy()
    u = np.where(live, np.maximum(u_lo, u_mode - drop), u_mode - 1.0)
    for it in range(_NEWTON_CAP):
        rest_log1m, odds = _rest_terms(u, rest)
        resid = logc + s * u + rest_log1m - logg
        new = np.minimum(np.maximum(u - resid / (s - rest * odds), u_lo), u_mode)
        if it:  # past the first step the iterates stay left of the root,
            live &= resid < 0  # so r >= 0 means it is reached within rounding
        live &= new != u
        if not live.any():
            break
        np.copyto(u, new, where=live)
    return u


def bu_mutual_information(model: BernoulliUniformModel) -> float:
    """I(Theta; X^n) in nats, in closed form.

    I = log(n+1) - E_theta H(Bin(n, theta)). With the Beta moment
    E[log theta | s] = H_s - H_{n+1} (H_m the harmonic numbers),

        E_theta H = (1/(n+1)) sum_s [s (H_{n+1} - H_s) + (n-s)(H_{n+1} - H_{n-s}) - log C(n,s)].

    The harmonic-number sum is n/2, since sum_{k<=m} k H_k =
    m(m+1)/2 H_{m+1} - m(m+1)/4, and sum_s log C(n,s) =
    sum_k (2k - n - 1) log k. Pairing k with n + 1 - k leaves nonnegative
    terms, which are summed exactly together with the -n(n+1)/2:

        I = log(n+1) + (1/(n+1)) [sum_{k > (n+1)/2} (2k-n-1) log(k/(n+1-k)) - n(n+1)/2].
    """
    n = model.n
    k = np.arange(n // 2 + 1, n + 1, dtype=float)
    terms = (2.0 * k - (n + 1)) * np.log(k / (n + 1 - k))
    return math.log(n + 1) + math.fsum([*terms, -0.5 * n * (n + 1)]) / (n + 1)
