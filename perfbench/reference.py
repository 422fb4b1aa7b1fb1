"""Reference values the benchmark checks ldpkit's outputs against.

Everything here is computed with numpy alone, by a different route from
the program where one exists: a single broadcast over all ordered row
pairs instead of the two-point loop, closed forms instead of Simpson
quadrature for the Bernoulli-uniform (BU) informations, and the bound
formulas re-derived from their docstrings.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# The grids ldpkit's Bayes bounds default to.
ZETA_GRID = np.geomspace(1e-4, 0.5, 2000)
GAMMA_GRID = np.linspace(0.0, 4.0, 800)
_BALL = np.minimum(2.0 * ZETA_GRID, 1.0)  # small ball of the uniform [0, 1] prior


# --------------------------------------------------------------------------
# privacy profiles


def infinite_residual(rows: np.ndarray) -> float:
    """Largest mass one row puts where another row is exactly zero."""
    mass = (rows[:, None, :] * (rows == 0.0)[None, :, :]).sum(axis=2)
    np.fill_diagonal(mass, 0.0)
    return float(mass.max())


def delta(rows: np.ndarray, epsilon: float) -> float:
    """Tightest delta at epsilon >= 0: max over ordered row pairs of E_{e^eps}."""
    if math.isinf(epsilon):
        return infinite_residual(rows)
    gamma = math.exp(epsilon)
    excess = np.maximum(rows[:, None, :] - gamma * rows[None, :, :], 0.0).sum(axis=2)
    return float(excess.max())


def krr_delta(eps0: float, k: int, epsilon: float) -> float:
    """Closed-form profile of k-ary randomized response at level eps0."""
    e0 = math.exp(eps0)
    return max(0.0, (e0 - math.exp(epsilon)) / (k - 1 + e0))


# --------------------------------------------------------------------------
# Bernoulli-uniform informations


def _harmonic(m: int) -> float:
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def bu_mutual_information(n: int) -> float:
    """I(Theta; X^n) in nats, from harmonic numbers."""
    h = _harmonic(n + 1)
    total = sum(
        math.log(math.comb(n, s))
        + s * (_harmonic(s) - h)
        + (n - s) * (_harmonic(n - s) - h)
        for s in range(n + 1)
    )
    return math.log(n + 1) + total / (n + 1)


def bu_igamma(n: int, gammas) -> np.ndarray:
    """I_gamma(Theta; X^n) for each gamma, from binomial tails.

    Class s contributes the integral of [f_s - gamma]_+, with f_s the
    Beta(s+1, n-s+1) density. f_s is unimodal, so {f_s > gamma} is an
    interval [a, b] found by bisection on each side of the mode, and the
    integral is F(b) - F(a) - gamma (b - a), where the Beta CDF F(x) is
    the binomial tail P(Bin(n+1, x) >= s+1).
    """
    g = np.asarray(gammas, dtype=float)[:, None]
    s = np.arange(n + 1)[None, :]
    coef = (n + 1) * np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)

    def density(t):
        return coef * t**s * (1.0 - t) ** (n - s)

    mode = np.broadcast_to(s / n, (g.shape[0], n + 1))
    a_lo, a_hi = np.zeros_like(mode), mode.copy()
    b_lo, b_hi = mode.copy(), np.ones_like(mode)
    for _ in range(100):
        mid = 0.5 * (a_lo + a_hi)
        above = density(mid) > g
        a_hi, a_lo = np.where(above, mid, a_hi), np.where(above, a_lo, mid)
        mid = 0.5 * (b_lo + b_hi)
        above = density(mid) > g
        b_lo, b_hi = np.where(above, mid, b_lo), np.where(above, b_hi, mid)
    a, b = a_hi, b_lo

    j = np.arange(n + 2)
    comb = np.array([math.comb(n + 1, k) for k in j], dtype=float)

    def beta_cdf(x):
        pmf = comb * x[..., None] ** j * (1.0 - x[..., None]) ** (n + 1 - j)
        upper = np.cumsum(pmf[..., ::-1], axis=-1)[..., ::-1]  # P(Bin >= j)
        return np.take_along_axis(upper, (s + 1)[..., None], axis=-1)[..., 0]

    active = density(mode) > g
    per_class = np.where(active, beta_cdf(b) - beta_cdf(a) - g * (b - a), 0.0)
    total = per_class.sum(axis=1) / (n + 1) - np.maximum(1.0 - g[:, 0], 0.0)
    return np.maximum(total, 0.0)


# --------------------------------------------------------------------------
# risk bounds


def phi(epsilon: float, delta_: float) -> float:
    return 1.0 - (1.0 - delta_) * math.exp(-epsilon)


def phi_n(epsilon: float, delta_: float, n: int) -> float:
    return 1.0 - (1.0 - phi(epsilon, delta_)) ** n


def lecam(tau, kl, n, epsilon, delta_) -> float:
    return max(0.0, 0.5 * tau * (1.0 - math.sqrt(0.5 * n * phi(epsilon, delta_) * kl)))


def moment(k_moment, n, epsilon, delta_) -> tuple[float, float]:
    """(value, omega) of the k-th moment mean-estimation bound."""
    p = phi(epsilon, delta_)
    if p == 0.0:
        return 1.0, 1.0
    omega = min(1.0, (1.0 - (7.0 / 8.0) ** (1.0 / math.sqrt(n))) / p)
    bracket = 1.0 - math.sqrt(2.0) * math.sqrt(1.0 - (1.0 - omega * p) ** n)
    return omega ** (2.0 * (k_moment - 1.0) / k_moment) * max(0.0, bracket), omega


def fano(v_count, avg_kl, tau, n, epsilon, delta_) -> float:
    mi_up = n * phi_n(epsilon, delta_, n) * avg_kl
    return max(0.0, tau * (1.0 - (mi_up + LN2) / math.log(v_count)))


def highdim(d, r, n, epsilon, delta_) -> float:
    pn = phi_n(epsilon, delta_, n)
    k = max(16, min(math.floor(n * pn), d))
    omega = min(1.0, k / (50.0 * n * pn))
    bracket = 1.0 - 16.0 * (1.0 + n * omega * pn) * LN2 / k
    return (r**2 * omega**2 / k) * max(0.0, bracket)


def ht(kl, epsilon, delta_) -> float:
    return -phi(epsilon, delta_) * kl


def micap(entropy, epsilon, delta_) -> float:
    return phi(epsilon, delta_) * entropy


def bayes_mi(info: float, n: int, epsilon: float, delta_: float) -> float:
    """Mutual-information Bayes bound, maximized over the default zeta grid."""
    numerator = phi_n(epsilon, delta_, n) * info + LN2
    ok = _BALL < 1.0
    vals = ZETA_GRID[ok] * np.maximum(0.0, 1.0 - numerator / np.log(1.0 / _BALL[ok]))
    return float(vals.max())


def bayes_egamma(info: float, n: int, epsilon: float, delta_: float) -> float:
    """Hockey-stick Bayes bound at gamma = e^eps over the default zeta grid."""
    c = delta_ if n == 1 else phi_n(epsilon, delta_, n)
    vals = ZETA_GRID * np.maximum(0.0, 1.0 - c * info - math.exp(epsilon) * _BALL)
    return float(vals.max())


def bayes_gamma_opt(n: int) -> float:
    """Gamma-optimized non-private Bayes bound on the default grids."""
    info = bu_igamma(n, GAMMA_GRID)
    g = GAMMA_GRID[None, :]
    bracket = 1.0 - info[None, :] - g * _BALL[:, None] - np.maximum(1.0 - g, 0.0)
    return float((ZETA_GRID[:, None] * np.maximum(0.0, bracket)).max())
