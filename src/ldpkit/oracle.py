"""Independent brute-force reference calculations.

These routines validate closed forms and two-point characterizations on
tiny instances: a sampled contraction-ratio search, an exhaustive
subset-sup evaluation of the raw privacy constraint, the sorted-prefix
inversion of the privacy profile, composite Simpson quadrature of the
Bernoulli-uniform informations, and a shared dense grid maximizer.
Identical configs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contraction import gamma_from_epsilon
from .dist import FGenerator, divergence
from .errors import CapacityError, DomainError
from .kernel import Kernel

# Ratios whose denominator falls below this are not evidence of anything.
DENOM_FLOOR = 1e-12

# Local perturbation sizes for the divergences whose contraction sup is
# approached by near-coincident input pairs. Those pairs use a higher
# denominator floor: their quotients sit close to the supremum, so the
# ~1e-16 absolute noise of any divergence evaluation must stay several
# orders below the denominator.
_NEAR_COINCIDENT_H = (1e-3, 1e-4)
_NEAR_COINCIDENT_FLOOR = 1e-9

# brute_profile_check enumerates 2^|Z| output sets; larger |Z| is refused.
OUTPUT_CAP = 20


@dataclass(frozen=True)
class SearchConfig:
    """Sampling plan for the brute-force contraction search."""

    seed: int
    trials: int
    include_point_masses: bool = True
    dirichlet_alpha: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not 0 < self.dirichlet_alpha < math.inf:
            raise DomainError(
                f"dirichlet_alpha must be finite and positive, got {self.dirichlet_alpha!r}"
            )


def _f1(x: np.ndarray) -> np.ndarray:
    # f1(x) = (1+x) log1p(x) - x >= 0, the per-symbol Bregman excess of
    # KL; a short series replaces the direct form below |x| < 1e-3 where
    # it cancels.
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (1.0 + x) * np.log1p(x) - x
    series = x * x * (
        1.0 / 2 + x * (-1.0 / 6 + x * (1.0 / 12 + x * (-1.0 / 20 + x / 30)))
    )
    out = np.where(np.abs(x) < 1e-3, series, direct)
    return np.where(x == -1.0, 1.0, out)  # p = 0 contributes exactly q


def _shift_kl(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    # KL(p || p + d) with the perturbation kept in factored form: the
    # mass-imbalance term d.sum() then scales with |d| instead of
    # carrying ~1e-16 absolute noise, which matters because these
    # denominators sit near the supremum quotient. A symbol with
    # q = p + d = 0 (an all-zero output column) has x = 0 and adds 0.
    q = p + d
    x = np.divide(-d, q, out=np.zeros_like(q), where=q > 0)
    return (q * _f1(x)).sum(axis=1) - d.sum(axis=1)


def _shift_chi2(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    q = p + d
    return np.divide(d * d, q, out=np.zeros_like(q), where=q > 0).sum(axis=1)


def brute_eta_f(k: Kernel, f: FGenerator, cfg: SearchConfig) -> float:
    """Largest observed D_f(PK||QK) / D_f(P||Q) over the sampled pairs.

    Point-mass pairs (when enabled) push forward to pairs of kernel rows,
    evaluated by the batched formulas of :mod:`ldpkit.dist`, whose
    ``excess`` sums the two-point scan also runs on; so for hockey-stick
    divergences with gamma >= 1 (and total variation, up to rounding) the
    result attains the two-point coefficient. For KL and chi-squared,
    near-coincident pairs are appended because those contraction suprema
    are approached in the local limit; the result is a certified lower
    estimate.
    """
    d = k.input_size
    rng = np.random.default_rng(cfg.seed)
    alpha = np.full(d, cfg.dirichlet_alpha)
    ps = rng.dirichlet(alpha, size=cfg.trials)
    qs = rng.dirichlet(alpha, size=cfg.trials)

    dens = divergence(ps, qs, f)
    nums = divergence(ps @ k.rows, qs @ k.rows, f)
    if cfg.include_point_masses:
        # The pushforward of the point mass at x is row x of the kernel.
        off = ~np.eye(d, dtype=bool)
        points = np.eye(d)
        dens = np.concatenate([divergence(points[:, None], points, f)[off], dens])
        nums = np.concatenate([divergence(k.rows[:, None], k.rows, f)[off], nums])
    ok = np.isfinite(dens) & (dens >= DENOM_FLOOR) & np.isfinite(nums)
    best = float((nums[ok] / dens[ok]).max(initial=0.0))

    if f.kind in ("kl", "chi2"):
        shift = _shift_kl if f.kind == "kl" else _shift_chi2
        pushed = ps @ k.rows
        for h in _NEAR_COINCIDENT_H:
            dvec = h * (qs - ps)
            dens = shift(ps, dvec)
            nums = shift(pushed, dvec @ k.rows)
            ok = dens >= _NEAR_COINCIDENT_FLOOR
            if np.any(ok):
                best = max(best, float((nums[ok] / dens[ok]).max()))
    return best


@dataclass(frozen=True)
class ProfileCheckReport:
    """Exhaustive evaluation of sup over input pairs and output events."""

    epsilon: float
    delta: float
    witness_pair: tuple[int, int] | None
    witness_set: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "witness_pair": None if self.witness_pair is None else list(self.witness_pair),
            "witness_set": None if self.witness_set is None else list(self.witness_set),
        }


def brute_profile_check(k: Kernel, epsilon: float) -> ProfileCheckReport:
    """Raw-definition privacy check: enumerate every output event.

    Maximizes K(A|x) - e^epsilon K(A|x') over all ordered input pairs and
    all 2^|Z| output sets A (the empty set pins the value at >= 0). The
    result must agree with the hockey-stick formula to 1e-12.
    """
    gamma = gamma_from_epsilon(epsilon)
    nz = k.output_size
    if nz > OUTPUT_CAP:
        raise CapacityError(
            f"exhaustive set enumeration needs output size <= {OUTPUT_CAP}, got {nz}"
        )
    best = 0.0
    witness_pair = None
    witness_set = None
    for x in range(k.input_size):
        for xp in range(k.input_size):
            if x == xp:
                continue
            # gamma * 0 counts as 0: at epsilon = inf an output that row x'
            # never emits still adds row x's mass.
            with np.errstate(invalid="ignore"):
                diff = np.where(k.rows[xp] > 0.0, k.rows[x] - gamma * k.rows[xp], k.rows[x])
            sums = np.zeros(1)
            for z in range(nz):
                sums = np.concatenate([sums, sums + diff[z]])
            i = int(np.argmax(sums))
            if sums[i] > best:
                best = float(sums[i])
                witness_pair = (x, xp)
                witness_set = tuple(z for z in range(nz) if (i >> z) & 1)
    return ProfileCheckReport(
        epsilon=epsilon, delta=best, witness_pair=witness_pair, witness_set=witness_set
    )


def tightest_epsilon_sorted_prefix(k: Kernel, delta: float) -> float:
    """Smallest epsilon with delta(epsilon) <= delta, from sorted
    likelihood-ratio prefixes: the reference for ldp.tightest_epsilon.

    For an ordered pair (x, x'), E_gamma(K_x || K_x') is the max over
    output sets A of K_x(A) - gamma K_x'(A), and the maximizing sets are
    the prefixes of the outputs sorted by likelihood ratio
    K_x(z) / K_x'(z). With P_j, Q_j the prefix masses, the pair meets
    delta exactly when gamma >= (P_j - delta) / Q_j for every prefix, and
    never when some prefix has Q_j = 0 < P_j - delta. So
    gamma* = max(1, max over pairs and prefixes) and epsilon* = log gamma*.
    Sorts all |X|^2 |Z| ratios at once.
    """
    rows = k.rows
    p = rows[:, None, :]
    neg_ratio = np.full((rows.shape[0],) + rows.shape, -np.inf)
    np.divide(-p, rows, out=neg_ratio, where=rows > 0.0)
    order = np.argsort(neg_ratio, axis=-1, kind="stable")
    big_p = np.cumsum(np.take_along_axis(p, order, axis=-1), axis=-1)
    big_q = np.cumsum(np.take_along_axis(rows[None], order, axis=-1), axis=-1)
    if np.any((big_q == 0.0) & (big_p > delta)):
        return math.inf
    need = (big_p - delta)[big_q > 0.0] / big_q[big_q > 0.0]
    return math.log(float(need.max(initial=1.0)))


def grid_max(objective, *grids) -> tuple[tuple[float, ...], float]:
    """Deterministic dense-grid maximization over one or two variables.

    The objective must take numpy arrays and broadcast: it is called once,
    on the grid (one variable) or on the column-by-row mesh of the two
    grids, and a constant result is broadcast to the grid. Ties break
    toward the smallest grid index (lexicographic for two grids).
    Returns (witness point, value).
    """
    if not 1 <= len(grids) <= 2:
        raise DomainError("grid_max supports exactly one or two grids")
    arrays = []
    for g in grids:
        a = np.asarray(g, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise DomainError("grids must be non-empty 1-d arrays")
        arrays.append(a)
    args = (arrays[0],) if len(arrays) == 1 else (arrays[0][:, None], arrays[1][None, :])
    shape = tuple(a.size for a in arrays)
    vals = np.broadcast_to(np.asarray(objective(*args), dtype=float), shape)
    index = np.unravel_index(int(np.argmax(vals)), shape)
    return tuple(float(a[i]) for a, i in zip(arrays, index)), float(vals[index])


def simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule over an odd number of samples spaced dx apart.

    Sums in the same order as scipy.integrate.simpson, so the values
    match it bit for bit.
    """
    return float(np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (dx / 3.0))


def _bu_log_densities(n: int, panels: int):
    """The Simpson grid over [0, 1], its spacing, and per count class s the
    log of the Beta(s+1, n-s+1) density on it (lgamma, so no overflow)."""
    if panels < 2 or panels % 2 != 0:
        raise DomainError(f"panels must be even and >= 2, got {panels}")
    theta = np.linspace(0.0, 1.0, panels + 1)
    with np.errstate(divide="ignore"):
        log_t, log_1mt = np.log(theta), np.log1p(-theta)
    logs = (
        math.lgamma(n + 2) - math.lgamma(s + 1) - math.lgamma(n - s + 1)
        + (s * log_t if s else 0.0)
        + ((n - s) * log_1mt if n - s else 0.0)
        for s in range(n + 1)
    )
    return theta, theta[1] - theta[0], logs


def bu_igamma_quadrature(n: int, gamma: float, panels: int = 20000) -> float:
    """I_gamma(Theta; X^n) of the Bernoulli-uniform model by composite
    Simpson: the integral of [f_s - gamma]_+ per count class s, summed in
    s order, divided by n + 1, minus max(1 - gamma, 0).

    The integrands have kinks where f_s = gamma, so the error is
    O(panels^-2) with an irregular constant rather than O(panels^-4).
    """
    _, h, logs = _bu_log_densities(n, panels)
    total = sum(simpson(np.maximum(np.exp(lf) - gamma, 0.0), h) for lf in logs)
    return max(0.0, total / (n + 1) - max(1.0 - gamma, 0.0))


def bu_mutual_information_quadrature(n: int, panels: int = 20000) -> float:
    """I(Theta; X^n) of the Bernoulli-uniform model by composite Simpson
    over the prior: the KL of the conditional from the marginal at theta
    is sum_s m_s log((n+1) m_s), with m_s = f_s / (n+1) the Binomial(n,
    theta) mass (x log x = 0 at x = 0)."""
    theta, h, logs = _bu_log_densities(n, panels)
    acc = np.zeros_like(theta)
    for lf in logs:
        m = np.exp(lf) / (n + 1)
        with np.errstate(invalid="ignore"):  # 0 * -inf where the mass vanishes
            acc += np.where(m > 0, m * lf, 0.0)
    return simpson(acc, h)


def bu_igamma_n1(gamma: float) -> float:
    """I_gamma(Theta; X) at n = 1 in closed form: the piecewise quadratic
    gamma^2/4 on [0, 1], (gamma - 2)^2/4 on [1, 2], and 0 beyond."""
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma!r}")
    if gamma <= 1.0:
        return 0.25 * gamma**2
    if gamma <= 2.0:
        return 0.25 * (gamma - 2.0) ** 2
    return 0.0
