"""Independent brute-force reference calculations.

These routines validate closed forms and two-point characterizations on
tiny instances: a sampled contraction-ratio search, an exhaustive
subset-sup evaluation of the raw privacy constraint, and a shared dense
grid maximizer. Identical configs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contraction import gamma_from_epsilon
from .dist import Distribution, FGenerator, f_divergence
from .errors import CapacityError, DomainError
from .kernel import Kernel, pushforward

# Ratios whose denominator falls below this are not evidence of anything.
DENOM_FLOOR = 1e-12

# Local perturbation sizes for the divergences whose contraction sup is
# approached by near-coincident input pairs. Those pairs use a higher
# denominator floor: their quotients sit close to the supremum, so the
# ~1e-16 absolute noise of any divergence evaluation must stay several
# orders below the denominator.
_NEAR_COINCIDENT_H = (1e-3, 1e-4)
_NEAR_COINCIDENT_FLOOR = 1e-9


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
        if not self.dirichlet_alpha > 0:
            raise DomainError("dirichlet_alpha must be positive")


def _batch_tv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(p - q).sum(axis=1)


def _batch_egamma(p: np.ndarray, q: np.ndarray, gamma: float) -> np.ndarray:
    pos = np.maximum(p - gamma * q, 0.0).sum(axis=1)
    return np.maximum(pos - max(1.0 - gamma, 0.0), 0.0)


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


def _batch_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # sum_i q_i f1((p_i - q_i)/q_i) + sum_i (p_i - q_i); every f1 summand
    # is nonnegative, so the sum does not cancel.
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(q > 0, (p - q) / q, 0.0)
        terms = np.where(q > 0, q * _f1(x), np.where(p > 0, np.inf, 0.0))
    return terms.sum(axis=1) + (p.sum(axis=1) - q.sum(axis=1))


def _shift_kl(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    # KL(p || p + d) with the perturbation kept in factored form: the
    # mass-imbalance term d.sum() then scales with |d| instead of
    # carrying ~1e-16 absolute noise, which matters because these
    # denominators sit near the supremum quotient.
    q = p + d
    x = -d / q
    return (q * _f1(x)).sum(axis=1) - d.sum(axis=1)


def _batch_chi2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Pearson form: sum (p - q)^2 / q, cancellation-free.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, (p - q) ** 2 / q, np.where(p > 0, np.inf, 0.0))
    return terms.sum(axis=1)


def _shift_chi2(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    return (d * d / (p + d)).sum(axis=1)


def _batch_hellinger_sq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=1)


def _batch_div(f: FGenerator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if f.kind == "tv":
        return _batch_tv(p, q)
    if f.kind == "kl":
        return _batch_kl(p, q)
    if f.kind == "chi2":
        return _batch_chi2(p, q)
    if f.kind == "hellinger_sq":
        return _batch_hellinger_sq(p, q)
    return _batch_egamma(p, q, f.gamma)


def brute_eta_f(k: Kernel, f: FGenerator, cfg: SearchConfig) -> float:
    """Largest observed D_f(PK||QK) / D_f(P||Q) over the sampled pairs.

    Point-mass pairs (when enabled) are evaluated through the same scalar
    divergence code used by the two-point formulas, so for total
    variation and hockey-stick divergences with gamma >= 1 the result
    matches the two-point coefficient exactly. For KL and chi-squared,
    near-coincident pairs are appended because those contraction suprema
    are approached in the local limit; the result is a certified lower
    estimate.
    """
    d = k.input_size
    best = 0.0

    if cfg.include_point_masses:
        for x in range(d):
            px = Distribution.point_mass(x, d)
            outx = pushforward(px, k)
            for xp in range(d):
                if x == xp:
                    continue
                qx = Distribution.point_mass(xp, d)
                den = f_divergence(px, qx, f)
                if not math.isfinite(den) or den < DENOM_FLOOR:
                    continue
                num = f_divergence(outx, pushforward(qx, k), f)
                best = max(best, num / den)

    rng = np.random.default_rng(cfg.seed)
    alpha = np.full(d, cfg.dirichlet_alpha)
    ps = rng.dirichlet(alpha, size=cfg.trials)
    qs = rng.dirichlet(alpha, size=cfg.trials)

    dens = _batch_div(f, ps, qs)
    nums = _batch_div(f, ps @ k.rows, qs @ k.rows)
    ok = np.isfinite(dens) & (dens >= DENOM_FLOOR) & np.isfinite(nums)
    if np.any(ok):
        best = max(best, float((nums[ok] / dens[ok]).max()))

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


def brute_profile_check(
    k: Kernel, epsilon: float, output_cap: int = 20
) -> ProfileCheckReport:
    """Raw-definition privacy check: enumerate every output event.

    Maximizes K(A|x) - e^epsilon K(A|x') over all ordered input pairs and
    all 2^|Z| output sets A (the empty set pins the value at >= 0). The
    result must agree with the hockey-stick formula to 1e-12.
    """
    gamma = gamma_from_epsilon(epsilon)
    nz = k.output_size
    if nz > output_cap:
        raise CapacityError(
            f"exhaustive set enumeration needs output size <= {output_cap}, got {nz}"
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


def _evaluate_on_mesh(objective, args: tuple, shape: tuple) -> np.ndarray:
    try:
        out = np.asarray(objective(*args), dtype=float)
        if out.shape == shape:
            return out
        return np.broadcast_to(out, shape).astype(float)
    except (TypeError, ValueError):
        pass
    # objective is not vectorized; evaluate point by point
    out = np.empty(shape)
    if len(shape) == 1:
        for i, x in enumerate(args[0]):
            out[i] = objective(float(x))
    else:
        xs = args[0].reshape(-1)
        ys = args[1].reshape(-1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = objective(float(x), float(y))
    return out


def grid_max(objective, *grids) -> tuple[tuple[float, ...], float]:
    """Deterministic dense-grid maximization over one or two variables.

    Accepts vectorized (numpy-broadcasting) or scalar objectives. Ties
    break toward the smallest grid index (lexicographic for two grids).
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
    if len(arrays) == 1:
        vals = _evaluate_on_mesh(objective, (arrays[0],), arrays[0].shape)
        i = int(np.argmax(vals))
        return (float(arrays[0][i]),), float(vals[i])
    shape = (arrays[0].size, arrays[1].size)
    vals = _evaluate_on_mesh(
        objective, (arrays[0][:, None], arrays[1][None, :]), shape
    )
    i, j = np.unravel_index(int(np.argmax(vals)), shape)
    return (float(arrays[0][i]), float(arrays[1][j])), float(vals[i, j])
