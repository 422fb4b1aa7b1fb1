"""Brute-force searches behind the ``oracle`` subcommand.

A sampled contraction-ratio search and an exhaustive subset-sup
evaluation of the raw privacy constraint validate the two-point
characterizations on tiny instances. The test-only references (the
sorted-prefix profile inversion, the integral and threshold forms of
E_gamma, and Simpson quadrature of the Bernoulli-uniform informations)
live in tests/support.py. Identical configs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import gamma_from_epsilon
from .dist import FGenerator, divergence
from .errors import count, finite_above, within_cap
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
# ... for each ordered input pair: pairs x 2^max(|Z|, 13) is capped, the
# 2^13 pricing a pair's fixed overhead (20-60 us). At most ~2 s at the cap.
MAX_PROFILE_WORK = 2**28
# Entries of each (trials, d) sample array (peak ~100 B an entry, ~1 GB at the cap).
MAX_SAMPLES = 10**7


@dataclass(frozen=True)
class SearchConfig:
    """Sampling plan for the brute-force contraction search and the
    sampled verifier of :func:`ldpkit.ldp.verify_equivalence`."""

    seed: int
    trials: int
    include_point_masses: bool = True
    dirichlet_alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "seed", count("seed", self.seed, 0))
        object.__setattr__(self, "trials", count("trials", self.trials, 1))
        finite_above("dirichlet_alpha", self.dirichlet_alpha, 0)

    def dirichlet_pairs(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """``trials`` sampled input pairs on d symbols, as two (trials, d) arrays."""
        within_cap(f"{self.trials} trials x {d} inputs", self.trials * d, MAX_SAMPLES)
        rng = np.random.default_rng(self.seed)
        alpha = np.full(d, self.dirichlet_alpha)
        return rng.dirichlet(alpha, size=self.trials), rng.dirichlet(alpha, size=self.trials)


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
    ps, qs = cfg.dirichlet_pairs(d)

    pushed = ps @ k.rows
    dens = divergence(ps, qs, f)
    nums = divergence(pushed, qs @ k.rows, f)
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


def brute_profile_check(k: Kernel, epsilon: float) -> ProfileCheckReport:
    """Raw-definition privacy check: enumerate every output event.

    Maximizes K(A|x) - e^epsilon K(A|x') over all ordered input pairs and
    all 2^|Z| output sets A (the empty set pins the value at >= 0). The
    result must agree with the hockey-stick formula to 1e-12.
    """
    gamma = gamma_from_epsilon(epsilon)
    nz = k.output_size
    within_cap("output size", nz, OUTPUT_CAP)
    pairs, sets = k.input_size * (k.input_size - 1), max(nz, 13)
    within_cap(f"{pairs} input pairs x 2^{sets} output sets", pairs << sets, MAX_PROFILE_WORK)
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
