"""Brute-force searches behind the ``oracle`` subcommand.

A sampled contraction-ratio search, which takes the KL and chi-squared
local limit in closed form, and an exhaustive subset-sup evaluation of
the raw privacy constraint validate the two-point characterizations on
tiny instances. The test-only references (the sorted-prefix profile
inversion, the integral and threshold forms of E_gamma, and Simpson
quadrature of the Bernoulli-uniform informations) live in
tests/support.py. Identical configs give bit-identical results.
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


def _local_quotients(p: np.ndarray, d: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # R(P, d) of brute_eta_f for each row; 0 where its denominator is 0 or
    # infinite (P_x = 0 < |d_x|). An output with (PK)_z = 0 adds 0.
    pk, dk = p @ rows, d @ rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = np.where(d != 0.0, d * d / p, 0.0).sum(axis=1)
        num = np.where(pk > 0.0, dk * dk / pk, 0.0).sum(axis=1)
    return np.divide(num, den, out=np.zeros_like(num), where=np.isfinite(den) & (den > 0.0))


def brute_eta_f(k: Kernel, f: FGenerator, cfg: SearchConfig) -> float:
    """Largest observed D_f(PK||QK) / D_f(P||Q) over the sampled pairs, at most 1.

    Point-mass pairs (when enabled) push forward to pairs of kernel rows,
    evaluated by the batched formulas of :mod:`ldpkit.dist`, whose
    ``excess`` sums the two-point scan also runs on; so for hockey-stick
    divergences with gamma >= 1 (and total variation, up to rounding) the
    result attains the two-point coefficient. KL and chi-squared suprema
    are approached in the local limit, so each sampled pair also adds the
    quotient R(P, d) = sum_z (dK)_z^2 / (PK)_z / sum_x d_x^2 / P_x at P
    along d = Q - P and at Q along -d: for chi-squared the pair's attained
    ratios chi2(QK||PK) / chi2(Q||P) and its reverse, for KL the h -> 0
    limits of the ratios at P and P + h d, so still lower bounds on
    eta_KL. No f-divergence grows through a kernel: rounding above 1 is cut.
    """
    d = k.input_size
    ps, qs = cfg.dirichlet_pairs(d)
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
        for base in (ps, qs):
            best = max(best, float(_local_quotients(base, qs - ps, k.rows).max()))
    return min(best, 1.0)


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
