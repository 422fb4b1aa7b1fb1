"""Finite probability distributions and f-divergences between them.

Everything operates on plain double-precision probability vectors, made
by the one rule in :func:`probability_array` that Distribution, Kernel and
JointDistribution share. An :class:`FGenerator` names the divergence:
total variation, KL (nats), chi-squared, squared Hellinger, or the
hockey-stick family

    E_gamma(P||Q) = sum_i max(p_i - gamma * q_i, 0) - max(1 - gamma, 0),

which equals total variation at gamma = 1. Each divergence is implemented
once, batched along the last axis (:func:`divergence`, :func:`excess`);
:func:`f_divergence` is its one scalar entry point, on two Distributions.
``excess`` and total variation are at most 1 and squared Hellinger at most
2: a sum that rounds past its bound (disjoint supports) is cut to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import F_KIND_NAMES
from .errors import DimensionError, DomainError, count, in_alphabet

# A probability vector whose sum misses 1 by less than RENORM_TOL is
# accepted and rescaled by normalize_rows; one further off is rejected.
RENORM_TOL = 1e-9


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """The probability-vector rule along the last axis, applied to a copy.

    A vector whose sum is within len * 2**-51 of 1 (a few ulps per entry)
    is kept as given; any other is divided by its sum once. A vector
    divided once sums to within that band, so the rule is idempotent:
    vectors it returned come back bit for bit. Sums are taken in C order,
    so they do not depend on the memory layout of the input.
    """
    v = np.ascontiguousarray(v, dtype=float)
    totals = v.sum(axis=-1, keepdims=True)
    # Division by exactly 1.0 returns every entry unchanged.
    return v / np.where(np.abs(totals - 1.0) <= v.shape[-1] * 2.0**-51, 1.0, totals)


def probability_array(values, ndim: int, name: str, per_row: bool = False) -> np.ndarray:
    """values as a new read-only float array that obeys the probability-vector rule.

    The array must be non-empty with ``ndim`` axes, finite and
    nonnegative. Its vectors (the rows when ``per_row``, else the whole
    array) must each sum to 1 within ``RENORM_TOL``; :func:`normalize_rows`
    then rescales them. Errors name the first bad row when ``per_row``,
    a sign error winning over a sum error.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        shape = "matrix" if ndim == 2 else "vector"
        raise DimensionError(f"{name} must be a non-empty {ndim}-d {shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} entries must be finite")
    vectors = np.ascontiguousarray(arr if per_row else arr.reshape(1, -1))
    totals = vectors.sum(axis=1)
    negative = (vectors < 0).any(axis=1)
    bad = negative | ~(np.abs(totals - 1.0) < RENORM_TOL)
    if bad.any():
        i = int(bad.argmax())
        where = f"row {i}:" if per_row else name
        if negative[i]:
            raise DomainError(f"{where} entries must be nonnegative")
        raise DomainError(f"{where} sums to {float(totals[i])!r}, not 1")
    out = normalize_rows(vectors).reshape(arr.shape)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite alphabet, stored read-only as
    :func:`probability_array` returns it."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", probability_array(self.probs, 1, "distribution"))

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def point_mass(cls, index: int, size: int) -> "Distribution":
        v = np.zeros(count("alphabet size", size, 1))
        v[in_alphabet("point mass index", index, v.size)] = 1.0
        return cls(v)


@dataclass(frozen=True)
class FGenerator:
    """Generator of an f-divergence; each kind is convex with f(1) = 0.

    ``egamma`` takes the extra parameter gamma >= 0 and uses
    f(t) = max(t - gamma, 0) - max(1 - gamma, 0), which keeps f(1) = 0
    for gamma below 1 as well.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in F_KINDS:
            raise DomainError(f"unknown f-divergence kind {self.kind!r}")
        if self.kind == "egamma":
            if self.gamma is None or not self.gamma >= 0:
                raise DomainError(f"egamma requires gamma >= 0, got {self.gamma!r}")
        elif self.gamma is not None:
            raise DomainError(f"kind {self.kind!r} takes no gamma parameter")


def _check_alphabets(p: Distribution, q: Distribution):
    if p.alphabet_size != q.alphabet_size:
        raise DimensionError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )


def excess(p: np.ndarray, q: np.ndarray, gamma, out: np.ndarray | None = None) -> np.ndarray:
    """sum_i max(p_i - gamma q_i, 0) along the last axis, broadcasting, at most 1.

    This is E_gamma(P||Q) for gamma >= 1. gamma * 0 counts as 0, so
    gamma = +inf gives the mass p puts where q is zero. ``out``, a float
    array of the broadcast shape, takes the terms in place of a new
    temporary; the sums are the same bit for bit.
    """
    if np.isinf(gamma).any():
        with np.errstate(invalid="ignore"):  # inf * 0, overwritten next
            t = np.subtract(p, np.multiply(gamma, q, out=out), out=out)
        np.copyto(t, p, where=(q == 0.0))
    else:
        t = np.subtract(p, np.multiply(gamma, q, out=out), out=out)
    return np.minimum(np.maximum(t, 0.0, out=t).sum(axis=-1), 1.0)


def _egamma(p: np.ndarray, q: np.ndarray, gamma) -> np.ndarray:
    return np.maximum(excess(p, q, gamma) - np.maximum(1.0 - gamma, 0.0), 0.0)


def _tv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.minimum(0.5 * np.abs(p - q).sum(axis=-1), 1.0)


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0; p_i > 0 with q_i = 0 gives +inf. Where p_i / q_i
    # overflows (a subnormal q_i > 0), its log is log p_i - log q_i.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = p / q
        log_ratio = np.log(ratio)
        over = np.isinf(ratio) & (q > 0)
        if over.any():
            log_ratio = np.where(over, np.log(p) - np.log(q), log_ratio)
        return np.where(p > 0, p * log_ratio, 0.0).sum(axis=-1)


def _chi2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Pearson form sum (p - q)^2 / q; identical to sum p^2/q - 1 on
    # probability vectors but free of cancellation. A subnormal q_i > 0 may
    # overflow its term to +inf, the right value.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(q > 0, (p - q) ** 2 / q, np.where(p > 0, np.inf, 0.0))
    return terms.sum(axis=-1)


def _hellinger_sq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.minimum(((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=-1), 2.0)


# The f-divergence kinds, each with its batched formula; egamma's takes gamma as well.
F_KINDS = dict(zip(F_KIND_NAMES, (_tv, _kl, _chi2, _hellinger_sq, _egamma), strict=True))


def divergence(p: np.ndarray, q: np.ndarray, f: FGenerator) -> np.ndarray:
    """D_f(p||q) along the last axis of two broadcasting probability arrays.

    The one implementation of each divergence; :func:`f_divergence` wraps
    it. Symbols with q_i = 0 = p_i contribute nothing; q_i = 0 < p_i
    yields +inf for KL and chi-squared and the finite limit for the others.
    """
    if f.kind == "egamma":
        return _egamma(p, q, f.gamma)
    return F_KINDS[f.kind](p, q)


def f_divergence(p: Distribution, q: Distribution, f: FGenerator) -> float:
    """D_f(P||Q) = sum_i q_i f(p_i / q_i), with :func:`divergence`'s edge conventions."""
    _check_alphabets(p, q)
    return float(divergence(p.probs, q.probs, f))
