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

# Largest n of the Bernoulli-uniform model (I_gamma: ~90 B a class, ~10 s a gamma at it).
MAX_BU_N = 10**6
# bu_igamma's gammas x n x ceil(sqrt(n)), ~12-16 ns a unit: 1 gamma at MAX_BU_N, 31 at n = 10^5.
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
        with the model: the log mode heights of classes 0..n, and a table
        with a column per class s = 1..n whose rows are the log Beta
        normalizer, the log mode log(s/n) and the gamma-free part of the log
        of the first tail term; s itself is exact in the column index."""
        n = self.n
        logfact = np.fromiter(map(math.lgamma, range(1, n + 3)), float, n + 2)  # log j!, j = 0..n+1
        # filled row by row from slices of logfact and the rows before: no
        # index arrays, gathered copies or stacked copy at large n
        table = np.empty((3, n))
        logc, u_mode, log_choose = table
        s = np.arange(1.0, n + 1)
        np.log(np.divide(s, n, out=u_mode), out=u_mode)
        # log of the Beta normalizer (n+1) C(n,s) and of the mode height
        # f_s(s/n) of classes 0..n, each summed so that classes s and n - s
        # agree bit for bit
        logh = np.add(logfact[: n + 1], logfact[n::-1])
        np.subtract(logfact[n], logh, out=logh)
        logh += math.log(n + 1)
        logc[:] = logh[1:]
        # x_s + x_{n-s} with x_s = s log(s/n) (x_0 = 0), x in place of s
        x = np.multiply(s, u_mode, out=s)
        np.add(x[:-1], x[-2::-1], out=log_choose[:-1])
        log_choose[-1] = x[-1] + 0.0  # x_n + x_0
        logh[1:] += log_choose
        logh[0] += log_choose[-1]
        np.add(logfact[2:], logfact[n - 1 :: -1], out=log_choose)
        np.subtract(logfact[n + 1], log_choose, out=log_choose)
        return logh, table


# (gamma, class) cells handled together: a block of gamma values spans at
# most this many, and at larger n one gamma's classes are taken this many at
# a time, so a long grid or a large n never builds a (grid, n) temporary.
_BLOCK = 1 << 15
# Newton converges in a handful of steps; the cap is only approached when
# gamma is within rounding of a class's mode height (a near-double root,
# where convergence is linear).
_NEWTON_CAP = 100
# Binomial tails are summed until no cell's term exceeds this fraction of its
# running sum. Past the pmf's mode no term from there on changes a bit of
# the sum (_tail_by_term), so the sum is that of all the tail's terms.
_TAIL_EPS = 2.0**-60
# Blocks of fewer cells than this sum their tails _CHUNK cell-terms at a
# time, as numpy's cost per call would dominate a term-at-a-time loop there;
# larger blocks loop over terms.
_FEW_CELLS = 256
_CHUNK = 1 << 12


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
    n = model.n
    if isinstance(gamma, float) or np.ndim(gamma) == 0:
        x = float(gamma)
        check_bu_igamma_work(model, 1)
        if math.isnan(x):
            raise DomainError("gamma must not be NaN")
        if x < 0:
            raise DomainError(f"gamma must be >= 0, got {x!r}")
        return float(_igamma_block(model._classes, np.array([x]))[0]) if 0 < x < n + 1 else 0.0
    g = np.asarray(gamma, dtype=float)
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
    return out.reshape(g.shape)


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

    Class n, of density (n + 1) theta^n, is solved apart where active, with
    tail a_n^(n+1). The interior classes 1..n-1 run on the flat list of
    their active (gamma, class) cells, class by class and at most _BLOCK at
    a time, each chunk with one gather of the class table; s = column + 1
    and n - s are exact. A gamma above every interior mode height runs no
    Newton step and no tail sum. Each cell is computed alone, whatever else
    its block holds. Only d_s is summed across a row, by numpy's pairwise
    sum over the length-n row (zeros at inactive classes), in an order set
    by n alone.
    """
    logh, table = classes
    n = table.shape[1]
    logg = np.log(gamma)
    active = logg[:, None] < logh  # {f_s > gamma} is non-empty; symmetric in s <-> n - s
    d = np.zeros((gamma.size, n))
    r = np.flatnonzero(active[:, n])
    u = _edge_left_ends(n, table[0, -1], logg[r])
    d[r, -1] = gamma[r] * np.exp(u) - np.exp(table[2, -1] + (n + 1.0) * u)
    # the interior cells class by class, so that the cells of a class are adjacent
    col, row = np.nonzero(active[:, 1:n].T)
    for i in range(0, row.size, _BLOCK):  # one pass unless n > _BLOCK
        r, c = row[i : i + _BLOCK], col[i : i + _BLOCK]
        logc, u_mode, log_choose = table[:, c]
        s = c + 1.0
        rest = n - s
        with np.errstate(divide="ignore", invalid="ignore"):
            u, rest_log1m, odds = _log_left_ends(s, rest, logc, u_mode, logh[1:][c], logg[r])
            # F_s(a_s) = P(Bin(n+1, a_s) >= s+1): the first term in log space,
            # then the term ratios (n+1-j)/(j+1) * a/(1-a) while they matter,
            # at j = s+1+t, where (n+1-j, j+1) = (n-s-t, s+2+t) are exact.
            tail = np.add(log_choose + (s + 1.0) * u, rest_log1m, out=rest_log1m)
            np.exp(tail, out=tail)
            if c.size < _FEW_CELLS:
                tail *= _tail_by_chunk(s, rest, odds, n)
            else:
                tail *= _tail_by_term(c, odds, n)
        d[r, c] = gamma[r] * np.exp(u) - tail
    m = active.sum(axis=1)
    total = 2.0 * d.sum(axis=1) + (m * (1.0 - gamma) - (n + 1) * np.maximum(1.0 - gamma, 0.0))
    return np.maximum(total / (n + 1), 0.0)


def _edge_left_ends(n, logc, logg):
    """log a_n at each log gamma for class n, of log Beta normalizer logc:
    _log_left_ends's steps at s = n, rest = 0 and u_m = 0, where r(u) =
    logc + n u - log gamma is linear and needs no exp or log1p. Its first
    step lands on u_lo bit for bit; rounding can leave r(u_lo) < 0."""
    u = u_lo = (logg - logc) / n
    for _ in range(1, _NEWTON_CAP):
        resid = n * u + logc - logg
        new = np.minimum(np.maximum(u - resid / n, u_lo), 0.0)
        live = (new != u) & (resid < 0)
        if not np.count_nonzero(live):
            break
        u = np.where(live, new, u)
    return u


def _rest_terms(u, rest, rest_log1m, odds):
    """(n - s) log(1 - theta) and theta / (1 - theta) at theta = e^u, into
    ``rest_log1m`` and ``odds``, for cells of interior classes s < n."""
    np.exp(u, out=odds)
    np.negative(odds, out=odds)
    np.log1p(odds, out=odds)
    np.multiply(rest, odds, out=rest_log1m)
    np.exp(np.subtract(u, odds, out=odds), out=odds)


def _log_left_ends(s, rest, logc, u_mode, logh, logg):
    """log a_s for each cell, of class s < n with rest = n - s, log Beta
    normalizer logc, log mode u_m = log(s/n) and log mode height logh, at its
    log gamma: the root of r(u) = log f_s(e^u) - log gamma below u_m; with
    it the _rest_terms at the root.

    In u = log(theta), r is increasing and concave on (-inf, u_m), so Newton
    steps from the left approach the root monotonically, and a step from its
    right lands left of it. Steps are clipped to [u_lo, u_m]: u_lo drops the
    (n - s) log(1 - theta) <= 0 term, so it lies at or left of the root.

    A cell stops once its step would not move it, or past the first step
    once r >= 0. A stopped cell's u no longer changes: its next step is the
    same one, so it stays stopped, and its _rest_terms are recomputed to the
    same values until every cell has stopped.
    """
    u_lo = np.subtract(logg, logc)
    u_lo /= s
    # the quadratic model of r at the mode (s + rest = n) starts near-double roots close by
    u = np.sqrt(2.0 * np.maximum(logh - logg, 0.0) * rest / (s * (s + rest)))
    np.maximum(u_lo, np.subtract(u_mode, u, out=u), out=u)
    rest_log1m, odds, resid, new = np.empty((4, u.size))
    for it in range(_NEWTON_CAP):
        _rest_terms(u, rest, rest_log1m, odds)
        np.multiply(s, u, out=resid)
        resid += logc
        resid += rest_log1m
        resid -= logg
        np.multiply(rest, odds, out=new)
        np.subtract(s, new, out=new)
        np.divide(resid, new, out=new)
        np.subtract(u, new, out=new)
        np.minimum(np.maximum(new, u_lo, out=new), u_mode, out=new)
        live = new != u
        if it:  # past the first step the iterates stay left of the root,
            live &= resid < 0  # so r >= 0 means it is reached within rounding
        if not np.count_nonzero(live):
            return u, rest_log1m, odds
        np.copyto(u, new, where=live)
    _rest_terms(u, rest, rest_log1m, odds)  # at the cap, u moved after its last _rest_terms
    return u, rest_log1m, odds


def _tail_by_term(col, odds, n):
    """Per cell, of class s = ``col`` + 1 (in class order), 1 + the tail's
    term ratios summed in order, a term of every cell at a time (a class's
    ratio is computed once for its cells), until no term exceeds _TAIL_EPS
    times its cell's sum. That is the sum of all the terms, bit for bit:
    the tail starts past the pmf's mode ((n + 2) a_s < s + 2, as a_s <= s/n
    and s < n; class n is solved apart), so ratio_t * odds < 1 and each float
    term is at most (1 + u)^2 times the one before. From a term <= 2^-60 S
    on, S the sum before it, every term is below 2^-54 S < ulp(S)/2, and
    S + t rounds to S."""
    classes, counts = np.unique(col, return_counts=True)
    s = classes + 1.0
    rest = n - s
    term, total = np.ones(col.size), np.ones(col.size)
    test, bar = np.empty(col.size, dtype=bool), np.empty(col.size)
    for t in range(n):
        ratio = (rest - t) / (s + (t + 2.0))
        term *= ratio if ratio.size == term.size else np.repeat(ratio, counts)
        term *= odds
        if not np.greater(term, np.multiply(total, _TAIL_EPS, out=bar), out=test).any():
            break
        total += term
    return total


def _tail_by_chunk(s, rest, odds, n):
    """_tail_by_term's sums a chunk of terms at a time. A cell's terms come
    from one np.multiply.accumulate over its interleaved factors
    (ratio_t, odds), and its running sums from one np.add.accumulate; both
    run strictly in order, so every term and sum equals the loop's. Chunks
    go on until no cell's last term exceeds _TAIL_EPS times the sum before
    it, the stop rule of _tail_by_term."""
    term = total = 1.0
    t0 = 0
    while True:
        t = np.arange(t0, min(n, t0 + max(1, _CHUNK // s.size)), dtype=float)
        f = np.empty((s.size, 2 * t.size + 1))
        f[:, 0] = term
        np.divide(rest[:, None] - t, s[:, None] + (t + 2.0), out=f[:, 1::2])
        f[:, 2::2] = odds[:, None]
        np.multiply.accumulate(f, axis=1, out=f)
        sums = np.empty((s.size, t.size + 1))
        sums[:, 0], sums[:, 1:] = total, f[:, 2::2]
        np.add.accumulate(sums, axis=1, out=sums)
        term, total = f[:, -1], sums[:, -1]
        t0 += t.size
        if t0 == n or not (term > _TAIL_EPS * sums[:, -2]).any():
            return total


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
