"""Shared generators, hypothesis strategies and reference implementations
for the test suite."""

import decimal
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import ldpkit
from ldpkit import info
from ldpkit.dist import Distribution, FGenerator, _check_alphabets, f_divergence
from ldpkit.errors import DimensionError, DomainError
from ldpkit.kernel import Kernel, bsc, k_rr, randomized_response


def ldpkit_path() -> str:
    """The directory holding the ldpkit this suite imported, the checkout's
    src or an installed copy's site-packages: the PYTHONPATH of a subprocess
    that must run the same ldpkit."""
    return str(Path(ldpkit.__file__).resolve().parents[1])


def pushforward(p: Distribution, k: Kernel) -> Distribution:
    """Output distribution PK of the kernel under input distribution P."""
    if p.alphabet_size != k.input_size:
        raise DimensionError(
            f"distribution on {p.alphabet_size} symbols cannot feed a kernel "
            f"with input size {k.input_size}"
        )
    return Distribution(p.probs @ k.rows)


def bu_class_marginal(n: int) -> np.ndarray:
    """Marginal mass of each count class s: C(n,s) s!(n-s)!/(n+1)! = 1/(n+1)."""
    if n < 1:
        raise DomainError(f"sample size n must be >= 1, got {n}")
    return np.full(n + 1, 1.0 / (n + 1))


def random_distribution(rng, size: int) -> Distribution:
    return Distribution(rng.dirichlet(np.ones(size)))


def random_kernel(rng, nx: int, nz: int) -> Kernel:
    return Kernel(rng.dirichlet(np.ones(nz), size=nx))


def audit_kernel_family(seed: int = 7):
    """Named kernels with output size <= 10 for raw-definition checks."""
    rng = np.random.default_rng(seed)
    return [
        ("rr(0.5)", randomized_response(0.5)),
        ("rr(1)", randomized_response(1.0)),
        ("rr(2)", randomized_response(2.0)),
        ("krr(ln3,3)", k_rr(math.log(3.0), 3)),
        ("krr(1,5)", k_rr(1.0, 5)),
        ("bsc(0.25)", bsc(0.25)),
        ("bsc(0.5)", bsc(0.5)),
        ("identity(3)", Kernel.identity(3)),
        ("random(3,7)", random_kernel(rng, 3, 7)),
        ("random(4,10)", random_kernel(rng, 4, 10)),
        ("random(2,6)", random_kernel(rng, 2, 6)),
    ]


def eps_delta_rr(eps: float, delta: float) -> Kernel:
    """(eps, delta) randomized response on two inputs: with probability
    delta the input is revealed in an output of its own, otherwise the
    bit is answered by eps-randomized response. Its profile is delta at
    eps, and its TV coefficient is (e^eps - 1 + 2 delta) / (e^eps + 1)."""
    a = math.exp(eps) / (1.0 + math.exp(eps))
    b = 1.0 - a
    return Kernel(np.array([
        [delta, (1.0 - delta) * a, (1.0 - delta) * b, 0.0],
        [0.0, (1.0 - delta) * b, (1.0 - delta) * a, delta],
    ]))


def _series(x, term):
    """Sum of term(j) * x^j over j >= 1, up to the first term below 1e-70 of the sum."""
    total, power, j = decimal.Decimal(0), decimal.Decimal(1), 1
    while True:
        power *= x
        t = term(j) * power
        total += t
        if abs(t) <= abs(total) * decimal.Decimal("1e-70"):
            return total
        j += 1


def phi_n_decimal(epsilon: float, delta: float, n: int) -> float:
    """1 - (1 - delta)^n e^{-n epsilon}, computed in 60-digit decimal and
    rounded once to a float. log(1 - delta) and 1 - e^x are taken by their
    Taylor series when the argument is below 0.01, so neither loses digits
    to cancellation as epsilon and delta go to 0."""
    if delta == 1.0 or epsilon == math.inf:
        return 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d, small = decimal.Decimal(delta), decimal.Decimal("0.01")
        log_keep = -_series(d, lambda j: decimal.Decimal(1) / j) if d < small else (1 - d).ln()
        x = n * (log_keep - decimal.Decimal(epsilon))
        if -x < small:
            return float(-_series(x, lambda j: 1 / decimal.Decimal(math.factorial(j))))
        return float(1 - x.exp())


def hadamard_response(eps: float, k: int) -> Kernel:
    """Hadamard response on k inputs: input x draws an output column of
    the K = 2^ceil(log2(k + 1)) Sylvester Hadamard matrix, with mass
    2 e^eps / (K (1 + e^eps)) on the +1 entries of row x (rows 1..k) and
    2 / (K (1 + e^eps)) elsewhere. Any two rows differ on K/2 columns, so
    every pair has E_gamma = (e^eps - gamma)_+ / (2 (1 + e^eps))."""
    h = np.ones((1, 1))
    while h.shape[0] <= k:
        h = np.block([[h, h], [h, -h]])
    scale = 2.0 / (h.shape[0] * (1.0 + math.exp(eps)))
    return Kernel(np.where(h[1 : k + 1] > 0, math.exp(eps) * scale, scale))


@st.composite
def distributions(draw, size: int | None = None, min_size: int = 2, max_size: int = 5):
    k = size if size is not None else draw(st.integers(min_size, max_size))
    weights = draw(
        st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(lambda w: sum(w) > 0)
    )
    arr = np.asarray(weights, dtype=float)
    return Distribution(arr / arr.sum())


@st.composite
def distribution_pairs(draw, min_size: int = 2, max_size: int = 5):
    k = draw(st.integers(min_size, max_size))
    return draw(distributions(size=k)), draw(distributions(size=k))


@st.composite
def kernels(draw, min_in: int = 2, max_in: int = 4, min_out: int = 2, max_out: int = 4):
    nx = draw(st.integers(min_in, max_in))
    nz = draw(st.integers(min_out, max_out))
    rows = [draw(distributions(size=nz)).probs for _ in range(nx)]
    return Kernel(np.vstack(rows))


# --------------------------------------------------------------------------
# Reference implementations, test-only and slow. First the two-point scan,
# the profile inversion and the sampled verifier one row pair (or input
# pair) at a time through the scalar Distribution API, which the batched
# engine must reproduce; then the sorted-prefix inversion of the profile,
# two forms of E_gamma other than the sup-over-sets one in ldpkit.dist,
# Simpson quadrature of the Bernoulli-uniform informations, I_gamma at
# n = 1 in closed form, and I_gamma on whole (gamma, class) rectangles.


def loop_two_point(k: Kernel, gamma: float) -> tuple[float, float, tuple[int, int]]:
    """(eta_gamma, eta_tv, argmax pair) by scanning every ordered row pair;
    the first pair in row-major order to reach the max wins. gamma >= 1
    (gamma = inf gives the residual)."""
    best = 0.0
    best_tv = 0.0
    best_pair = (0, 0)
    for x in range(k.input_size):
        px = k.row(x)
        for xp in range(k.input_size):
            qx = k.row(xp)
            value = f_divergence(px, qx, FGenerator("egamma", gamma))
            if value > best:
                best = value
                best_pair = (x, xp)
            best_tv = max(best_tv, f_divergence(px, qx, FGenerator("tv")))
    return best, best_tv, best_pair


def loop_infinite_epsilon_residual(k: Kernel) -> float:
    """Largest mass one row puts where another row is exactly zero."""
    best = 0.0
    for x in range(k.input_size):
        for xp in range(k.input_size):
            if x == xp:
                continue
            best = max(best, float(k.rows[x][k.rows[xp] == 0.0].sum()))
    return best


def bisect_tightest_epsilon(k: Kernel, delta: float, eps_max: float = 50.0, tol: float = 1e-9):
    """Smallest epsilon with delta(epsilon) <= delta by bisection on
    [0, eps_max] to absolute tolerance tol, using loop_two_point.

    Returns (epsilon, saturated): +inf when delta is below the
    infinite-epsilon residual, (eps_max, True) when eps_max is not enough.
    """

    def delta_at(eps: float) -> float:
        return loop_two_point(k, math.exp(eps))[0]

    if delta_at(0.0) <= delta:
        return 0.0, False
    if delta < loop_infinite_epsilon_residual(k):
        return math.inf, False
    if delta_at(eps_max) > delta:
        return eps_max, True
    lo, hi = 0.0, eps_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if delta_at(mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi, False


def loop_verify(k: Kernel, epsilon: float, delta: float, trials: int, seed: int):
    """The sampled verifier pair by pair: point masses (x, x'), x != x',
    row-major, then Dirichlet pairs in draw order. Returns
    (violation_pair, max_ratio, max_ratio_pair). max_ratio_pair is the
    first pair of largest ratio. violation_pair is the worst point-mass
    pair (the first of largest E_gamma between pushforwards) when it
    violates, and otherwise the first violating Dirichlet pair."""
    gamma = math.exp(epsilon)
    d = k.input_size
    pairs = [
        (Distribution.point_mass(x, d), Distribution.point_mass(xp, d))
        for x in range(d)
        for xp in range(d)
        if x != xp
    ]
    rng = np.random.default_rng(seed)
    ps = rng.dirichlet(np.ones(d), size=trials)
    qs = rng.dirichlet(np.ones(d), size=trials)
    pairs.extend((Distribution(p), Distribution(q)) for p, q in zip(ps, qs))
    probes = []  # (p, q, num, den) in probe order
    f = FGenerator("egamma", gamma)
    for p, q in pairs:
        num = f_divergence(pushforward(p, k), pushforward(q, k), f)
        probes.append((p.probs, q.probs, num, f_divergence(p, q, f)))
    max_ratio, max_ratio_pair = 0.0, None
    for p, q, num, den in probes:
        if den > 1e-12 and num / den > max_ratio:
            max_ratio, max_ratio_pair = num / den, (p, q)
    violating = [(p, q) for p, q, num, den in probes if num > delta * den + 1e-10]
    # Every point-mass pair has den = 1, so the worst one violates if any does.
    worst = max(probes[: d * (d - 1)], key=lambda probe: probe[2], default=None)
    if worst is not None and worst[2] > delta * worst[3] + 1e-10:
        return worst[:2], max_ratio, max_ratio_pair
    return (violating[0] if violating else None), max_ratio, max_ratio_pair

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


def egamma_integral_form(p: Distribution, q: Distribution, gamma: float) -> float:
    """E_gamma via (1/2) sum |p_i - gamma q_i| - (1/2) |1 - gamma|.

    Kept as an independent formula for cross-validation against
    :func:`ldpkit.dist.f_divergence`; agrees with it for every gamma >= 0.
    """
    _check_alphabets(p, q)
    if not gamma >= 0:
        raise DomainError(f"gamma must be >= 0, got {gamma!r}")
    return float(0.5 * np.abs(p.probs - gamma * q.probs).sum() - 0.5 * abs(1.0 - gamma))


def egamma_threshold_form(p: Distribution, q: Distribution, gamma: float) -> float:
    """E_gamma via the likelihood-ratio threshold set A = {i : p_i > gamma q_i}.

    Returns P(A) - gamma Q(A) - max(1 - gamma, 0). Symbols with
    p_i = q_i = 0 never enter A.
    """
    _check_alphabets(p, q)
    if not gamma >= 0:
        raise DomainError(f"gamma must be >= 0, got {gamma!r}")
    mask = p.probs > gamma * q.probs
    value = p.probs[mask].sum() - gamma * q.probs[mask].sum()
    return float(value - max(1.0 - gamma, 0.0))


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
    if not gamma >= 0:
        raise DomainError(f"gamma must be >= 0, got {gamma!r}")
    if gamma <= 1.0:
        return 0.25 * gamma**2
    if gamma <= 2.0:
        return 0.25 * (gamma - 2.0) ** 2
    return 0.0


def bu_igamma_dense(n: int, gamma: np.ndarray) -> np.ndarray:
    """``bu_igamma`` of the n-sample model at a 1-d array of gamma >= 0 the
    dense way: every gamma in (0, n + 1) and every class s = 1..n is one
    cell of a (gamma, class) rectangle, and Newton's iteration and the tail
    sums run over the whole rectangle, masked, until the slowest cell is
    done. Its values are the library's, bit for bit; ``_NEWTON_CAP`` and
    ``_TAIL_EPS`` are read from ldpkit.info at each call."""
    out = np.zeros(gamma.shape)
    inside = (gamma > 0) & (gamma < n + 1)
    if inside.any():
        out[inside] = _dense_block(bu_classes_dense(n), gamma[inside])
    return out


def bu_classes_dense(n: int) -> tuple:
    """The gamma-free constants of ``bu_igamma_dense``, from index arrays:
    log Beta normalizer and log mode height of classes 0..n, then s, n - s,
    the first tail term's constant, log(s/n) and s n of classes 1..n."""
    k = np.arange(n + 1)
    logfact = np.array([math.lgamma(j + 1.0) for j in range(n + 2)])
    logc = math.log(n + 1) + (logfact[n] - (logfact[k] + logfact[n - k]))
    xlogx = np.zeros(n + 1)
    xlogx[1:] = k[1:] * np.log(k[1:] / n)
    logh = logc + (xlogx + xlogx[::-1])
    s, rest = k[1:].astype(float), (n - k[1:]).astype(float)
    log_choose = logfact[n + 1] - (logfact[2:] + logfact[n - k[1:]])
    return logc, logh, s, rest, log_choose, np.log(s / s[-1]), s * s[-1]


def _dense_block(classes: tuple, gamma: np.ndarray) -> np.ndarray:
    logc, logh, s, rest, log_choose, u_mode, sn = classes
    n = s.size
    logg = np.log(gamma)[:, None]
    active = logg < logh
    with np.errstate(divide="ignore", invalid="ignore"):
        u = _dense_left_ends(s, rest, logc[1:], logh[1:], u_mode, sn, logg, active[:, 1:])
        rest_log1m, odds = _dense_rest_terms(u, rest)
        log_first = log_choose + (s + 1.0) * u + rest_log1m
        term, total = np.ones_like(u), np.ones_like(u)
        live = active[:, 1:].copy()
        for t in range(n):
            term = term * ((rest - t) / (s + (t + 2.0))) * odds
            live &= term > info._TAIL_EPS * total
            if not live.any():
                break
            np.add(total, term, out=total, where=live)
        tail = np.exp(log_first) * total
    d = np.where(active[:, 1:], gamma[:, None] * np.exp(u) - tail, 0.0).sum(axis=1)
    m = active.sum(axis=1)
    total = 2.0 * d + (m * (1.0 - gamma) - (n + 1) * np.maximum(1.0 - gamma, 0.0))
    return np.maximum(total / (n + 1), 0.0)


def _dense_rest_terms(u, rest):
    log1m = np.log1p(-np.exp(u))
    rest_log1m, odds = rest * log1m, np.exp(u - log1m)
    rest_log1m[:, -1] = odds[:, -1] = 0.0  # the last column is class n
    return rest_log1m, odds


def _dense_left_ends(s, rest, logc, logh, u_mode, sn, logg, active):
    u_lo = (logg - logc) / s
    drop = np.sqrt(2.0 * np.maximum(logh - logg, 0.0) * rest / sn)
    live = active.copy()
    u = np.where(live, np.maximum(u_lo, u_mode - drop), u_mode - 1.0)
    for it in range(info._NEWTON_CAP):
        rest_log1m, odds = _dense_rest_terms(u, rest)
        resid = logc + s * u + rest_log1m - logg
        new = np.minimum(np.maximum(u - resid / (s - rest * odds), u_lo), u_mode)
        if it:
            live &= resid < 0
        live &= new != u
        if not live.any():
            break
        np.copyto(u, new, where=live)
    return u


def gamma_opt_full_mesh(cfg) -> tuple[float, dict, tuple[str, ...]]:
    """The value, witness and flags of ``bayes_gamma_opt_lb(cfg)`` from the
    whole zeta x gamma mesh in one array and one ``np.argmax`` over it."""
    zetas, gammas = cfg.zeta_grid.points(), cfg.gamma_grid.points()
    info = cfg.info_fn(gammas)
    z, g = zetas[:, None], gammas[None, :]
    vals = np.multiply(g, cfg.small_ball(z), out=np.empty((zetas.size, gammas.size)))
    np.subtract(1.0 - info, vals, out=vals)
    vals -= np.maximum(1.0 - g, 0.0)
    np.maximum(0.0, vals, out=vals)
    vals *= z
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    value, gamma = float(vals[i, j]), float(gammas[j])
    flags = ("gamma-at-grid-edge",) if gamma in (gammas[0], gammas[-1]) else ()
    return value, {"zeta": float(zetas[i]), "gamma": gamma}, flags + ("vacuous",) * (value <= 0)


def bayes_xu_raginsky_uncached(cfg):
    """``bayes_xu_raginsky_private(cfg)`` as it was before the zeta side was
    kept with the grid: L, its refusals and log(1/L) taken again on each call."""
    from ldpkit.bounds import LN2, BoundReport, _bayes_inputs, _flags_for
    from ldpkit.contraction import phi_n

    pn = phi_n(cfg.params, cfg.n)
    numerator = pn * cfg.info_value + LN2
    zetas, ball = _ball_on_grid_uncached(cfg)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bracket = 1.0 - numerator / np.log(1.0 / ball)
    vals = np.where(ball < 1.0, zetas * np.maximum(0.0, bracket), -np.inf)
    i = int(np.argmax(vals))
    value = float(vals[i])
    if math.isfinite(value):
        witness, flags = {"zeta": float(zetas[i])}, _flags_for(value)
    else:
        value, witness, flags = 0.0, {}, ("no-feasible-zeta", "vacuous")
    return BoundReport(
        bound_name="bayes_xu_raginsky_private",
        value=value,
        witness=witness,
        inputs=_bayes_inputs(cfg, phi_n=pn),
        flags=flags,
    )


def bayes_egamma_uncached(cfg):
    """``bayes_egamma_lb(cfg)`` as it was before the zeta side was kept with
    the grid: L and its refusals taken again on each call."""
    from ldpkit.bounds import BoundReport, _bayes_inputs, _flags_for
    from ldpkit.contraction import gamma_from_epsilon, phi_n

    gamma = gamma_from_epsilon(cfg.params.epsilon)
    c = cfg.params.delta if cfg.n == 1 else phi_n(cfg.params, cfg.n)
    zetas, ball = _ball_on_grid_uncached(cfg)
    penalty = gamma * ball if gamma < math.inf else np.where(ball > 0.0, math.inf, 0.0)
    vals = zetas * np.maximum(0.0, 1.0 - c * cfg.info_value - penalty)
    i = int(np.argmax(vals))
    value = float(vals[i])
    return BoundReport(
        bound_name="bayes_egamma_lb",
        value=value,
        witness={"zeta": float(zetas[i])},
        inputs=_bayes_inputs(cfg, gamma=gamma, info_coefficient=c),
        flags=_flags_for(value),
    )


def _ball_on_grid_uncached(cfg):
    zetas = cfg.zeta_grid.points()
    ball = cfg.small_ball(zetas)
    if np.isnan(ball).any():
        raise DomainError("L(zeta) must not be NaN on the zeta grid")
    if np.less(ball, 0.0).any():
        raise DomainError("L(zeta) must be >= 0 on the zeta grid")
    return zetas, ball
