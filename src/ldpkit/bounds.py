"""Privacy-constrained risk bound calculators.

Every calculator returns a ``BoundReport`` carrying the value, the
optimizer's witness arguments, and an echo of its inputs, so results can
be re-derived from the report alone. Suprema over the slack parameter
zeta (and, where applicable, gamma) are the maxima of the bound's values
on configurable grids, ties going to the first grid point; negative
brackets clamp to zero and are flagged as vacuous rather than reported
negative. Logs are nats throughout. numpy is imported only inside the
functions that build arrays (``GridSpec.points()``, a log grid's
``values()``, the small ball and the three Bayes bounds), so the
closed-form calculators, and a linear grid's ``values()``, load on the
standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable

from .contraction import PrivacyParams, gamma_from_epsilon, phi, phi_n
from .errors import DomainError, at_least, count, finite_above, within_cap

if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)
# Point caps of a grid and of the zeta x gamma mesh. A grid point costs up to
# ~1.1 KB and 10-17 us, in a `bound --sweep` that keeps a report and a CSV
# row per point (1163 MB at the cap). The mesh is evaluated in one buffer of
# MESH_BLOCK_BYTES, a block of zeta rows at a time (down to one row), so a
# mesh point costs time alone: ~3 ns when no block is skipped, 0.1 s at the cap.
MAX_GRID_STEPS = 10**6
MAX_MESH_POINTS = 2**25
MESH_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class GridSpec:
    """Dense evaluation grid: ``steps`` points from lo to hi, linear or log
    spaced. One step is the grid [lo], whatever hi is.

    ``values()`` gives the grid as a tuple of Python floats and ``points()``
    as a read-only array; each is built on its first call and the same
    object is returned after. A linear grid is computed on the standard
    library with ``np.linspace``'s arithmetic, bit for bit, so reading its
    ``values()`` loads no numpy. A log grid is ``np.geomspace``: Python's
    ``10.0 ** y`` can differ from numpy's ``power`` in the last bit. The
    grids are kept on this instance, not shared between equal specs:
    GridSpec(-0.0, 1.0, 1) == GridSpec(0.0, 1.0, 1), yet their grids differ
    in sign."""

    lo: float
    hi: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "steps", count("grid steps", self.steps, 1))
        within_cap("grid steps", self.steps, MAX_GRID_STEPS)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"grid ends must be finite, got [{self.lo}, {self.hi}]")
        if self.steps > 1 and not self.lo < self.hi:
            raise DomainError(f"grid requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"unknown grid scale {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise DomainError("log-spaced grid requires lo > 0")

    def values(self) -> tuple[float, ...]:
        return self._values

    def points(self) -> np.ndarray:
        return self._points

    @cached_property
    def _values(self) -> tuple[float, ...]:
        lo, hi, div = self.lo, self.hi, self.steps - 1
        if div == 0:
            return (lo,)
        if self.scale == "log":
            return tuple(self.points().tolist())
        # np.linspace: i * step + lo, or i / div * (hi - lo) + lo where the
        # step underflows to zero; the span may overflow to inf, as there.
        delta = hi - lo
        step = delta / div
        if step == 0:
            return (*(i / div * delta + lo for i in range(div)), hi)
        return (*(i * step + lo for i in range(div)), hi)

    @cached_property
    def _points(self) -> np.ndarray:
        import numpy as np

        if self.scale == "log" and self.steps > 1:
            pts = np.geomspace(self.lo, self.hi, self.steps)
        else:
            pts = np.array(self.values())
        pts.setflags(write=False)
        return pts

    _ball_side = None  # (small_ball, *its zeta side) of the last ball read: see _ball_on_grid


DEFAULT_ZETA_GRID = GridSpec(1e-4, 0.5, 2000, "log")
DEFAULT_GAMMA_GRID = GridSpec(0.0, 4.0, 800, "linear")


def small_ball_uniform01(zeta):
    """Small-ball function of a uniform [0, 1] prior under absolute loss.

    The largest probability that the parameter lands within zeta of any
    fixed point: min(2 zeta, 1), elementwise on arrays, taken as
    2 min(zeta, 1/2) so that no zeta overflows.
    """
    import numpy as np

    return 2.0 * np.minimum(zeta, 0.5)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value plus optimizer witnesses and an input echo."""

    bound_name: str
    value: float
    witness: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BayesConfig:
    """Inputs for the Bayes-risk lower bounds.

    ``small_ball`` maps zeta to the largest prior mass of a zeta-ball
    (nondecreasing, valued in [0, 1]; a bound refuses a NaN or negative L,
    and the gamma-optimized bound an infinite one too). ``info_value`` is
    I(Theta; X^n) in nats for the mutual-information bound and
    I_{e^eps}(Theta; X^n) for the hockey-stick bound. The gamma-optimized
    bound ignores ``info_value`` and needs ``info_fn``, a callable
    gamma -> I_gamma(Theta; X^n). Both grids must start at lo >= 0: zeta
    is a ball radius and the supremum is over gamma >= 0.

    Both callables must take numpy arrays and broadcast: ``small_ball`` is
    called on the whole zeta grid and must give one value per zeta or a
    constant, which is broadcast; ``info_fn`` is called once on the 1-d
    gamma grid. The grids they get are the read-only arrays of
    ``GridSpec.points()``, shared by every bound evaluated on that grid:
    neither callable may write into them. The three bounds read
    ``small_ball`` in one place, which keeps L, log(1/L) and L < 1 with
    the zeta-grid instance, so it must be a pure function of zeta. A grid
    keeps one side, that of the last ball read on it: about 17 B a grid
    point, 34 KB on DEFAULT_ZETA_GRID and 17 MB at MAX_GRID_STEPS.
    """

    small_ball: Callable[[np.ndarray], np.ndarray]
    info_value: float
    n: int
    params: PrivacyParams
    zeta_grid: GridSpec = DEFAULT_ZETA_GRID
    gamma_grid: GridSpec = DEFAULT_GAMMA_GRID
    info_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        at_least("info_value", self.info_value, 0)
        finite_above("info_value", self.info_value, -math.inf)  # only inf is left to refuse
        object.__setattr__(self, "n", count("n", self.n, 1))
        if self.zeta_grid.lo < 0:
            raise DomainError(f"zeta grid needs lo >= 0 (a radius), got {self.zeta_grid.lo!r}")
        if self.gamma_grid.lo < 0:
            raise DomainError(f"gamma grid needs lo >= 0, got {self.gamma_grid.lo!r}")


def _contracted(c: float, info: float) -> float:
    """c * info, the information left after a contraction coefficient c.

    A zero coefficient lets no information through, so the product is 0
    when c = 0 even for info = inf; otherwise it is c * info as is.
    """
    return 0.0 if c == 0.0 else c * info


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _fields(obj) -> dict:
    """A flat dataclass's fields by name: ``asdict`` without its deep copy."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def _flags_for(value: float, extra: tuple[str, ...] = ()) -> tuple[str, ...]:
    return extra + (("vacuous",) if value <= 0 else ())


def lecam_private(tau: float, kl_p0_p1: float, n: int, params: PrivacyParams) -> BoundReport:
    """Two-point minimax lower bound (tau/2)[1 - sqrt(n phi KL / 2)], clamped at 0.

    The two hypotheses are 2 tau apart, and KL(P0||P1) is in nats.
    """
    finite_above("tau", tau, 0)
    at_least("kl_p0_p1", kl_p0_p1, 0)
    n = count("n", n, 1)
    phi_v = phi(params)
    bracket = 1.0 - math.sqrt(_contracted(0.5 * n * phi_v, kl_p0_p1))
    value = max(0.0, 0.5 * tau * bracket)
    return BoundReport(
        bound_name="lecam_private",
        value=value,
        inputs={"tau": tau, "kl_p0_p1": kl_p0_p1, "n": n, **_fields(params), "phi": phi_v},
        flags=_flags_for(value),
    )


def moment_estimation_lb(k_moment: float, n: int, params: PrivacyParams) -> BoundReport:
    """Explicit-constant minimax lower bound for one-dimensional mean
    estimation under a k-th moment constraint.

    Uses the three-point construction with mass omega at +-omega^{-1/k}:
    the risk is at least omega^{2(k-1)/k} [1 - sqrt(2) sqrt(1 - (1 - omega phi)^n)]
    at omega = min(1, (1/phi)(1 - (7/8)^{1/sqrt(n)})). With phi = 0 no
    information leaves the mechanism and the trivial constant bound is
    returned, flagged.
    """
    finite_above("moment order", k_moment, 1)
    n = count("n", n, 1)
    phi_v = phi(params)
    exponent = 2.0 * (k_moment - 1.0) / k_moment
    extra: tuple[str, ...] = ()
    if phi_v == 0.0:
        omega = 1.0
        value = 1.0
        extra = ("trivial",)
    else:
        omega = min(1.0, (1.0 - (7.0 / 8.0) ** (1.0 / math.sqrt(n))) / phi_v)
        bracket = 1.0 - math.sqrt(2.0) * math.sqrt(1.0 - (1.0 - omega * phi_v) ** n)
        value = omega**exponent * max(0.0, bracket)
    return BoundReport(
        bound_name="moment_estimation_lb",
        value=value,
        witness={"omega": omega},
        inputs={
            "k_moment": k_moment,
            "n": n,
            **_fields(params),
            "phi": phi_v,
            "variant": "explicit-constant",
        },
        flags=_flags_for(value, extra),
    )


def fano_lb(
    v_count: int, avg_pairwise_kl: float, tau: float, n: int, params: PrivacyParams,
    mi_xn_v: float | None = None,
) -> BoundReport:
    """Multi-way testing lower bound tau [1 - (MI cap + log 2) / log v_count].

    The packing has v_count hypotheses, and ``avg_pairwise_kl`` is the KL
    sum over ordered hypothesis pairs divided by v_count squared (nats).
    The cap on the privatized-sample information I(Z^n; V), echoed as
    ``inputs["mi_upper"]``, is phi_n * mi_xn_v when the sample information
    I(X^n; V) is supplied, and n * phi_n * avg_pairwise_kl otherwise.
    """
    v_count = count("v_count", v_count, 2)
    at_least("avg_pairwise_kl", avg_pairwise_kl, 0)
    if mi_xn_v is not None:
        at_least("mi_xn_v", mi_xn_v, 0)
    finite_above("tau", tau, 0)
    n = count("n", n, 1)
    pn = phi_n(params, n)
    if mi_xn_v is not None:
        mi_up = _contracted(pn, mi_xn_v)
    else:
        mi_up = _contracted(n * pn, avg_pairwise_kl)
    bracket = 1.0 - (mi_up + LN2) / math.log(v_count)
    value = max(0.0, tau * bracket)
    return BoundReport(
        bound_name="fano_lb",
        value=value,
        inputs={
            "v_count": v_count,
            "avg_pairwise_kl": avg_pairwise_kl,
            "tau": tau,
            "n": n,
            **_fields(params),
            "mi_upper": mi_up,
        },
        flags=_flags_for(value),
    )


def highdim_mean_lb(d: int, r: float, n: int, params: PrivacyParams) -> BoundReport:
    """Explicit-constant lower bound for mean estimation in an l2-ball of
    radius r in d dimensions.

    Evaluates ((r omega)^2 / k)[1 - 16 (1 + n omega phi_n) log2 / k] at
    the packing size k = max(16, min(floor(n phi_n), d)) and
    omega = min(1, k / (50 n phi_n)). The hidden universal constant of
    the order-notation statement is not reproduced; this is the explicit
    pre-constant expression. Squaring r omega, not r, keeps a finite bound
    finite for r up to about 1.3e154 / omega.
    """
    d = count("dimension", d, 1)
    finite_above("radius", r, 0)
    n = count("n", n, 1)
    pn = phi_n(params, n)
    extra: tuple[str, ...] = ()
    if pn == 0.0:
        k_pack = 16
        omega = 1.0
        extra = ("trivial",)
    else:
        k_pack = max(16, min(int(math.floor(n * pn)), d))
        omega = min(1.0, k_pack / (50.0 * n * pn))
    bracket = 1.0 - 16.0 * (1.0 + n * omega * pn) * LN2 / k_pack
    value = ((r * omega) ** 2 / k_pack) * max(0.0, bracket)
    return BoundReport(
        bound_name="highdim_mean_lb",
        value=value,
        witness={"omega": omega, "k": k_pack},
        inputs={
            "d": d,
            "r": r,
            "n": n,
            **_fields(params),
            "phi_n": pn,
            "variant": "explicit-constant",
        },
        flags=_flags_for(value, extra),
    )


def _bayes_inputs(cfg: BayesConfig, **extra) -> dict:
    return {
        "info_value": cfg.info_value,
        "n": cfg.n,
        **_fields(cfg.params),
        "zeta_grid": _fields(cfg.zeta_grid),
        **extra,
    }


def _ball_on_grid(cfg: BayesConfig):
    """The epsilon-free zeta side of the Bayes bounds: the zeta grid, L on it,
    log(1/L) and the mask L < 1, as read-only arrays of the grid's shape.

    L of another shape than the grid's, unless a constant, is refused, as is
    a NaN L (read as infeasible) or a negative one (0 * inf at zeta = 0).
    The grid instance keeps the side of the last ball it accepted, with a
    reference to that ball, so L is read again only when ``small_ball`` is
    another object. Equal grids keep their own sides, as their points may
    differ in the sign of a zero. A refused ball is kept nowhere.
    """
    kept = cfg.zeta_grid._ball_side
    if kept is None or kept[0] is not cfg.small_ball:
        import numpy as np

        zetas = cfg.zeta_grid.points()
        ball = cfg.small_ball(zetas)
        if np.shape(ball) not in ((), zetas.shape):
            raise DomainError(f"L(zeta) must give one value per zeta, got shape {np.shape(ball)}")
        ball = np.broadcast_to(ball, zetas.shape)
        if np.isnan(ball).any():
            raise DomainError("L(zeta) must not be NaN on the zeta grid")
        if np.less(ball, 0.0).any():
            raise DomainError("L(zeta) must be >= 0 on the zeta grid")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logs = np.log(1.0 / ball)
        feasible = ball < 1.0
        logs.setflags(write=False)
        feasible.setflags(write=False)
        kept = (cfg.small_ball, zetas, ball, logs, feasible)
        object.__setattr__(cfg.zeta_grid, "_ball_side", kept)
    return kept[1:]


def bayes_xu_raginsky_private(cfg: BayesConfig) -> BoundReport:
    """Mutual-information Bayes-risk lower bound under privacy.

    sup over zeta of zeta [1 - (phi_n I(Theta; X^n) + log 2) / log(1/L(zeta))],
    with grid points where L(zeta) >= 1 skipped (their bracket is
    vacuous). If no grid point is feasible the value is 0, flagged.
    """
    import numpy as np

    pn = phi_n(cfg.params, cfg.n)
    numerator = pn * cfg.info_value + LN2
    zetas, _, logs, feasible = _ball_on_grid(cfg)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bracket = 1.0 - numerator / logs
    vals = np.where(feasible, zetas * np.maximum(0.0, bracket), -np.inf)
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


def bayes_egamma_lb(cfg: BayesConfig) -> BoundReport:
    """Hockey-stick Bayes-risk lower bound under privacy.

    sup over zeta of zeta [1 - c I_gamma - e^eps L(zeta)] at gamma = e^eps,
    where the contraction coefficient c is delta itself for n = 1 and
    phi_n for n > 1.
    """
    import numpy as np

    gamma = gamma_from_epsilon(cfg.params.epsilon)
    c = cfg.params.delta if cfg.n == 1 else phi_n(cfg.params, cfg.n)
    zetas, ball, _, _ = _ball_on_grid(cfg)
    # A zero ball absorbs gamma = inf, as a zero coefficient does in _contracted.
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


def bayes_gamma_opt_lb(cfg: BayesConfig) -> BoundReport:
    """Non-private Bayes-risk bound optimized jointly over zeta and gamma.

    sup over (zeta, gamma >= 0) of
    zeta [1 - I_gamma - gamma L(zeta) - max(1 - gamma, 0)], with the
    gamma profile supplied by ``cfg.info_fn``, evaluated once on the gamma
    grid, and L read as the 1-d bounds read it (``_ball_on_grid``).

    The value is the first maximum of the zeta x gamma mesh in row-major
    order, bit for bit, but the mesh is evaluated a block of zeta rows at a
    time, from the block of highest upper bound down, and the walk ends at
    the first block whose bound is below the best cell found. Beyond the
    1-d bounds' refusals of L, a non-finite I_gamma or an infinite L is
    refused: the block bounds need finite cells.
    """
    import numpy as np

    if cfg.info_fn is None:
        raise DomainError("bayes_gamma_opt_lb requires info_fn (gamma -> I_gamma)")
    within_cap("zeta x gamma mesh", cfg.zeta_grid.steps * cfg.gamma_grid.steps, MAX_MESH_POINTS)
    gammas = cfg.gamma_grid.points()
    info = cfg.info_fn(gammas)
    zetas, ball, _, _ = _ball_on_grid(cfg)
    if not (np.isfinite(info).all() and np.isfinite(ball).all()):
        raise DomainError("I_gamma and L(zeta) must be finite on the gamma and zeta grids")
    g, head = gammas[None, :], 1.0 - info
    hinge = np.maximum(1.0 - g, 0.0)
    rows = max(1, MESH_BLOCK_BYTES // (8 * gammas.size))
    buf = np.empty((rows, gammas.size))

    def mesh(z, l_z):
        # z [1 - I_gamma - gamma L(z) - (1 - gamma)_+]_+, evaluated left to
        # right in one (zeta, gamma) block of buf
        vals = np.multiply(g, l_z, out=buf[: len(z)])
        np.subtract(head, vals, out=vals)
        vals -= hinge
        np.maximum(0.0, vals, out=vals)
        vals *= z
        return vals

    # Each block's bound is the same operations at its largest zeta and its
    # smallest ball value: rounding is monotone in each operand, and the
    # cell grows with z >= 0 and shrinks in L for gamma >= 0, so with finite
    # inputs no cell of the block exceeds its bound.
    starts = np.arange(0, zetas.size, rows)
    bound = np.empty(starts.size)
    top = np.maximum.reduceat(zetas, starts)[:, None]
    low = np.minimum.reduceat(ball, starts)[:, None]
    for s in range(0, starts.size, rows):
        bound[s : s + rows] = mesh(top[s : s + rows], low[s : s + rows]).max(axis=1)

    def block(b):
        # the block's first maximum, as (value, -flat index): of two equal
        # cells max() keeps the smaller index, the first maximum of np.argmax
        lo = int(starts[b])
        vals = mesh(zetas[lo : lo + rows, None], ball[lo : lo + rows, None])
        k = int(np.argmax(vals))
        return float(vals.flat[k]), -(lo * gammas.size + k)

    # Blocks are evaluated from the highest bound down, and the walk stops at
    # the first bound below the best cell found: no later block can hold it.
    best = (-math.inf, 0)
    for b in np.argsort(-bound, kind="stable"):
        if bound[b] < best[0]:
            break
        best = max(best, block(b))
    value, (i, j) = best[0], divmod(-best[1], gammas.size)
    zeta_star, gamma_star = float(zetas[i]), float(gammas[j])
    # Until the gamma supremum is searched off the grid, a witness on an
    # end of the grid says the supremum may lie beyond it.
    edge = ("gamma-at-grid-edge",) if gamma_star in (gammas[0], gammas[-1]) else ()
    return BoundReport(
        bound_name="bayes_gamma_opt_lb",
        value=value,
        witness={"zeta": zeta_star, "gamma": gamma_star},
        inputs=_bayes_inputs(cfg, gamma_grid=_fields(cfg.gamma_grid)),
        flags=_flags_for(value, edge),
    )


def ht_exponent(kl_p0_p1: float, params: PrivacyParams) -> BoundReport:
    """Bound on the asymptotic type-II error exponent of private testing.

    The privatized exponent is at least -phi(epsilon, delta) KL(P0||P1);
    the type-I level does not enter (the exponent is level-free).
    """
    at_least("kl_p0_p1", kl_p0_p1, 0)
    value = -_contracted(phi(params), kl_p0_p1)
    return BoundReport("ht_exponent", value, inputs={"kl_p0_p1": kl_p0_p1, **_fields(params)})


def mi_cap(h_x: float, params: PrivacyParams) -> BoundReport:
    """Largest mutual information any private view can retain: phi * H(X)."""
    at_least("entropy", h_x, 0)
    value = _contracted(phi(params), h_x)
    return BoundReport("mi_cap", value, inputs={"entropy": h_x, **_fields(params)})
