"""Markov kernels (mechanisms) as row-stochastic matrices.

A kernel maps each input symbol x to a distribution K(.|x) over the
output alphabet; pushing a distribution through it is the vector-matrix
product. Product alphabets are flattened row-major with the first
coordinate most significant, so tensor powers are iterated Kronecker
products and CSV output is reproducible bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dist import Distribution, probability_array
from .errors import CapacityError, DimensionError, DomainError

# Product constructions refuse to materialize more states than this.
DEFAULT_STATE_CAP = 4096


@dataclass(frozen=True, eq=False)
class Kernel:
    """Row-stochastic matrix, row x = the output distribution K(.|x).

    Each row is kept by :func:`ldpkit.dist.probability_array`, so
    ``row(x)`` returns the stored row bit for bit.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = probability_array(self.rows, 2, "kernel", per_row=True)
        object.__setattr__(self, "rows", rows)

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])

    def row(self, x: int) -> Distribution:
        if not 0 <= x < self.input_size:
            raise DomainError(f"input symbol {x} outside alphabet of size {self.input_size}")
        return Distribution(self.rows[x])

    @classmethod
    def identity(cls, size: int) -> "Kernel":
        if size < 1:
            raise DomainError("alphabet size must be >= 1")
        return cls(np.eye(size))

    def to_json(self) -> str:
        rows = ",".join(
            "[" + ",".join(f"{x:.17g}" for x in r) + "]" for r in self.rows
        )
        return '{"rows":[' + rows + "]}"


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel from JSON {"rows": [[...], ...]} or CSV (one row per line).

    Text that is neither raises DomainError, never a bare parse error.
    JSON entries must be numbers: booleans and strings are rejected.
    """
    stripped = text.strip()
    try:
        if stripped.startswith("{"):
            payload = json.loads(stripped)
            if "rows" not in payload:
                raise DomainError('kernel JSON must contain a "rows" field')
            rows = payload["rows"]
            # bool is a subclass of int, so compare exact types.
            bad = [v for row in rows for v in row if type(v) not in (int, float)]
            if bad:
                raise DomainError(
                    f"malformed kernel file: entry {json.dumps(bad[0])} is not a number"
                )
        else:
            rows = [
                [float(tok) for tok in line.split(",") if tok.strip()]
                for line in stripped.splitlines()
                if line.strip()
            ]
        if not rows:
            raise DomainError("kernel file contains no rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DimensionError("kernel rows have inconsistent lengths")
        matrix = np.asarray(rows, dtype=float)
    except (DomainError, DimensionError):
        raise
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise DomainError(f"malformed kernel file: {exc}") from None
    return Kernel(matrix)


def load_kernel(path: str | Path) -> Kernel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"malformed kernel file: {exc}") from None
    return parse_kernel(text)


def pushforward(p: Distribution, k: Kernel) -> Distribution:
    """Output distribution PK of the kernel under input distribution P."""
    if p.alphabet_size != k.input_size:
        raise DimensionError(
            f"distribution on {p.alphabet_size} symbols cannot feed a kernel "
            f"with input size {k.input_size}"
        )
    return Distribution(p.probs @ k.rows)


def bsc(omega: float) -> Kernel:
    """Binary symmetric channel with crossover probability omega."""
    if not 0.0 <= omega <= 1.0:
        raise DomainError(f"crossover probability {omega!r} outside [0, 1]")
    return Kernel(np.array([[1.0 - omega, omega], [omega, 1.0 - omega]]))


def randomized_response(epsilon: float) -> Kernel:
    """Binary randomized response at privacy level epsilon: BSC(1/(1+e^eps))."""
    if epsilon < 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon!r}")
    return bsc(1.0 / (1.0 + np.exp(epsilon)))


def k_rr(epsilon: float, k: int) -> Kernel:
    """k-ary randomized response: keeps the input with odds e^eps : 1 per alternative."""
    if k < 2:
        raise DomainError(f"k-ary randomized response needs k >= 2, got {k}")
    if epsilon < 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon!r}")
    e = float(np.exp(epsilon))
    off = 1.0 / (k - 1 + e)
    rows = np.full((k, k), off)
    np.fill_diagonal(rows, e * off)
    return Kernel(rows)


def _check_cap(size: int, n: int, what: str) -> None:
    # size^n >= 2^n > the cap once n passes the cap's bit length; the count
    # is then left unbuilt, since printing it could take millions of digits.
    cap = DEFAULT_STATE_CAP
    total = size**n if size < 2 or n <= cap.bit_length() else None
    if total is None or total > cap:
        count = f"{size}^{n}" if total is None else f"{total} ({size}^{n})"
        raise CapacityError(f"{what} would have {count} states, exceeding the cap {cap}")


def tensor_power(k: Kernel, n: int) -> Kernel:
    """n-fold independent application of k, entries prod_i K(z_i|x_i).

    Indices run row-major over coordinates with coordinate 1 most
    significant.
    """
    if n < 1:
        raise DomainError(f"tensor power needs n >= 1, got {n}")
    _check_cap(k.input_size, n, "tensor-power input alphabet")
    _check_cap(k.output_size, n, "tensor-power output alphabet")
    rows = k.rows
    for _ in range(n - 1):
        rows = np.kron(rows, k.rows)
    return Kernel(rows)


def product_distribution(p: Distribution, n: int) -> Distribution:
    """i.i.d. product of p over the n-fold product alphabet (same index order)."""
    if n < 1:
        raise DomainError(f"product distribution needs n >= 1, got {n}")
    _check_cap(p.alphabet_size, n, "product alphabet")
    v = p.probs
    for _ in range(n - 1):
        v = np.kron(v, p.probs)
    return Distribution(v)
