"""Markov kernels (mechanisms) as row-stochastic matrices.

A kernel maps each input symbol x to a distribution K(.|x) over the
output alphabet; pushing a distribution through it is the vector-matrix
product. Product alphabets are flattened row-major with the first
coordinate most significant, so tensor powers are iterated Kronecker
products and CSV output is reproducible bit-for-bit. numpy is imported
inside the functions that build arrays, so text that does not parse as
rows is refused before it loads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CapacityError, DimensionError, DomainError, at_least, count, in_alphabet, in_unit_interval,
    within_cap,
)

if TYPE_CHECKING:
    import numpy as np

    from .dist import Distribution

# Tensor powers refuse to materialize more states than this.
DEFAULT_STATE_CAP = 4096
# The most characters of a rejected entry or token that an error line echoes.
ECHO_CAP = 40


@dataclass(frozen=True, eq=False)
class Kernel:
    """Row-stochastic matrix, row x = the output distribution K(.|x).

    Each row is kept by :func:`ldpkit.dist.probability_array`, so
    ``row(x)`` returns the stored row bit for bit.
    """

    rows: np.ndarray
    _scans = None  # {gamma: (eta_gamma, witness pair)} of the scans read: see ldpkit.ldp._scan

    def __post_init__(self):
        from .dist import probability_array

        rows = probability_array(self.rows, 2, "kernel", per_row=True)
        object.__setattr__(self, "rows", rows)

    @property
    def input_size(self) -> int:
        return int(self.rows.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.rows.shape[1])

    def row(self, x: int) -> Distribution:
        from .dist import Distribution

        return Distribution(self.rows[in_alphabet("input symbol", x, self.input_size)])

    @classmethod
    def identity(cls, size: int) -> "Kernel":
        import numpy as np

        return cls(np.eye(count("alphabet size", size, 1)))


def _excerpt(text: str) -> str:
    """``text``, or its first ECHO_CAP characters and its length when longer."""
    return text if len(text) <= ECHO_CAP else f"{text[:ECHO_CAP]}... ({len(text)} characters)"


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:  # float's own message would echo the whole token
        raise DomainError(
            f"malformed kernel file: could not convert string to float: {_excerpt(repr(token))}"
        ) from None


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel from JSON {"rows": [[...], ...]} or CSV (one row per line).

    Text that is neither raises DomainError, never a bare parse error.
    Text that starts with ``{`` or ``[`` is JSON, which must be an object
    whose "rows" is a list of lists of numbers: booleans and strings are
    rejected.
    """
    stripped = text.strip()
    try:
        if stripped.startswith(("{", "[")):
            payload = json.loads(stripped)
            if not isinstance(payload, dict):
                raise DomainError(
                    'malformed kernel file: kernel JSON must be an object with a "rows" field'
                )
            if "rows" not in payload:
                raise DomainError('kernel JSON must contain a "rows" field')
            rows = payload["rows"]
            if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
                raise DomainError('malformed kernel file: "rows" must be a list of lists')
            # bool is a subclass of int, so compare exact types.
            bad = [v for row in rows for v in row if type(v) not in (int, float)]
            if bad:
                raise DomainError(
                    f"malformed kernel file: entry {_excerpt(json.dumps(bad[0]))} is not a number"
                )
        else:
            rows = [
                [_number(tok) for tok in line.split(",") if tok.strip()]
                for line in stripped.splitlines()
                if line.strip()
            ]
        if not rows:
            raise DomainError("kernel file contains no rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DimensionError("kernel rows have inconsistent lengths")
        import numpy as np  # only once the text is rows

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


def bsc(omega: float) -> Kernel:
    """Binary symmetric channel with crossover probability omega."""
    in_unit_interval("crossover probability", omega)
    return Kernel([[1.0 - omega, omega], [omega, 1.0 - omega]])


def randomized_response(epsilon: float) -> Kernel:
    """Binary randomized response, ``k_rr(epsilon, 2)``: BSC(1/(1+e^eps)) up to rounding."""
    return k_rr(epsilon, 2)


def k_rr(epsilon: float, k: int) -> Kernel:
    """k-ary randomized response: keeps the input with odds e^eps : 1 per alternative,
    e^eps from ``math.exp`` as audits take gamma, so the identity where it is infinite."""
    import numpy as np

    k = count("k", k, 2)
    at_least("epsilon", epsilon, 0)
    try:
        e = math.exp(epsilon)
    except OverflowError:  # epsilon > 709.78
        e = math.inf
    if e == math.inf:  # the diagonal below would be inf * 0
        return Kernel.identity(k)
    off = 1.0 / (k - 1 + e)
    rows = np.full((k, k), off)
    np.fill_diagonal(rows, e * off)
    return Kernel(rows)


def _check_cap(size: int, n: int, what: str) -> None:
    # size^n >= 2^n > the cap once n passes the cap's bit length; the count
    # is then left unbuilt, since printing it could take millions of digits.
    name, cap = f"{what} states", DEFAULT_STATE_CAP
    if size >= 2 and n > cap.bit_length():
        raise CapacityError(f"{name} = {size}^{n} is over the cap {cap}")
    within_cap(name, size**n, cap)


def tensor_power(k: Kernel, n: int) -> Kernel:
    """n-fold independent application of k, entries prod_i K(z_i|x_i).

    Indices run row-major over coordinates with coordinate 1 most
    significant.
    """
    import numpy as np

    n = count("tensor power n", n, 1)
    _check_cap(k.input_size, n, "tensor-power input alphabet")
    _check_cap(k.output_size, n, "tensor-power output alphabet")
    rows = k.rows
    for _ in range(n - 1):
        rows = np.kron(rows, k.rows)
    return Kernel(rows)
