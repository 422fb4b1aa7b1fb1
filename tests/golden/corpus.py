"""The argv corpus: each line of argv.txt run through ``ldpkit.cli.main`` and
its record in records.json.

An argv runs in-process, in a fresh directory holding a copy of each file
of fixtures/ that it names, with $LDPKIT_OUT_DIR unset and COLUMNS=80 (the
width argparse wraps help to), and a RuntimeWarning raises. Its record is
the exit code, stdout, stderr and every file or directory the run made or
changed, with the run directory replaced by ``<TMP>``; a text longer than LARGE
characters is kept as its sha256.

``same`` compares a run with its record. Where the platform is the
record's, the bytes must be equal. Elsewhere numpy may round a vectorized
result differently in the last bits, so the text outside numbers must be
equal and each number within ULP_BUDGET units in the last place.

    python tests/golden/corpus.py

rewrites records.json from the ldpkit that Python imports, and prints to
stderr where that ldpkit is and the ids whose records changed, were added
or were dropped. A change that moves bytes commits the new records and
names the moved argvs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform as _platform
import re
import shlex
import shutil
import struct
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
RECORDS = HERE / "records.json"
TMP_TOKEN = "<TMP>"
LARGE = 1 << 14
# About 1.5e-11 relative: 64 times the largest move seen when numpy 2.4.6
# dispatches to AVX2 instead of AVX-512 (1024 ulps), and far below the
# 2.4e-7 that the smallest value move planned so far (ROADMAP item 3) makes.
ULP_BUDGET = 1 << 16
# A decimal number, or a JSON or Python spelling of a non-finite one.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:Infinity|NaN|inf|nan))")


class Entry(NamedTuple):
    id: str
    argv: tuple[str, ...]
    note: str


def entries() -> list[Entry]:
    """argv.txt: one entry a line, its id then its argv in shell words, then
    an optional note after ``" # "``."""
    found = []
    for line in (HERE / "argv.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            words, _, note = line.partition(" # ")
            id_, *argv = shlex.split(words)
            found.append(Entry(id_, tuple(argv), note.strip()))
    return found


def platform() -> dict:
    """What decides the last bits of a number: numpy's version, the CPU
    features it dispatches to, and the C library (``math.exp`` and ``log``)."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    cpu = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {"numpy": np.__version__, "cpu": cpu, "libc": " ".join(_platform.libc_ver())}


@contextlib.contextmanager
def _isolated(where: Path):
    saved = {k: os.environ.get(k) for k in ("LDPKIT_OUT_DIR", "COLUMNS")}
    cwd = os.getcwd()
    os.environ.pop("LDPKIT_OUT_DIR", None)
    os.environ["COLUMNS"] = "80"
    os.chdir(where)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield
    finally:
        os.chdir(cwd)
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _files(where: Path) -> dict[str, bytes]:
    """Each file under ``where`` with its bytes, and each directory as "name/"."""
    found = {}
    for p in sorted(where.rglob("*")):
        name = p.relative_to(where).as_posix()
        if p.is_dir():
            found[name + "/"] = b""
        else:
            found[name] = p.read_bytes()
    return found


def run(argv, where: Path) -> dict:
    """The record of one run of ``argv`` in the empty directory ``where``."""
    from ldpkit.cli import main

    for name in set(argv) & {p.name for p in FIXTURES.iterdir()}:
        shutil.copyfile(FIXTURES / name, where / name)
    before = _files(where)
    out, err = io.StringIO(), io.StringIO()
    with _isolated(where), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --version and --help
            code = exc.code

    def text(s: str):
        for path in {str(where), str(where.resolve())}:
            s = s.replace(path, TMP_TOKEN)
        return s if len(s) <= LARGE else {"sha256": hashlib.sha256(s.encode()).hexdigest()}

    written = {k: v for k, v in _files(where).items() if before.get(k) != v}
    return {"argv": list(argv), "exit": code, "stdout": text(out.getvalue()),
            "stderr": text(err.getvalue()),
            "files": {k: text(v.decode()) for k, v in written.items()}}


def _ordinal(x: float) -> int:
    # float64 bits as an integer that is monotone in x, so that adjacent
    # doubles are one apart and -0.0 and 0.0 are the same point
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _ulps(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(_ordinal(x) - _ordinal(y))


def _close(a, b, ulps: int) -> bool:
    if not (isinstance(a, str) and isinstance(b, str)):
        return a == b  # a text kept as its sha256
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)  # text, number, text, ..., text
    return len(pa) == len(pb) and all(
        x == y if i % 2 == 0 else _ulps(x, y) <= ulps for i, (x, y) in enumerate(zip(pa, pb))
    )


def same(expected: dict, actual: dict, ulps: int) -> bool:
    """Whether the run ``actual`` matches the record ``expected``: equal, or,
    for ulps > 0, equal up to each number moving by at most ``ulps``."""
    if expected == actual:
        return True

    def texts(r):
        return [r["stdout"], r["stderr"], *(r["files"][k] for k in sorted(r["files"]))]

    return (
        ulps > 0
        and (expected["argv"], expected["exit"]) == (actual["argv"], actual["exit"])
        and expected["files"].keys() == actual["files"].keys()
        and all(_close(a, b, ulps) for a, b in zip(texts(expected), texts(actual)))
    )


def load() -> dict:
    return json.loads(RECORDS.read_text())


def main() -> None:
    import ldpkit

    old = load()["records"] if RECORDS.exists() else {}
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, entry in enumerate(entries()):
            where = Path(tmp) / str(i)
            where.mkdir()
            records[entry.id] = run(entry.argv, where)
    payload = {"platform": platform(), "records": records}
    RECORDS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {RECORDS}", file=sys.stderr)
    print(f"recorded from ldpkit at {Path(ldpkit.__file__).parent}", file=sys.stderr)
    moved = {
        "changed": [i for i in records if i in old and old[i] != records[i]],
        "added": [i for i in records if i not in old],
        "dropped": [i for i in old if i not in records],
    }
    for what, ids in moved.items():
        print(f"{what}: {' '.join(ids) or '(none)'}", file=sys.stderr)


if __name__ == "__main__":
    main()
