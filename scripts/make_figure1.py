#!/usr/bin/env python3
"""Reproduce the Bayes-bound comparison curve on the Bernoulli-uniform model.

Sweeps epsilon, computing the mutual-information lower bound and the
hockey-stick lower bound side by side, and writes the curve as CSV (no
run manifest; `ldpkit figure1` writes the same CSV plus a manifest, from
the same `ldpkit.cli.figure1_curve`). Kept as a standalone script for
experimenting with n, delta, and the quadrature knob.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# Prefer the checkout's own package (the src/ next to scripts/) over any
# installed ldpkit, so the script runs from any working directory.
_SRC = Path(__file__).resolve().parents[1] / "src"
if (_SRC / "ldpkit").is_dir():
    sys.path.insert(0, str(_SRC))

from ldpkit.cli import figure1_curve, resolve_out, write_csv
from ldpkit.info import BernoulliUniformModel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--delta", type=float, default=1e-4)
    parser.add_argument("--eps-lo", type=float, default=0.01)
    parser.add_argument("--eps-hi", type=float, default=3.0)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--panels", type=int, default=20000)
    parser.add_argument("--out", default="figure1.csv")
    args = parser.parse_args()

    model = BernoulliUniformModel(args.n, args.panels)
    grid = np.linspace(args.eps_lo, args.eps_hi, args.steps)
    mi, rows = figure1_curve(model, args.delta, grid)
    print(f"I(Theta; X^{args.n}) = {mi:.6f} nats")
    out = resolve_out(args.out)
    write_csv(out, ["epsilon", "bayes_lb_mi", "bayes_lb_egamma"], rows)
    print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
