#!/usr/bin/env python3
"""Emit the Bernoulli-uniform model's information curves as CSV.

Writes two files: the hockey-stick information over a gamma grid for a
fixed sample size, and the mutual information as the sample size grows.
"""

import argparse
import sys
from pathlib import Path

# Prefer the checkout's own package (the src/ next to scripts/) over any
# installed ldpkit, so the script runs from any working directory.
_SRC = Path(__file__).resolve().parents[1] / "src"
if (_SRC / "ldpkit").is_dir():
    sys.path.insert(0, str(_SRC))

from ldpkit.bounds import GridSpec
from ldpkit.cli import resolve_out, write_csv
from ldpkit.errors import DomainError
from ldpkit.info import BernoulliUniformModel, bu_igamma, bu_mutual_information


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5, help="sample size for the gamma curve")
    parser.add_argument("--gamma-hi", type=float, default=None, help="default n + 1")
    parser.add_argument("--gamma-steps", type=int, default=121)
    parser.add_argument("--n-max", type=int, default=12, help="range of the growth curve")
    parser.add_argument("--panels", type=int, default=20000,
                        help="former quadrature panel count, no effect (even, >= 2)")
    parser.add_argument("--igamma-out", default="bu_igamma_curve.csv")
    parser.add_argument("--mi-out", default="bu_mi_curve.csv")
    args = parser.parse_args()
    try:
        write_curves(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def write_curves(args):
    model = BernoulliUniformModel(args.n, args.panels)
    hi = args.gamma_hi if args.gamma_hi is not None else float(args.n + 1)
    gammas = GridSpec(0.0, hi, args.gamma_steps).points()
    gamma_rows = [[float(g), float(ig)] for g, ig in zip(gammas, bu_igamma(model, gammas))]
    igamma_out = resolve_out(args.igamma_out)
    write_csv(igamma_out, ["gamma", "igamma"], gamma_rows)
    print(f"wrote {igamma_out} ({len(gamma_rows)} rows, n = {args.n})")

    mi_rows = [
        [float(n), bu_mutual_information(BernoulliUniformModel(n, args.panels))]
        for n in range(1, args.n_max + 1)
    ]
    mi_out = resolve_out(args.mi_out)
    write_csv(mi_out, ["n", "mutual_information"], mi_rows)
    print(f"wrote {mi_out} ({len(mi_rows)} rows)")


if __name__ == "__main__":
    sys.exit(main())
