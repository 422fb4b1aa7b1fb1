#!/usr/bin/env python3
"""Compare the two non-private Bayes-risk lower bounds on the
uniform-Bernoulli model (one observation, absolute loss).

The gamma-optimized hockey-stick bound strictly beats the
mutual-information bound here; prints both values with their optimizer
witnesses. Same computation as `ldpkit remark` (`ldpkit.cli.remark_reports`).
"""

import sys
from pathlib import Path

# Prefer the checkout's own package (the src/ next to scripts/) over any
# installed ldpkit, so the script runs from any working directory.
_SRC = Path(__file__).resolve().parents[1] / "src"
if (_SRC / "ldpkit").is_dir():
    sys.path.insert(0, str(_SRC))

from ldpkit.cli import remark_reports


def main():
    mi, mi_report, eg_report = remark_reports()
    print(f"I(Theta; X) = {mi:.6f} nats")
    print(f"gamma-optimized bound: {eg_report.value:.6f}  witness {eg_report.witness}")
    print(f"mutual-info bound:     {mi_report.value:.6f}  witness {mi_report.witness}")
    print(f"improvement factor: {eg_report.value / mi_report.value:.3f}")


if __name__ == "__main__":
    main()
