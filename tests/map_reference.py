"""Cell-by-cell reference for the ``map`` CSV.

``ampbound.cli.scan_csv`` evaluates each plane as array expressions over
blocks of x rows and formats each block in numpy.  This module keeps the
per-cell loop they replaced: one scalar closed-form call per grid cell, every
field formatted on its own.  Tests compare the two byte for byte, so a change
in the array path that moves one ulp of one cell, or a block edge that drops
or repeats a row, shows.
"""

import math

import numpy as np

from ampbound import analytic, cli


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def ratio_at(plane: str, x: float, y: float, mu: float) -> float:
    """Bound ratio at one grid cell, from scalar closed-form calls."""
    if plane == "N_vs_omegaT":
        return analytic.ratio_from_temperature(1.0, y, mu, x)
    if plane == "nbar_vs_nq":
        return analytic.ratio_from_occupation(x, y * (x + 1.0))
    if plane == "omegaT_vs_nq":
        return analytic.ratio_from_temperature(
            1.0, x, mu, y * (analytic.bose_einstein(x - mu) + 1.0))
    if plane == "nbar_vs_r":
        return analytic.ratio_from_occupation(x, float(np.sinh(y) ** 2) * (x + 1.0))
    if plane == "omegaT_vs_r":
        n_q = float(np.sinh(y) ** 2)
        return analytic.ratio_from_temperature(
            1.0, x, mu, n_q * (analytic.bose_einstein(x - mu) + 1.0))
    raise ValueError(f"unknown plane {plane!r}")


def ratio_grid(plane: str, xs: np.ndarray, ys: np.ndarray, mu: float) -> np.ndarray:
    """The bound ratio of a plane as ``map`` evaluates it, in one block."""
    return cli._ratio_rows(plane, xs, ys, mu)(0, len(xs))


def reference_csv(config) -> str:
    """The ``map`` CSV of a :class:`~ampbound.cli.ScanConfig`, one cell at a time."""
    xs, ys = config.axes()
    lines = ["x,y,log10_ratio,satisfied"]
    for x in xs:
        for y in ys:
            x, y = float(x), float(y)
            ratio = ratio_at(config.plane, x, y, config.mu)
            log10 = "" if ratio == 0.0 else _fmt(math.log10(ratio))
            lines.append(f"{_fmt(x)},{_fmt(y)},{log10},{'true' if ratio <= 1.0 else 'false'}")
    return "\n".join(lines) + "\n"
