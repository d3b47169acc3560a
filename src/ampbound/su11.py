"""Pair-ladder weights of a vacuum system amplified against one number state.

The pair-creating interaction is generated by ``K_plus = s* e*``,
``K_minus = s e`` and ``K_zero = (s* s + e e*)/2``, which close the su(1,1)
algebra.  The two-mode squeeze unitary ``exp(z* K- - z K+)`` with
``z = r e^{i theta}`` factorizes (Baker-Campbell-Hausdorff) into

    exp(-e^{i theta} tanh(r) K+) . exp(-2 ln cosh(r) K0) . exp(e^{-i theta} tanh(r) K-)

With the system mode in the vacuum the lowering factor acts trivially, so the
number state ``|0, m>`` of the environment evolves onto the single pair
ladder ``|l, m + l>``, ``l = 0, 1, ...``, with amplitudes of modulus

    tanh(r)^l sqrt(C(m+l, l)) / cosh(r)^(m+1).

The squeeze phase and any later mode rotations only multiply these
amplitudes by phases.  The Fock oracle's reductions depend on their squared
moduli alone, the ladder weights ``C(m+l, l) tanh(r)^(2l) / cosh(r)^(2(m+1))``
of a negative-binomial distribution in ``l``, which :func:`ladder_tiles`
evaluates one cache-sized tile at a time in Loader's saddle-point form of
the binomial probability (C. Loader, "Fast and Accurate Computation of
Binomial Probabilities", 2000): a Stirling-series remainder and a deviance
that is small where the mass is, so no large logarithms cancel.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import analytic

__all__ = ["ladder_tiles"]

# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15, correctly
# rounded (Loader's table); entry 0 is never used
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
# the Stirling series 1/(12n) - 1/(360n^3) + ..., five terms, for n > 15
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

CHUNK_ENTRIES = 2**15   # weights per tile: it and three scratch tiles stay in a core's cache
# below this log a weight is flushed to 0: exp takes a slow path, 5 to 100
# times slower, for results that underflow, and most far-tail rungs do
_LOG_TINY = np.log(np.finfo(float).tiny)


def _stirlerr_half_log(top: int) -> np.ndarray:
    """``stirlerr(n) - ln(n)/2`` for ``n = 0..top``; entry 0 is unused."""
    n = np.arange(top + 1, dtype=float)
    k = _STIRLERR_SMALL.size
    inv_sq = 1.0 / np.square(n[k:])
    series = (((_S4 * inv_sq - _S3) * inv_sq + _S2) * inv_sq - _S1) * inv_sq + _S0
    out = np.concatenate([_STIRLERR_SMALL[:top + 1], series / n[k:]])
    out[1:] -= 0.5 * np.log(n[1:])
    return out


def ladder_tiles(r: float, sectors: np.ndarray, max_squeeze: int):
    """Squared ladder moduli ``C(m+l, l) tanh(r)^(2l) / cosh(r)^(2(m+1))``, tile by tile.

    Yields ``(rows, first_rung, w)``: ``w[i, j]`` is the weight of the
    sector ``m = rows[i]`` on the rung ``l = first_rung + j``.  ``sectors``
    are nondecreasing environment occupations and the rungs run over
    ``0..max_squeeze``.  A tile holds at most ``CHUNK_ENTRIES`` weights:
    whole rows of consecutive sectors, or consecutive rungs of one sector
    when a row is longer.  Tiles come in sector order, then rung order, and
    ``w`` is a buffer that the next tile overwrites.

    With ``x = m + 1``, ``n = x + l``, ``p = 1/cosh(r)^2`` and
    ``q = tanh(r)^2`` the weight is the negative-binomial probability
    ``(x/n) dbinom(x; n, p)``, ``p^x`` on the first rung and, above it,
    Loader's saddle-point form

        exp(stirlerr(n) - stirlerr(x) - stirlerr(l) - D) sqrt(x / (2 pi n l))

    with the deviance ``D = x ln(1 + d/(n p)) + l ln(1 - d/(n q))`` of the
    one difference ``d = q x - p l = x - n p``.  Both logarithms take the
    same rounded ``d``, so their first-order errors cancel and ``D`` is off
    by about ``eps |d|``: each weight is good to a few 1e-14 relative at any
    ``r``, where differences of log-factorials near ``ln (m+l)!`` would lose
    ``eps ln (m+l)!``.  ``stirlerr`` is tabulated once, over ``0..m+l+1``.
    When ``tanh(r)^2`` rounds to 0 or to a subnormal (``r`` below about
    1.5e-154, ``r = 0`` included) every sector stays on its first rung: the
    rungs above it weigh less than the smallest normal double.  Any other
    weight above the first rung that falls below that double is 0.
    """
    n_q = analytic.pair_occupation(r)
    p, q = 1.0 / (1.0 + n_q), n_q / (1.0 + n_q)
    width = max_squeeze + 1
    lead = _stirlerr_half_log(int(sectors[-1]) + width)
    # row m of the windows holds n = m + 1 + l for the rungs l = 0..max_squeeze
    windows = sliding_window_view(lead[1:], width)
    ell = np.arange(1, width, dtype=float)
    lead_l = lead[1:width] + np.log(ell) + _HALF_LOG_2PI
    p_l, minus_q_l = p * ell, -q * ell
    rows, cols = max(1, CHUNK_ENTRIES // width), min(width, CHUNK_ENTRIES)
    buffers = np.empty((4, min(rows, sectors.size) * cols))
    for first in range(0, sectors.size, rows):
        m = sectors[first:first + rows]
        xm = m[:, None] + 1.0
        for c in range(0, width, cols):
            e = min(c + cols, width)
            w = buffers[0, :m.size * (e - c)].reshape(m.size, e - c)
            w.fill(0.0)
            if c == 0:
                np.exp(-np.log1p(n_q) * xm, out=w[:, :1])
            a = max(c, 1)   # the first rung above rung 0
            if q >= np.finfo(float).tiny and a < e:
                log_w, d, term = (b[:m.size * (e - a)].reshape(m.size, e - a)
                                  for b in buffers[1:])
                log_w[...] = windows[m, a:e]
                log_w -= lead[m + 1][:, None]
                log_w -= lead_l[a - 1:e - 1]
                np.subtract(q * xm, p_l[a - 1:e - 1], out=d)
                np.add(p * xm, p_l[a - 1:e - 1], out=term)        # n p
                np.divide(d, term, out=term)
                np.log1p(term, out=term)
                term *= xm
                log_w -= term
                np.add(-q * xm, minus_q_l[a - 1:e - 1], out=term)  # -n q
                np.divide(d, term, out=term)
                np.log1p(term, out=term)
                term *= ell[a - 1:e - 1]
                log_w -= term
                np.exp(log_w, out=w[:, a - c:], where=log_w > _LOG_TINY)
            yield m, c, w
