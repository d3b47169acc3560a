"""``%.17g`` for float64 arrays, in numpy.

``fmt_array`` prints every finite double exactly as ``'%.17g' % x`` does,
for the CSV of ``ampbound map``: a 451 x 451 plane holds about 600k
numbers, and one ``%``-format each would cost most of the plane's time.  It
falls back on ``%`` itself wherever the fast path is not proven exact (see
its docstring).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["fmt_array"]

# Dekker's splitter 2**27 + 1: x = hi + lo with both halves 26 bits wide
_SPLIT = 134217729.0
# exponent reach of the printer's tables; its fast path stops at 1e+-250,
# where no product of the split overflows or underflows
_E_MAX = 260


def _words(values) -> np.ndarray:
    """Byte strings of up to 24 bytes as three little-endian uint64 words
    each, first byte lowest, shape ``(3, len(values))``."""
    packed = [int.from_bytes(v, "little") for v in values]
    return np.array([[(p >> (64 * w)) & (2**64 - 1) for p in packed] for w in range(3)],
                    np.uint64)


@functools.cache
def _tables():
    """Lookup tables of :func:`fmt_array`, built on its first call."""
    # 10**(16 - E) = hi + lo: hi correctly rounded, lo the rounded exact
    # remainder, both from integer arithmetic; hi = hh + hl is Dekker's split
    hi, lo = [], []
    for e in range(-_E_MAX, _E_MAX + 1):
        if e <= 16:
            power = 10 ** (16 - e)
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10 ** (e - 16)
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    t = _SPLIT * hi
    hh = t - (t - hi)
    groups = np.arange(10000)
    # the four ASCII digits of each group as one word, and its trailing zeros
    quads = sum((48 + groups // 10 ** (3 - j) % 10).astype(np.uint64) << np.uint64(8 * j)
                for j in range(4))
    zeros = sum((groups % 10 ** j == 0).astype(np.int64) for j in range(1, 5))
    # by dot * 18 + digits: the digit bytes kept in place, those moved one
    # byte up to make room for the '.', and the '.'; dot 0 means no dot
    keep, frac, dots = [], [], []
    for dot in range(18):
        for nd in range(18):
            if dot == 0 or nd <= dot:
                keep.append(b"\xff" * (dot or nd))
                frac.append(b"")
                dots.append(b"")
            else:
                keep.append(b"\xff" * dot)
                frac.append(b"\0" * dot + b"\xff" * (nd - dot))
                dots.append(b"\0" * dot + b".")
    heads = [sign + head for sign in (b"", b"-")
             for head in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
    prefixes = _words(heads)[0], np.array([8 * len(h) for h in heads], np.uint64)
    suffixes = np.array([b"e%+03d" % e for e in range(-_E_MAX, _E_MAX + 1)])
    return (hh, hi - hh, np.array(lo), hi), quads, zeros, (
        _words(keep), _words(frac), _words(dots)), prefixes, suffixes


def fmt_array(values) -> np.ndarray:
    """``'%.17g' % x`` of every element ``x``, byte for byte, as a bytes
    array (dtype ``S24``) of the same shape.

    For ``1e-250 <= |x| <= 1e250`` the 17 digits come from a double-double
    product: ``|x| 10**(16 - E) = p + e + |x| lo`` with ``E`` the decimal
    exponent, ``p + e`` exact by Dekker's split, and the rounding error of
    the rest below 1e-14.  Zero, the ends of the range, a remainder within
    1e-6 of one half (every exact tie) and digits that reach either end of
    ``[10**16, 10**17]`` go to ``%`` instead, so exactness never rests on
    a near tie or on the guess of ``E``.
    """
    v = np.asarray(values, dtype=np.float64)
    shape = v.shape
    v = v.ravel()
    (hh_t, hl_t, lo_t, hi_t), quads, zeros, (keep, frac, dots), \
        (prefixes, shifts), suffixes = _tables()
    a = np.abs(v)
    fast = (a >= 1e-250) & (a <= 1e250)
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    i = E + _E_MAX
    hi, hh, hl = hi_t[i], hh_t[i], hl_t[i]
    p = a * hi
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo_t[i]
    n = np.rint(r)
    fast &= np.abs(np.abs(r - n) - 0.5) > 1e-6
    D = p.astype(np.int64) + n.astype(np.int64)
    # D = 10**16 or 10**17 occurs only next to a power of ten, where the
    # guess of E may be one off and the digits round across the decade
    fast &= (D > 10**16) & (D < 10**17)
    # the 17 digits as a lead digit and four groups of four
    q = D // 10**8
    low = D - q * 10**8
    top = q // 10**4
    lead = top // 10**4
    g1, g2 = top - lead * 10**4, q - top * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    # trailing zeros; a group counts only behind groups of 0000 (round numbers)
    tz = zeros[g4]
    for run, g in ((4, g3), (8, g2), (12, g1)):
        ends = np.flatnonzero(tz == run)
        tz[ends] += zeros[g[ends]]
    # byte j of the three words is digit j
    words = np.empty((3, len(v)), np.uint64)
    words[0] = (lead.astype(np.uint64) + 48) | quads[g1] << 8 | quads[g2] << 40
    words[1] = quads[g2] >> 24 | quads[g3] << 8 | quads[g4] << 40
    words[2] = quads[g4] >> 24
    # %g: fixed notation for -4 <= E < 17, else d.ddd plus an exponent
    fixed = (E >= -4) & (E < 17)
    small = fixed & (E < 0)
    key = np.where(fixed, np.maximum(E + 1, 0), 1) * 18 + 17 - tz
    moved = words & np.take(frac, key, axis=1)
    body = (words & np.take(keep, key, axis=1)) | moved << 8 | np.take(dots, key, axis=1)
    body[1:] |= moved[:-1] >> 56
    # the sign and, below 1, "0." and its zeros go in front; numpy shifts
    # by 64 bits give 0
    k = np.where(small, -E, 0) + 5 * (v < 0)
    shift = shifts[k]
    text = body << shift
    text[1:] |= body[:-1] >> (64 - shift)
    text[0] |= prefixes[k]
    out = np.ascontiguousarray(text.T, dtype="<u8").view("S24").ravel()
    exp = fast & ~fixed
    if exp.any():
        out[exp] = np.strings.add(out[exp], suffixes[E[exp] + _E_MAX])
    for j in np.flatnonzero(~fast).tolist():
        out[j] = b"%.17g" % v[j]
    return out.reshape(shape)
