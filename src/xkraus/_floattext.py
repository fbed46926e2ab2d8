"""Exact repr text for whole float64 arrays.

``texts(x)`` returns each element's ``repr(v)`` as ASCII bytes: the
shortest digits that read back as v, Python's own rule (and json's),
computed with numpy for the whole array at once, in the spirit of Ryu's
certified shortest output (Adams, PLDI 2018).  Any element the fast path
below cannot certify gets Python's own text, so the result equals the
per-element ``repr(v)`` byte for byte.

|v| = m * 2**e (m the 53-bit significand) is scaled to S = |v| * 10**p in
[1e16, 1e17), so its 17 significant digits are the integer part of S.
10**p is a double-double hi + lo, hi * |v| is split exactly into s + t by
Dekker's product (numpy has no fma), and S is held as an integer I (int64)
and a fraction f in [0, 1).  In units of the 17th digit:

* for 0 <= p <= 21, 10**p is a double (lo = 0), so I + f = S exactly, the
  half gap h = 10**p * 2**(e - 1) is exact, and so are S - h and S + h:
  all are multiples of 2**(e + p - 1) below 16, and S >= 1e16 gives
  e + p >= -48.  Every comparison below is then exact.
* for the other p in (_P_MIN, _P_MAX), |I + f - S| <= 2**-47.7 (the
  rounding of lo * |v| and of t + lo * |v|, and lo's own error of
  2**-106 * 10**p), h is off by at most 2**-49.5, and S - h and S + h by
  one more rounding, 2**-50: each computed position is within 2**-47 of
  the exact one.  A comparison is certified only where the computed
  values differ by more than _ERR = 2**-44 (twice that for the doubled
  distances of the rounding step), so it decides as the exact one would.

The round-trip interval is S -+ h, inclusive where m is even.  The
shortest output is the largest power u = 10**j with a multiple of u in
it, and of those multiples the closest to S wins; the interval is
symmetric, so that is the multiple of u nearest S.

The digits are then laid out as repr does: fixed notation, with at least
".0", from 1e-4 up to below 1e16, otherwise d.ddde+XX with at least two
exponent digits.  Python's own text is used for 0 and -0, non-finite and
subnormal values, magnitudes outside the scaled range (10**-_P_MAX up to
10**-_P_MIN), powers of two (the gap below is half the gap above), exact
rounding ties, and every comparison within its margin.  Every element
left out computes on 1.0, so no numpy warning is raised.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# repr's scaled range: 10**p as double-doubles, with |v| and 10**p below
# 2**997, so that their Dekker splits stay finite
_P_MIN, _P_MAX = -283, 299
_ERR = 2.0**-44
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_WIDTH = 24  # the longest text: -1.2345678901234567e-308
# the ASCII digits of 0000 .. 9999, 4 bytes at a time
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).view("<u4").ravel()
# what a text is laid out from: its point, its 17 digits, then these bytes
_TAIL = np.frombuffer(b"0.-\x00", dtype="<u4")[0]
_ZERO, _POINT, _MINUS, _PAD = range(20, 24)
# the bytes of a quad that show n of its digits, at n + 16 for n in -16 .. 21
_SHOWN = np.array([0] * 16 + [(1 << 8 * n) - 1 for n in range(4)] + [0xFFFFFFFF] * 18, dtype="<u4")


@cache
def _powers() -> np.ndarray:
    """Rows hi, lo, hi's two Dekker halves and the certification margin (0
    where the scaling is exact), one column per p from _P_MIN, with
    hi + lo = 10**p to within 2**-106 relative."""
    cols = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den  # int true division rounds correctly
        n, d = hi.as_integer_ratio()
        top = 134217729.0 * hi  # 2**27 + 1
        top -= top - hi
        cols.append((hi, (num * d - n * den) / (den * d), top, hi - top, 0.0 if 0 <= p <= 21 else _ERR))
    return np.array(cols).T.copy()


def _scale(ax: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """s, c with s + c = ax * 10**p (see the module docstring), 10**p's hi
    and the certification margin."""
    hi, lo, bh, bl, err = (row.take(p - _P_MIN) for row in _powers())
    s = ax * hi
    ah = 134217729.0 * ax
    ah -= ah - ax
    c = ah * bh
    c -= s
    c += ah * bl
    ah -= ax  # now -al
    c -= ah * bh
    c -= ah * bl
    c += ax * lo
    return s, c, hi, err


def _trailing_zeros(n: np.ndarray) -> np.ndarray:
    """The number of trailing decimal zeros of each positive int64."""
    zeros = np.zeros(n.shape, dtype=np.int64)
    at = np.arange(n.size)
    while at.size:
        tens = n % 10 == 0
        at, n = at[tens], n[tens] // 10
        zeros[at] += 1
    return zeros


def _digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each element's 17 digits D, an int64 in [1e16, 1e17) with trailing
    zeros, its decimal exponent E (v ~ D * 10**(E - 16)), its number of
    significant digits, and whether the fast path certified them; only
    finite nonzero elements are certified, and the others read as 1."""
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    ok = (biased > 0) & (biased < 0x7FF)
    ok &= (bits & ((1 << 52) - 1)) != 0  # a power of two has a narrower gap below
    ax = np.abs(x)
    ax[~ok] = 1.0
    p = 16 - np.floor(np.log10(ax)).astype(np.int64)  # the leading digit's place, or one off
    ok &= (p > _P_MIN) & (p < _P_MAX)  # room for the correction below
    ax[~ok] = 1.0
    p[~ok] = 16
    biased[~ok] = 1023
    s, c, hi, err = _scale(ax, p)
    # log10 may be one off next to a power of 10: rescale those elements
    off = np.flatnonzero((s < 1e16) | (s >= 1e17))
    if off.size:
        p[off] += np.where(s[off] < 1e16, 1, -1)
        s[off], c[off], hi[off], err[off] = _scale(ax[off], p[off])
    del ax
    # S = big + f (the arrays are reused in place, and dropped once read,
    # to keep the working set small)
    big = np.floor(c)
    f = c - big
    big = big.astype(np.int64)
    big += s.astype(np.int64)
    del s, c
    ok &= (big >= _POW10[16]) & (big < _POW10[17])
    hi *= ((biased - 53) << 52).view(np.float64)  # now the half gap, ulp/2 * 10**p
    del biased
    odd = (bits & 1) == 1
    # the interval's ends S -+ h as whole parts (first, last) and fractions
    low = f - hi
    first = np.floor(low)
    low -= first
    high = f + hi
    last = np.floor(high)
    high -= last
    del hi
    ok &= (np.minimum(np.minimum(low, 1 - low), np.minimum(high, 1 - high)) > err) | (err == 0)
    # the integers in the interval, [first, last]: endpoints only where m is even
    first = first.astype(np.int64)
    first += big
    first += (low > 0) | odd
    last = last.astype(np.int64)
    last += big
    last -= (high == 0) & odd
    del low, high, odd
    # the largest j with a multiple of 10**j in it: the interval is
    # narrower than 23, so a multiple of 100 in it is its only one
    j = (-(-first // 10) * 10 <= last).astype(np.int64)
    first = -(-first // 100)  # now the first multiple of 100, in hundreds
    at = np.flatnonzero((first * 100 <= last) & ok)
    j[at] = 2 + _trailing_zeros(first[at])
    del first, last, at
    unit = _POW10[j]
    q = big // unit
    # twice the distance of S above the middle between q * unit and the next multiple
    big -= q * unit
    big *= 2
    big -= unit
    g = big + 2 * f
    del big, f
    q += g > 0
    ok &= np.abs(g) > 2 * err
    del g, err
    q *= unit
    q[~ok] = _POW10[16]
    carry = q == _POW10[17]
    q[carry] = _POW10[16]
    count = 17 - j
    count[carry | ~ok] = 1
    p -= carry
    return q, 16 - p, count, ok


@cache
def _layout(exp: int | None, negative: bool) -> np.ndarray:
    """Where each byte of a text comes from, in fixed notation at exponent
    exp or, for None, the mantissa in exponent notation: byte 2 is the
    cell's point (or NUL), byte 3 + i its digit i (NUL past those shown),
    the tail's bytes follow."""
    out = [_MINUS] if negative else []
    if exp is None:
        out += [3, 2, *range(4, 20)]
    elif exp >= 0:
        out += [*range(3, exp + 4), 2, *range(exp + 4, 20)]
    else:
        out += [_ZERO, _POINT, *[_ZERO] * (-exp - 1), *range(3, 20)]
    return np.array(out + [_PAD] * (_WIDTH - len(out)))


def texts(x: np.ndarray) -> np.ndarray:
    """repr(v) of each element of the float64 array x, as an array of x's
    shape of ASCII bytes (numpy "S24")."""
    flat = np.ascontiguousarray(x, dtype=np.float64).ravel()
    digits, exp, count, ok = _digits(flat)
    # show the significant digits, a fixed-point number's whole part and
    # ".0"; a point where digits follow it, and always in fixed notation
    sci = (exp < -4) | (exp >= 16)
    lead = exp + 1  # digits before the point
    lead[sci] = 1
    shown = np.maximum(count, lead + ~sci)
    del count
    # 3 leading bytes (byte 2 becomes the point), D's 17 digits (NUL past
    # those shown) and the tail, 4 bytes at a time
    quads = np.zeros((flat.size, 6), dtype="<u4")
    quads[:, 0] = _QUADS[digits // _POW10[16]]
    for k in range(1, 5):
        quads[:, k] = _QUADS[digits // _POW10[16 - 4 * k] % 10000] & _SHOWN.take(shown + (19 - 4 * k))
    quads[:, 5] = _TAIL
    del digits
    chars = quads.view(np.uint8)
    chars[:, 2] = 46 * (shown > lead)  # the point
    del lead
    # in exponent notation, e, the sign and two or three digits follow the mantissa
    at = np.flatnonzero(sci & ok)
    e = exp[at]
    start = at * _WIDTH + (flat[at] < 0) + shown[at] + (shown[at] > 1)
    del shown
    # one layout per exponent in fixed notation, one for exponent notation, by sign
    key = exp
    key += 5
    key[sci] = 0
    key *= 2
    key += flat < 0
    del sci
    out = np.empty((flat.size, _WIDTH), dtype=np.uint8)
    for k in np.flatnonzero(np.bincount(key)).tolist():
        at = np.flatnonzero(key == k)
        out[at] = chars[at][:, _layout(k // 2 - 5 if k > 1 else None, bool(k % 2))]
    del key, quads, chars
    size = np.abs(e)
    three = size >= 100
    out = out.ravel()
    out[start] = ord("e")
    out[start + 1] = np.where(e < 0, ord("-"), ord("+"))
    out[start + 2] = 48 + np.where(three, size // 100, size // 10)
    out[start + 3] = 48 + np.where(three, size // 10 % 10, size % 10)
    out[start + 4] = (48 + size % 10) * three
    out = out.view(f"S{_WIDTH}")
    # Python's own text for the rest, once for each of 0 and -0
    zero = flat == 0
    minus = np.signbit(flat)
    out[zero & ~minus] = b"0.0"
    out[zero & minus] = b"-0.0"
    rest_at = np.flatnonzero(~(ok | zero))
    out[rest_at] = [repr(v).encode() for v in flat[rest_at].tolist()]
    return out.reshape(np.shape(x))
