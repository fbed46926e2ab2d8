"""Exact repr text for whole float64 arrays.

``texts(x)`` returns each element's ``repr(v)`` as ASCII bytes: the
shortest digits that read back as v, Python's own rule (and json's).
orjson writes those digits for the whole array in one call (Ryu; Adams,
PLDI 2018); only its layout differs from repr's, and only by the decimal
exponent E of v's shortest digits:

* E in -9 .. -6: orjson writes one exponent digit (1.5e-7), repr two
  (1.5e-07);
* E = -5: orjson writes fixed notation (0.000015), repr 1.5e-05;
* E >= 16, or v not finite: orjson writes 1e16 or null, repr 1e+16, inf
  or nan.

Each band starts at a power of ten, so numpy finds it from |v| alone;
every other element, 0 and subnormals included, is orjson's text as is.
"""

from __future__ import annotations

import numpy as np
import orjson


def texts(x: np.ndarray) -> list[bytes]:
    """repr(v) of each element of the float64 array x, in x's flat order,
    as ASCII bytes."""
    flat = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if not flat.size:
        return []
    out = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    size = np.abs(flat)
    for i in np.flatnonzero((size >= 1e-9) & (size < 1e-5)).tolist():
        out[i] = out[i].replace(b"e-", b"e-0")
    for i in np.flatnonzero((size >= 1e-5) & (size < 1e-4)).tolist():
        sign, _, digits = out[i].partition(b"0.0000")
        out[i] = sign + digits[:1] + (b"." + digits[1:] if digits[1:] else b"") + b"e-05"
    for i in np.flatnonzero(~(size < 1e16)).tolist():  # nan too
        out[i] = repr(float(flat[i])).encode()
    return out
