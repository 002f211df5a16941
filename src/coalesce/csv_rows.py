"""The data rows of a CSV document with array columns, a block at a time.

:func:`render` writes each positive float cell, the bytes of "%.11e",
straight into its block's row buffer.  With e = floor(log10 v), y = v *
10**(11 - e) in [1e11, 1e12] takes one rounding for |11 - e| <= 22, so
rint(y) is the correctly rounded 12 digits unless y is a half-integer (a
tie): rounding is monotone and every half-integer below 1e12 is a float.
Ties, round-ups to 1e12, values not positive and finite, exponents past
the exact powers and other columns' cells are formatted by ``fmt``.
"""

from __future__ import annotations

import math

__all__ = ["render"]

# numpy and the tables, bound by _load() on the first render
np = _BOUND = _MUL = _DIV = _TAIL = _DIGITS = _HEAD = None


def _load():
    """Import numpy and build the tables into the names above, once.

    e0 = floor(p log10 2) of the binary exponent p is e or e - 1; v >=
    _BOUND[field], the least float >= 10**(e0 + 1), picks e.  By index
    2 * field + that bit: 10**(11 - e) in _MUL (nan if inexact) or _DIV.
    """
    global np, _BOUND, _MUL, _DIV, _TAIL, _DIGITS, _HEAD
    if np is not None:
        return
    import numpy as np

    def ceil_pow10(k):                           # the least float >= 10**k
        n, d = (c := float(f"1e{k}")).as_integer_ratio()
        up = n * 10 ** max(-k, 0) < d * 10 ** max(k, 0)
        return math.nextafter(c, math.inf) if up else c

    e0 = np.floor((np.arange(2048) - 1023) * math.log10(2.0)).astype(int)
    _BOUND = np.array([ceil_pow10(k) if -11 <= k <= 34 else math.nan
                       for k in (e0 + 1).tolist()])
    e = (e0[:, None] + (0, 1)).ravel()
    exact = (-11 <= e) & (e <= 33)
    shift = np.where(exact, 11 - e, 0)
    pow10 = np.array([float(10 ** k) for k in range(23)])    # no rounding
    _MUL = np.where(exact, pow10[np.maximum(shift, 0)], math.nan)
    _DIV = pow10[np.maximum(-shift, 0)]
    _TAIL = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-11, 34)),
                          "<u4")[np.where(exact, e + 11, 0)]
    digits = (np.arange(10000)[:, None] // (1000, 100, 10, 1) % 10
              + ord("0")).astype(np.uint8)
    _DIGITS = digits.view("<u4")[:, 0].astype(np.uint64)
    _HEAD = np.insert(digits, [1, 4, 4, 4], (ord("."), 0, 0, 0),
                      axis=1).view("<u8")[:, 0]


def _column(values, rows, fmt):
    """(width, mask or None, stores, fallback rows, their cells) in a block."""
    length, end = len(values), np.zeros(rows, int)
    floats = (values.dtype == "float64" if hasattr(values, "dtype")
              else all(isinstance(v, float) for v in values))
    x = np.asarray(values, float) if floats else np.full(length, math.nan)
    a = np.abs(x)
    i = a.view(np.int64) >> 52
    with np.errstate(invalid="ignore"):          # a signalling nan
        i = (i << 1) | (a >= _BOUND.take(i))
        y = a * _MUL.take(i) / _DIV.take(i)     # one of the two is 1
        n = np.rint(y)
        slow = np.flatnonzero(~((np.abs(y - n) < 0.5) & (x > 0.0)
                                & (y < 999999999999.5)))
    n[slow] = 1e11
    u = n.astype(np.int64).view(np.uint64)       # 12 digits, 4 per entry
    top = u // 10 ** 8
    u -= top * 10 ** 8
    mid = u // 10 ** 4
    u -= mid * 10 ** 4
    words = ((0, _HEAD.take(top.view(np.int64))),
             (5, _DIGITS.take(mid.view(np.int64))
              | _DIGITS.take(u.view(np.int64)) << 32), (13, _TAIL.take(i)))
    texts = [fmt(values[s]).encode() for s in slow.tolist()]
    end[:length] = 17
    end[slow] = [len(t) for t in texts]
    width = max(end.max(), 17)
    cells = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                          np.uint8).reshape(len(texts), width)
    keep = np.arange(width) < end[:, None] if end.min() < width else None
    return width, keep, words, slow, cells


def render(columns, fmt, block):
    """Yield the CSV data rows of `columns` as bytes, `block` rows a time.

    `columns` holds lists or arrays; a short column's missing cells are
    empty.  ``fmt`` must give "%.11e" % v for a float v.
    """
    _load()
    length = max(map(len, columns), default=0)
    for first in range(0, length, block):
        rows = min(block, length - first)
        cols = [_column(values[first:first + rows], rows, fmt)
                for values in columns]
        out = np.empty((rows, sum(col[0] + 1 for col in cols)), np.uint8)
        used, at = None, 0
        for width, keep, words, slow, cells in cols:
            for offset, word in words:           # a store in each row
                np.ndarray(word.shape, word.dtype.newbyteorder("<"), out,
                           at + offset, (out.shape[1],))[...] = word
            out[slow, at:at + width] = cells
            if keep is not None:
                used = np.ones(out.shape, bool) if used is None else used
                used[:, at:at + width] = keep
            at += width + 1
            out[:, at - 1] = ord(",")
        out[:, -1] = ord("\n")
        yield (out if used is None else out[used]).tobytes()
