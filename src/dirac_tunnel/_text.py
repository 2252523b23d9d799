"""The text of table cells: every number as ``%.17g`` writes it, most of them in bulk."""

import numpy as np


_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")  # b"0000" ... b"9999"


def _cells(values) -> np.ndarray:
    """The cells of one column, ``format(v, ".17g")`` or a string, as NUL-padded
    ``uint8`` rows that end in a comma.

    Floats with 1e-99 <= |v| < 1e-4 (a two-digit negative exponent) are written
    in bulk: N = |v| * 10**(16 - k), k = floor(log10 |v|), comes from the
    double-double of the power and Dekker's exact product to within about
    5e-15, and is kept when it lies in [1e16, 1e17) over 1e-12 from a tie.
    Every other cell goes through ``format``: the bytes are those of ``%.17g``.
    """
    values = np.asarray(values)
    spec = "s" if values.dtype.kind == "U" else ".17g"
    x = np.zeros(len(values)) if spec == "s" else values.astype(float)  # no string in bulk
    rows = np.flatnonzero((1e-99 <= np.abs(x)) & (np.abs(x) < 1e-4))
    bulk = np.zeros((0, 23), np.uint8)
    if rows.size:
        v = np.abs(x[rows])
        k = np.floor(np.log10(v)).astype(np.int64)
        s = 16 - k  # from 20 to 115; hi + lo is the double-double of 10**s
        tens = [10**e for e in range(20, s.max() + 1)]
        hi, lo = np.array([(float(t), float(t - int(float(t)))) for t in tens]).T[:, s - 20]
        pair = np.stack([v, hi])  # both in 26-bit halves, by Dekker's splitter 2**27 + 1
        big = 134217729.0 * pair
        high = big - (big - pair)
        (vh, hh), (vl, hl) = high, pair - high
        p = v * hi
        r = ((vh * hh - p) + vh * hl + vl * hh) + vl * hl + v * lo  # p + r = |v| * 10**s
        whole = np.floor(r)
        half = r - whole - 0.5
        n = p.astype(np.int64) + whole.astype(np.int64)  # N before rounding up
        kept = (n >= 10**16) & (n + (half > 0.0) < 10**17) & (np.abs(half) > 1e-12)
        rows, n, k = rows[kept], n[kept] + (half[kept] > 0.0), k[kept]
        bulk = np.empty((len(rows), 23), np.uint8)  # -d.dddddddddddddddde-XX
        bulk[:, 0] = np.where(x[rows] < 0.0, ord("-"), 0)
        bulk[:, 1], bulk[:, 2] = n // 10**16 + ord("0"), ord(".")
        quads = np.stack([n // 10**12, n // 10**8, n // 10**4, n], 1) % 10**4  # 16 digits
        bulk[:, 3:19] = _DIGITS[quads].reshape(-1, 16)
        # trailing zeros as NULs, the last digit first, and a point left bare
        zeros = np.logical_and.accumulate(bulk[:, 18:2:-1] == ord("0"), axis=1)
        bulk[:, 18:2:-1] *= ~zeros
        bulk[:, 2] *= ~zeros[:, -1]
        bulk[:, 19:21], bulk[:, 21:] = (ord("e"), ord("-")), _DIGITS[-k, 2:]
    rest = np.bincount(rows, minlength=len(x)) == 0
    text = np.array([format(c, spec).encode() for c in values[rest].tolist()], dtype="S")
    out = np.zeros((len(x), max(23, text.itemsize) + 1), np.uint8)
    out[rest, : text.itemsize] = text.view(np.uint8).reshape(-1, text.itemsize)
    out[rows, :23] = bulk
    out[:, -1] = ord(",")
    return out


def _text_rows(columns) -> bytes:
    """The cells of equal-length columns as CSV bytes, one line per row: their
    :func:`_cells` blocks (a 2-D array is one already) side by side, the last
    comma of each row made a newline and the NUL padding dropped.  No columns
    (rows transposed from none) give no bytes.
    """
    blocks = [c if np.ndim(c) == 2 else _cells(c) for c in columns]
    if not blocks:
        return b""
    body = np.hstack(blocks)  # a copy, so a shared block keeps its commas
    body[:, -1] = ord("\n")
    return body[body != 0].tobytes()
