"""The text of table cells: every number as ``%.17g`` writes it, most of them in
bulk, as 4-byte words from tables built once at import."""

import numpy as np


def _words(texts, size=4) -> np.ndarray:
    return np.array(texts, f"S{size}").view(np.uint32)  # each text's bytes as words


# hi + lo, the double-double of 10**s for s = 16 ... 116; the words "0000" ...
# "9999", "e-00" ... "e-99" and "\0 sign d ."; the fixed form's first digits
# "sign 0 . 0...0 d" for 0 to 3 zeros, right-aligned in two words
_TENS = np.array([(float(10**s), float(10**s - int(float(10**s)))) for s in range(16, 117)]).T
_QUADS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).copy().view(np.uint32)[:, 0]
_EXPS = _words([b"e-%02d" % i for i in range(100)])
_HEADS = _words([b"\0%c%d." % (sign, d) for sign in b"\0-" for d in range(10)])
_FIXED = _words([(b"%c0.%s%d" % (sign, b"0" * z, d)).rjust(8, b"\0")
                 for sign in b"\0-" for z in range(4) for d in range(10)], 8).reshape(-1, 2)


def _cells(values) -> np.ndarray:
    """The cells of one column, ``format(v, ".17g")`` or a string, as NUL-padded
    rows of ``uint32`` words whose last word ends in a comma.

    Floats with 1e-99 <= |v| < 1 are written in bulk: N = |v| * 10**(16 - k),
    k = floor(log10 |v|), comes from the double-double of the power and
    Dekker's exact product to within about 5e-15, and is kept when it lies in
    [1e16, 1e17) over 1e-12 from a tie.  Its words, built a row per word, are
    ``[\\0 sign d .][dddd] x 4[e - X X]`` with trailing zeros as NULs, or for
    -4 <= k <= -1 the fixed form ``[sign 0 . 0...d]`` and the four ``[dddd]``.
    Every other cell goes through ``format``: the bytes are those of ``%.17g``.
    """
    values = np.asarray(values)
    spec = "s" if values.dtype.kind == "U" else ".17g"
    x = np.zeros(len(values)) if spec == "s" else values.astype(float)  # no string in bulk
    v = np.abs(x)
    rest = ~((1e-99 <= v) & (v < 1.0))
    block = np.zeros((6, len(x)), np.uint32)  # the words of the cells in bulk
    if not rest.all():  # a column with none leaves numpy's integer kernels untouched
        v[rest] = 0.5  # worked as 0.5, then written by format
        k = np.floor(np.log10(v)).astype(np.int64)
        hi, lo = _TENS.take(-k, axis=1)  # 10**s for s = 16 - k, from 17 to 116
        pair = np.stack([v, hi])  # both in 26-bit halves, by Dekker's splitter 2**27 + 1
        big = 134217729.0 * pair
        high = big - (big - pair)
        (vh, hh), (vl, hl) = high, pair - high
        p = v * hi
        r = ((vh * hh - p) + vh * hl + vl * hh) + vl * hl + v * lo  # p + r = |v| * 10**s
        whole = np.floor(r)
        half = r - whole - 0.5
        n = p.astype(np.int64) + whole.astype(np.int64)  # N before rounding up
        up = half > 0.0
        rest |= (n < 10**16) | (n + up >= 10**17) | (np.abs(half) <= 1e-12)
        n = np.where(rest, 10**16, n + up)
        lead, tops = n // 10**16, n // 10**8  # floor division, as % is slower
        eights = np.stack([tops - lead * 10**8, n - tops * 10**8])
        fours = eights // 10**4
        quads = np.stack([fours, eights - fours * 10**4], 1).reshape(4, -1)
        sign = x < 0.0
        block[0] = _HEADS[lead + 10 * sign]
        _QUADS.take(quads, out=block[1:5])
        block[5] = _EXPS.take(-k, mode="clip")  # k = -100 (log10 one ulp low) is in rest
        # in the rows whose last digit is 0: trailing zeros as NULs, and a point left bare
        ends = np.flatnonzero(block[4].view(np.uint8)[3::4] == ord("0"))
        digits = block[1:5, ends].T.copy().view(np.uint8)
        zeros = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
        digits[zeros] = 0
        block[1:5, ends] = digits.view(np.uint32).T
        block[0].view(np.uint8).reshape(-1, 4)[ends[zeros[:, 0]], 3] = 0
        fixed = np.flatnonzero(k >= -4)
        block[2:6, fixed] = block[1:5, fixed]
        block[:2, fixed] = _FIXED[lead[fixed] + 10 * (4 * sign[fixed] - 1 - k[fixed])].T
    text = np.array([format(c, spec).encode() for c in values[rest].tolist()], dtype="S")
    width = max(6, -(-text.itemsize // 4))
    words = np.zeros((width + 1, len(x)), np.uint32)
    words[:6] = block
    words[-1].view(np.uint8)[3::4] = ord(",")  # each word "\0\0\0,"
    words[:-1, rest] = text.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width).T
    return words.T


def _text_rows(columns) -> bytes:
    """The cells of equal-length columns as CSV bytes, one line per row: their
    :func:`_cells` blocks (a 2-D array is one already) copied side by side into
    one C-ordered array, the last comma of each row made a newline and the NUL
    padding dropped.  No columns (rows transposed from none) give no bytes.
    """
    blocks = [c if np.ndim(c) == 2 else _cells(c) for c in columns]
    if not blocks:
        return b""
    body = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)), np.uint32)
    body = np.concatenate(blocks, axis=1, out=body).view(np.uint8)
    body[:, -1] = ord("\n")
    return body[body != 0].tobytes()
