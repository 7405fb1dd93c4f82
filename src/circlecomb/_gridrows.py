"""The rows of a grid CSV, `%.17g,%.17g,%d` per node, in numpy.

The bytes are those of `%`-formatting each cell, made chunk by chunk
with no Python object per cell.  A nonzero double x with
e = floor(log10|x|) in [-6, 16] prints its 17 significant digits as
the integer D = round(|x| 10^(16-e)), rounded half to even as dtoa
rounds (Gay, AT&T NAM 90-10, 1990).  The product is carried exactly as
hi + lo by Dekker's TwoProduct (Numer. Math. 18, 1971) with the exact
power 10^(16-e) <= 10^22; hi >= 1e16 > 2^53 is an even integer, so
D = hi + rint(lo).  Each cell is laid out in fixed slots, unused ones
0, and the zeros are dropped from the finished text.  The other cells
take `b"%.17g" % x`: |x| outside [1e-6, 1e17), infinities, and a
log10 one decade off.

`formats.write_grid` loads this module on first use, so the routes
that write no grid never compile it.
"""

import numpy as np

from .spectrum import grid_nodes

_POW10 = np.array([float(10 ** k) for k in range(23)])
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
# "0." and up to three zeros before a fixed e < 0, and "e-05", "e-06"
# after the exponent form, indexed by -e; row 0 is empty.
_PREFIX = np.frombuffer(b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0"
                        b"0.000", np.uint8).reshape(5, 5)
_EXPONENT = np.frombuffer(b"\0" * 20 + b"e-05" b"e-06",
                          np.uint8).reshape(7, 4)
# Slots of one cell: sign; "0.000" before fixed e < 0; 17 (digit, point
# after it) pairs; "e-dd".
_CELL = 1 + 5 + 34 + 4
_CHUNK = 1 << 13


def _two_product(a, b):
    """(p, err) with p + err = a * b exactly (Dekker's splitting)."""
    def split(x):
        c = 134217729.0 * x
        h = c - (c - x)
        return h, x - h
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _g17_cells(x, out):
    """`%.17g` of each float in `x` into the (x.size, _CELL) uint8 slots
    of `out`, which are all 0 on entry."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -6) & (e <= 16)
    e = np.where(fast, e, 0).astype(np.int64)
    hi, lo = _two_product(np.where(fast, a, 1.0), _POW10[16 - e])
    # hi + lo < 1e16: log10 read a decade high.  D >= 1e17: a decade
    # low, or 17 nines rounded up.
    slow = ~fast | ((hi - 1e16) + lo < 0)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    slow |= d >= 10 ** 17

    # The 17 digits as characters behind one pad byte: the leading one,
    # then eight pairs read from the two-character table.
    chars = np.zeros((x.size, 9), np.uint16)
    digits = chars.view(np.uint8)[:, 1:]
    lead, rest = np.divmod(d, 10 ** 16)
    digits[:, 0] = lead + ord("0")
    for i in range(1, 9):
        chars[:, i], rest = _PAIRS[rest // 10 ** (16 - 2 * i)], \
            rest % 10 ** (16 - 2 * i)
    kept = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    fixed = e >= -4
    kept = np.where(fixed, np.maximum(kept, e + 1), kept).astype(np.uint8)
    np.multiply(digits, np.arange(17, dtype=np.uint8) < kept[:, None],
                out=out[:, 6:40:2])
    # The point follows digit e (fixed) or the first digit (exponent
    # form) when a digit follows it.
    point = np.where(fixed, e, 0)
    rows = np.flatnonzero((point >= 0) & (point + 1 < kept))
    out[rows, 7 + 2 * point[rows]] = ord(".")
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 1:6] = _PREFIX[np.where(fixed & (e < 0), -e, 0)]
    out[:, 40:] = _EXPONENT[np.where(fixed, 0, -e)]

    zero = a == 0
    out[zero, 1:] = 0
    out[zero, 6] = ord("0")
    nan = np.isnan(x)
    out[nan] = 0
    out[nan, :3] = np.frombuffer(b"nan", np.uint8)
    slow = np.flatnonzero(slow & ~zero & ~nan)
    if slow.size:
        text = b"".join([(b"%.17g" % v).ljust(_CELL, b"\0")
                         for v in x[slow].tolist()])
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, _CELL)


def grid_rows(values, defined):
    """The rows of a grid CSV, `%.17g,%.17g,%d` per node with the node's
    theta from `grid_nodes`, as successive chunks of bytes of up to
    `_CHUNK` rows each."""
    n = values.size
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        flags = defined[start:stop]
        # Theta and value cells alternate, each followed by three slots
        # for ",", and after the value the flag and the newline.
        cells = np.zeros((2 * flags.size, _CELL + 3), np.uint8)
        x = np.empty(2 * flags.size)
        x[0::2], x[1::2] = grid_nodes(n, start, stop), values[start:stop]
        _g17_cells(x, cells[:, :_CELL])
        cells[:, _CELL] = ord(",")
        cells[1::2, _CELL + 1] = flags + ord("0")
        cells[1::2, _CELL + 2] = ord("\n")
        yield cells.tobytes().translate(None, b"\0")
