"""The rows of a grid CSV, `%.17g,%.17g,%d` per node, in numpy.

The bytes are those of `%`-formatting each cell, made chunk by chunk
with no Python object per cell.  A nonzero double x with
e = floor(log10|x|) in [-6, 16] prints its 17 significant digits as
the integer D = round(|x| 10^(16-e)), rounded half to even as dtoa
rounds (Gay, AT&T NAM 90-10, 1990).  The product is carried exactly as
hi + lo by Dekker's TwoProduct (Numer. Math. 18, 1971) with the exact
power 10^(16-e) <= 10^22, split once into halves; hi >= 1e16 > 2^53 is
an even integer, so D = hi + rint(lo).

A cell is four little-endian 64-bit words, 32 bytes, NUL wherever it
has no character; the finished chunk drops the NULs.
- Word 0: the sign; "0." and up to three zeros, right-aligned, when
  -4 <= e < 0; the first digit; then the point when e = 0 or in the
  exponent form (e < -4), if a digit other than 0 follows.
- Words 1 and 2: the other 16 digits, eight each, as four-digit groups
  from a table of 10000 words.  Trailing zeros are masked off: each
  word keeps its bytes up to its last digit other than "0", found as
  the highest bit of a flag per such byte, read off the exponent of
  that flag word as a float.  Word 1 keeps all of its digits when word
  2 has any.
- Word 3: "e-05" or "e-06" in the exponent form, then the "," after
  the cell, and in a row's value cell its flag and the newline.
- When 1 <= e <= 16 the point falls inside words 1 and 2: those rows
  keep their integer digits, and the digits after the point move up one
  byte, the last into word 3.
Zeros come out of the same words ("0", "-0"), NaN has words of its own,
and the other cells take `b"%.17g" % x`: |x| outside [1e-6, 1e17),
infinities, and a log10 one decade off.

The cells are worked 4096 at a time, so that each temporary holds 32 KB
and the two words of digits 64 KB.  With each 16384-cell chunk in one
pass a 131072-row write took 51 ms against 29 ms (2-vCPU x86-64,
numpy 2.4): numpy operations on arrays of 256 KB ran about four times
slower per element there.  `formats.write_grid` loads this module on
first use, so the routes that write no grid never compile it.
"""

import numpy as np

from .spectrum import grid_nodes


def _words(texts):
    """Texts of up to 8 bytes as little-endian int64 words."""
    return np.array([int.from_bytes(t, "little") for t in texts],
                    np.uint64).view(np.int64)


def _split(x):
    """(h, x - h), with h holding the top 26 bits of x (Dekker's split)."""
    c = 134217729.0 * x
    h = c - (c - x)
    return h, x - h


# Indexed by e + 6, e = -6..16: the scale 10^(16-e) and its halves; word
# 3; and word 0 without a point, then (from 23 on) with one.
_SCALE = np.array([float(10 ** (16 - e)) for e in range(-6, 17)])
_SCALE_HI, _SCALE_LO = _split(_SCALE)
_TAIL = _words(b"e-%02d," % -e if e < -4 else b"\0\0\0\0,"
               for e in range(-6, 17))
_PREFIX = [(b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").rjust(6, b"\0")
           for e in range(-6, 17)]
_HEAD = _words(_PREFIX + [p + b"\0." if e == 0 or e < -4 else p
                          for e, p in zip(range(-6, 17), _PREFIX)])
# "%04d" % g for g = 0..9999, its first digit in the low byte.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.int64)
_QUADS = (_DIGITS[:, None, None, None] | _DIGITS[:, None, None] << 8
          | _DIGITS[:, None] << 16 | _DIGITS << 24).ravel()
_ASCII_1_TO_9 = 0x4F4F4F4F4F4F4F4F      # sets the top bit of "1".."9"
_TOP_BITS = -0x7F7F7F7F7F7F7F80         # 0x8080808080808080
# A word's flags, moved down to bit 8b of byte b and read as a float,
# have the biased exponent 1023 + 8b for the highest flagged byte b;
# >> 3, that is 127 + b, and 0 for no flag.  Indexed by it, the mask of
# bytes 0..b.
_KEEP = _words([b""] * 127 + [b"\xff" * (b + 1) for b in range(8)])


def _point_words(e):
    """For 1 <= e <= 16, where the point follows digit e: the masks of
    digits 1..16 before it and after it, and the point, each as words 1
    and 2; zeros for other e."""
    texts = [b"\xff" * e, b"\0" * (e + 1) + b"\xff" * 16, b"\0" * e + b"."]
    if not 1 <= e <= 16:
        texts = [b""] * 3
    return [t.ljust(16, b"\0")[k:k + 8] for t in texts for k in (0, 8)]


_POINT = _words(t for e in range(-6, 17)
                for t in _point_words(e)).reshape(23, 6).T.copy()
_NAN = _words([b"nan", b"", b"", b"\0\0\0\0,"])
_SLOW_TAIL = b"\0\0\0\0,\0\0\0"
_CHUNK = 1 << 13
_BLOCK = 1 << 12


def _g17_cells(x, out):
    """`%.17g,` of each float in `x` into the rows of `out`, an
    (x.size, 4) int64 array: 32 bytes per cell, NUL where the text has
    no character."""
    for lo in range(0, x.size, _BLOCK):
        _g17_block(x[lo:lo + _BLOCK], out[lo:lo + _BLOCK])


def _g17_block(x, out):
    """`_g17_cells` of at most `_BLOCK` cells."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    far = ~((e >= -6) & (e <= 16))      # and 0, infinities, NaN
    e[far] = 0
    a[far] = 0
    i = e.astype(np.int64)
    i += 6
    ah, al = _split(a)
    bh, bl = _SCALE_HI.take(i), _SCALE_LO.take(i)
    hi = a * _SCALE.take(i)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    # hi + lo < 1e16: log10 read a decade high, or x was far and set to
    # 0.  d >= 1e17: a decade low, or 17 nines rounded up.
    slow = np.flatnonzero(((hi - 1e16) + lo < 0) | (d >= 10 ** 17))

    # The first digit, then the other 16 as two words of 8.
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    digits = np.empty((2, x.size), np.int64)
    np.floor_divide(d, 10 ** 8, out=digits[0])
    np.subtract(d, digits[0] * 10 ** 8, out=digits[1])
    quad = digits // 10000
    w = _QUADS.take(digits - quad * 10000) << 32 | _QUADS.take(quad)
    flags = ((w + _ASCII_1_TO_9) & _TOP_BITS).view(np.uint64) >> 7
    top = flags.view(np.int64).astype(np.float64).view(np.int64) >> 55
    np.maximum(top[0], 134 * (digits[1] != 0), out=top[0])
    w1 = w[0] & _KEEP.take(top[0])
    w2 = w[1] & _KEEP.take(top[1])
    w3 = _TAIL.take(i)
    head = _HEAD.take(i + 23 * (top[0] != 0))
    head |= (lead + ord("0")) << 48
    head |= np.signbit(x) * ord("-")

    rows = np.flatnonzero(i > 6)
    if rows.size:
        # The point follows digit e of words 1 and 2: the integer digits
        # stay, the point comes next if any digit other than 0 follows,
        # and the digits after it move up one byte.
        before1, before2, after1, after2, dot1, dot2 = _POINT.take(i[rows],
                                                                   axis=1)
        u1, u2 = w1[rows], w2[rows]
        point = ((u1 & ~before1) | (u2 & ~before2)) != 0
        u1 |= w[0][rows] & before1
        u2 |= w[1][rows] & before2
        w1[rows] = u1 & before1 | u1 << 8 & after1 | dot1 * point
        w2[rows] = (u2 & before2 | (u2 << 8 | u1 >> 56) & after2
                    | dot2 * point)
        w3[rows] |= (u2 >> 56) * point
    out[:, 0] = head
    out[:, 1] = w1
    out[:, 2] = w2
    out[:, 3] = w3

    out[np.isnan(x)] = _NAN
    slow = slow[np.abs(x[slow]) > 0]
    if slow.size:
        text = b"".join([(b"%.17g" % v).ljust(24, b"\0") + _SLOW_TAIL
                         for v in x[slow].tolist()])
        out[slow] = np.frombuffer(text, np.int64).reshape(-1, 4)


def grid_rows(values, defined):
    """The rows of a grid CSV, `%.17g,%.17g,%d` per node with the node's
    theta from `grid_nodes`, as successive chunks of bytes of up to
    `_CHUNK` rows each."""
    n = values.size
    # Theta and value cells alternate; the value's word 3 takes the
    # flag and the newline after its ",".
    x = np.empty(2 * min(n, _CHUNK))
    cells = np.empty((x.size, 4), np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        size = 2 * (stop - start)
        x[0:size:2] = grid_nodes(n, start, stop)
        x[1:size:2] = values[start:stop]
        _g17_cells(x[:size], cells[:size])
        flags = defined[start:stop].astype(np.int64)
        cells[1:size:2, 3] |= (flags + (ord("0") | ord("\n") << 8)) << 40
        yield cells[:size].tobytes().translate(None, b"\0")
