"""CSV text of whole numeric columns, written with numpy alone.

Each float64 becomes its shortest round-trip decimal, byte-equal to
Python's ``repr``; each integer becomes its decimal digits.  A cell is
four uint64 words (32 bytes) of text, NUL where its layout has no
character, ending in its separator; one word does when no value formatted
with it is finite and nonzero.  A block of rows is one array of cells that
``bytes.translate(None, b"\\0")`` compacts into CSV text.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the rounding interval of each double is scaled by a
126-bit power of ten and the shortest decimal inside it is chosen, the
nearer one of two, as in Ryu (U. Adams, PLDI 2018) and as ``repr`` does.
There is no at-least-two-digits rule as in Java's variant: the smallest
subnormal is ``5e-324``.  All wrapping uint64 arithmetic runs on arrays,
never on numpy scalars, which warn on overflow.
"""

from __future__ import annotations

import numpy as np

__all__ = ["cells", "rows"]

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)

# binary64 fields and Schubfach's range of decimal exponents k
_FRACTION = _U64((1 << 52) - 1)
_EXPONENT = _U64(0x7FF << 52)
_K_MIN, _K_MAX = -324, 292


def _g_table():
    """Rows g1, g1 hi, g1 lo, g0 hi, g0 lo over k in [K_MIN, K_MAX], where
    g = floor(10^-k 2^-r) + 1 with 2^125 <= 10^-k 2^-r < 2^126, and
    g = g1 2^63 + g0, each half split again into 32-bit limbs."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k) * 913_124_641_741 >> 38) - 125
        if k > 0:
            beta = (1 << -r) // 10 ** k
        else:
            beta = 10 ** -k >> r if r >= 0 else 10 ** -k << -r
        g = beta + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(rows, dtype=_U64).T.copy()


_G = _g_table()


def _rop(g, cp):
    """Schubfach's round to odd of g cp / 2^127, for g the five rows of
    ``_G`` at each element and cp < 2^60.  No limb sum wraps: the high
    limbs of g0, g1 and cp are below 2^31, 2^31 and 2^28."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    x1 = g0h * ch + ((g0l * cl >> 32) + g0l * ch + g0h * cl >> 32)
    y1 = g1h * ch + ((g1l * cl >> 32) + g1l * ch + g1h * cl >> 32)
    z = (g1 * cp >> 1) + x1
    return y1 + (z >> 63) | ((z << 1) != 0)


def _shortest(bits):
    """Significand d < 10^17 and exponent k, v = d 10^k, of the shortest
    decimal that reads back to each finite nonzero double (given as bits,
    sign ignored); of two such, the nearer, and the even one on a tie."""
    t = bits & _FRACTION
    bq = (bits >> 52 & _U64(0x7FF)).view(np.int64)
    c = t | (bq != 0).astype(_U64) << 52
    q = np.maximum(bq, 1) - 1075
    # below a power of two the rounding interval is half as wide
    irregular = (t == 0) & (bq > 1)
    k = q * 661_971_961_083 - irregular * 274_743_187_321 >> 41
    h = (q + ((-k) * 913_124_641_741 >> 38) + 2).view(_U64)
    i = k - _K_MIN
    g = [row.take(i) for row in _G]

    # an interval's ends read back to v only when c is even
    odd = c & _U64(1)
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - 2 + irregular << h) + odd
    vbr = _rop(g, cb + 2 << h) - odd

    s = vb >> 2
    # One digit fewer: 10 floor(s / 10) or the next multiple of ten, when
    # exactly one of them lies in the interval.
    sp = s // _U64(10) * _U64(10)
    spx4 = sp << 2
    up_in = vbl <= spx4
    shorter = (s >= 10) & (up_in != (spx4 + 40 <= vbr))
    # Otherwise s or s + 1: the one in the interval, or the nearer one.
    sx4 = vb & _U64(0xFFFFFFFFFFFFFFFC)
    u_in = vbl <= sx4
    w_in = sx4 + 4 <= vbr
    frac = vb & _U64(3)
    nearer_up = (frac == 3) | ((frac == 2) & (s & _U64(1) == 1))
    d = s + (w_in & ~u_in | nearer_up & (u_in == w_in))
    np.copyto(d, sp + (~up_in).astype(_U64) * _U64(10), where=shorter)
    return d, k


def _word(texts):
    """One uint64 per text, holding its bytes NUL-padded to eight."""
    raw = b"".join(t.encode().ljust(8, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=_U64).copy()


_POW10 = 10 ** np.arange(20, dtype=_U64)


def _digit_tables():
    """For j < 10^4: its four digits as text, one uint64 each, and 1 + the
    number of them up to the last nonzero one (far below 0 for j = 0)."""
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10000, dtype=np.int16)[:, None] // places % 10
              ).astype(np.uint8)
    text = (digits + 48).view(np.uint32)[:, 0].astype(_U64)
    last = 5 - np.argmax(digits[:, ::-1] != 0, axis=1)
    return text, np.where(digits.any(axis=1), last, -99).astype(np.int8)


_QUAD, _SIGNIFICANT = _digit_tables()
# "e", sign and two or three digits, for decimal exponents -324..308
_EXP_WORD = _word(["e%+03d" % e for e in range(-324, 309)])
_DOTS = _U64(0x2E2E2E2E2E2E2E2E)
_COMMA = _U64(0x2C << 56)
_CRLF = _U64(0x0A0D << 48)
# _BELOW[j][x]: the bytes of word j that lie below byte x of three words
_BELOW = np.array([[(1 << 8 * min(max(x - 8 * j, 0), 8)) - 1
                    for x in range(33)] for j in range(3)], dtype=_U64)


def _below(x):
    """Masks of the bytes below x (0 <= x <= 32) in each of three words."""
    return [row.take(x) for row in _BELOW]


def _quads(n):
    """The four 4-digit groups of each int64 0 <= n < 10^16."""
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    hi_a, lo_a = hi // 10 ** 4, lo // 10 ** 4
    return hi_a, hi - hi_a * 10 ** 4, lo_a, lo - lo_a * 10 ** 4


def _digit_words(quads):
    """The last two of three words of text: the digits of four groups."""
    q1, q2, q3, q4 = quads
    return _QUAD[q1] | _QUAD[q2] << 32, _QUAD[q3] | _QUAD[q4] << 32


# Text before the 16 digits after the first one ("tail"), by key = 6 neg +
# pattern: "h." (exponent form, and fixed with decpt = 1), "0.h" to
# "0.000h" (fixed, decpt = 0 to -3), "h" (fixed, decpt >= 2: the '.' goes
# into the tail).  Each with a NUL at the first digit h.
_PATTERNS = ["h.", "0.h", "0.0h", "0.00h", "0.000h", "h"]
_PREFIX = [sign + p for sign in ("", "-") for p in _PATTERNS]
_PRE = _word([p.replace("h", "\0") for p in _PREFIX])
_HEAD_AT = np.array([8 * p.index("h") for p in _PREFIX], dtype=_U64)
_PRE_LEN = np.array([len(p) for p in _PREFIX], dtype=_U64)


def _finite_words(bits):
    """The four words of text of each finite nonzero double."""
    d, k = _shortest(bits)
    neg = bits >> 63
    negi = neg.view(np.int64)
    # 16 or 17 digits from a normal significand, 1 to 17 from a subnormal
    length = 16 + (d >= _U64(10 ** 16))
    tiny = d < _U64(10 ** 15)
    if tiny.any():
        length[tiny] = np.searchsorted(_POW10, d[tiny], side="right")
    u = (d * _POW10[17 - length]).view(np.int64)
    head = u // 10 ** 16
    quads = _quads(u - head * 10 ** 16)
    nd = np.maximum(_SIGNIFICANT[quads[0]], 1)
    for j, quad in enumerate(quads[1:], 1):
        nd = np.maximum(nd, _SIGNIFICANT[quad] + 4 * j)
    decpt = k + length
    fixed = (decpt > -4) & (decpt <= 16)
    inside = fixed & (decpt >= 2)
    key = 6 * negi + (fixed & (decpt <= 0)) * (1 - decpt) + 5 * inside
    pre_len = _PRE_LEN[key]
    # tail digits shown: up to the last nonzero one, and in fixed form
    # up to the decimal point and one after it ("ddd00.0", "d.0")
    shown = np.maximum(nd - 1, fixed * np.maximum(decpt, 0))
    size = pre_len.view(np.int64) + shown - (~fixed & (nd == 1))
    x1, x2 = _digit_words(quads)
    s8 = pre_len << 3
    b8 = 64 - s8
    words = [_PRE[key] | head.view(_U64) + 48 << _HEAD_AT[key] | x1 << s8,
             x1 >> b8 | x2 << s8, x2 >> b8]
    if inside.any():
        # the bytes from the point on move up one byte, a '.' fills the gap
        dot = np.where(inside, negi + decpt, 24)
        y0, y1, y2 = words
        moved = (y0 << 8, y1 << 8 | y0 >> 56, y2 << 8 | y1 >> 56)
        words = [y & a | z & ~b | _DOTS & (a ^ b) for y, z, a, b in
                 zip(words, moved, _below(dot), _below(dot + 1))]
        size += inside
    words = [w & keep for w, keep in zip(words, _below(size))]
    return words + [_EXP_WORD[decpt + 323] * ~fixed | _COMMA]


# the text of 0.0, -0.0, inf, -inf and nan, all within one word
_SPECIAL = _word(["0.0", "-0.0", "inf", "-inf", "nan"])


def _float_words(values):
    """Words of the cells of a float array: four per cell, or one when no
    value is finite and nonzero (all cells then fit one word)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    exponent = bits & _EXPONENT
    regular = (exponent != _EXPONENT) & (bits << 1 != 0)
    if regular.all():
        return _finite_words(bits)
    nan = (exponent == _EXPONENT) & (bits & _FRACTION != 0)
    kind = np.where(nan, 4, (bits >> 63).view(np.int64) + 2 * (exponent != 0))
    first = _SPECIAL.take(kind)
    at = np.flatnonzero(regular)
    if not at.size:
        return [first | _COMMA]
    words = [first, np.zeros_like(bits), np.zeros_like(bits),
             np.full_like(bits, _COMMA)]
    for word, part in zip(words, _finite_words(bits.take(at))):
        word[at] = part
    return words


def _int_words(values):
    """Words of the cells of a signed integer array: four per cell."""
    v = values.astype(np.int64)
    neg = (v < 0).astype(_U64)
    mag = v.view(_U64) * (1 - 2 * neg)
    # 20 digits on bytes 4..23 (the first group below 1845), sign on byte 3
    top = mag // _U64(10 ** 16)
    quads = _quads((mag - top * _U64(10 ** 16)).view(np.int64))
    words = [_QUAD[top.view(np.int64)] << 32, *_digit_words(quads)]
    # leading zeros become NUL
    lead = 24 - np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    words = [w & ~m for w, m in zip(words, _below(lead))]
    words[0] |= neg * _U64(0x2D << 24)
    return words + [np.full_like(mag, _COMMA)]


def _words(values):
    """The words of the cells of a 1-d float or signed integer array: word
    j of every cell in one array each, the last word ending in a ','."""
    kind = values.dtype.kind
    if kind == "f":
        return _float_words(values)
    if kind == "i":
        return _int_words(values)
    raise TypeError(f"no CSV cell format for dtype {values.dtype}")


def cells(values):
    """(n, width) uint64 cells of a 1-d float or signed integer array, each
    ending in a ',' separator, to pass as a ``lead`` column to ``rows``."""
    return np.stack(_words(np.asarray(values)), axis=1)


def rows(columns, lead=None):
    """CSV text (bytes) of the rows of equal-length 1-d numeric columns,
    after a first column of ``cells`` when ``lead`` is given: commas
    between cells, ``\\r\\n`` after each row.  The float columns are
    formatted in one call, and so are the integer ones."""
    first = lead is not None
    m = len(lead) if first else len(columns[0])
    groups = {}
    for j, column in enumerate(columns, first):
        groups.setdefault(column.dtype.kind, []).append(j)
    words = {tuple(at): _words(np.stack([columns[j - first] for j in at],
                                        axis=1).ravel())
             for at in groups.values()}
    width = [lead.shape[1]] if first else []
    width += [0] * len(columns)
    for at, group_words in words.items():
        for j in at:
            width[j] = len(group_words)
    offset = np.cumsum([0] + width)
    block = np.empty((m, offset[-1]), dtype=_U64)
    if first:
        block[:, :offset[1]] = lead
    for at, group_words in words.items():
        for w, word in enumerate(group_words):
            block[:, offset[list(at)] + w] = word.reshape(m, len(at))
    block[:, -1] ^= _COMMA ^ _CRLF
    return block.tobytes().translate(None, b"\0")
