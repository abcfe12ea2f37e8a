"""CSV text of float64 arrays, byte for byte what str(float) writes.

format_rows turns a 2-D float64 block into the bytes of
",".join(map(str, row)) + "\n" for each row, each row led by an optional
label.  The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020, the algorithm of the JDK's DoubleToDecimal), run on
uint64 lanes: for a normal double v = c 2^q it finds the shortest decimal in
the interval of reals that round to v, and of two as short the one nearest
v, ties to even.  That is the decimal CPython's repr prints.  The layout is
repr's too: exponent form when the decimal exponent is below -4 or at least
16 ("1e-05", "1e+16"), and ".0" after an integral value.  Zeros, subnormals,
infinities and nan go through str() one value at a time.

Each value is written as one slot of four uint64 words, 32 bytes, and the
NULs among them are dropped at the end:

    byte 0..23   sign, digits and point: words 0..2
    byte 24..28  'e', the exponent's sign and up to three digits
    byte 29      ',' or, after a row's last value, '\n'
    byte 30..31  NUL

The 20 digits of the decimal's significand f, zero-padded, make three words
D with digit i at byte 2 + i, built from five table lookups.  A layout (sign,
digit count, point and notation) has a template and two digit masks, also
three words each, and words 0..2 are template | (D & integer mask) |
(D & fraction mask) << 8, the shift carried across the words: moving the
fraction's digits one byte up opens the byte of the point.  A row's label is
padded with NULs to a word boundary, so every slot is word-aligned.

Only 64-bit integer arithmetic is used: the 128-bit products take 32-bit
halves.  The table of 126-bit powers of ten, computed from exact Python
integers, and the word tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

K_MIN, K_MAX = -324, 292  # decimal exponents a float64's digits can need
MASK32 = 0xFFFF_FFFF
MASK63 = 2**63 - 1
_FORMS = 21  # fixed notation at decpt -3..16, and exponent notation
# f < 10^17 in five groups, a = f // 10^14, b1 b0 the next eight digits and c1 c0 the last six,
# each a value below 10^4 whose four digits (the leading ones 0) go into D at a byte shift, listed
# a, b0, c0, b1, c1 with (bits shifted, digits of f after the group); a leading '0' that lands on
# another group's digit leaves it as it is, since '0' | d == d for the ASCII digits
_GROUPS = ((32, 14), (32, 6), (16, 0), (0, 10), (0, 2))


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """g1 and g0, with g = g1 2^63 + g0, for k = K_MIN..K_MAX.

    10^-k = beta 2^r with 2^125 <= beta < 2^126, and g = floor(beta) + 1.
    """
    g1, g0 = [], []
    for k in range(K_MIN, K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:  # 10^k is no power of 2, so 10^-k lies strictly between powers of 2
            p = 10**k
            g = (1 << 125 + p.bit_length()) // p + 1
        g1.append(g >> 63)
        g0.append(g & MASK63)
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


@functools.cache
def _digits() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as a uint32, their trailing zeros, and _GROUPS's columns.

    0 is given 64 trailing zeros, so that f's trailing zeros are the least
    over its groups of a group's trailing zeros plus the digits after it.
    """
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    digits = digits.astype(np.uint8)
    quads = (digits + ord("0")).view(np.uint32).ravel()  # first digit at byte 0
    trailing = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    trailing[0] = 64
    shifts, after = np.array(_GROUPS, dtype=np.uint64).T[:, :, None]
    return quads, trailing, shifts, after.astype(np.uint8)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Templates by layout, digit masks by unsigned layout, and a layout offset and word 3 by (lead, k).

    f's zero-padded text has 22 digit slots: '0', the 20 digits of D, '0',
    so D's digit i is slot 1 + i and f's 17 digits start at slot 4.  The
    point comes before slot point; an integer slot s is written at byte
    1 + s and a fraction slot at byte 2 + s.  A value's layout is
    ((negative 2 + lead) _FORMS + form) 17 + trailing: lead is 1 when f has
    16 digits, form is decpt + 3 in fixed notation (decpt -3..16) and
    _FORMS - 1 in exponent notation, and trailing counts f's trailing zeros.
    Column layout of the first table holds a template's three words, and
    column layout % (2 _FORMS 17) of the second the integer and then the
    fraction digit mask, three words each over D's bytes.  The last two
    tables are indexed by lead (K_MAX - K_MIN + 1) + k - K_MIN: the layout
    of (positive, lead, form, no trailing zero), and word 3, the exponent
    text (NUL in fixed notation) and ','.
    """
    negative, lead, form, trailing = np.indices((2, 2, _FORMS, 17)).reshape(4, -1, 1)
    last = 16 - trailing  # f's last nonzero digit, of its 17
    fixed = form < _FORMS - 1
    point = np.where(fixed, lead + 1 + form, lead + 5)  # the slot the point precedes
    first = np.minimum(lead + 4, point - 1)
    end = np.where(fixed, np.maximum(last + 5, point + 1), last + 5)  # past the last slot kept
    slot = np.arange(22)
    kept = (slot >= first) & (slot < end)
    integer, fraction = kept & (slot < point), kept & (slot >= point)
    templates = np.zeros((len(form), 24), dtype=np.uint8)
    rows = np.arange(len(form))
    templates[:, 1] = ord("0") * integer[:, 0]
    templates[:, 23] = ord("0") * fraction[:, 21]
    templates[rows, first[:, 0]] = ord("-") * negative[:, 0]  # over byte 1 only when slot 0 is dropped
    templates[rows, point[:, 0] + 1] = ord(".") * (fixed | (last > lead))[:, 0]
    masks = np.zeros((len(form) // 2, 2, 24), dtype=np.uint8)
    masks[:, 0, 2:22] = np.uint8(0xFF) * integer[:len(form) // 2, 1:21]
    masks[:, 1, 2:22] = np.uint8(0xFF) * fraction[:len(form) // 2, 1:21]

    lead, k = np.indices((2, K_MAX - K_MIN + 1))
    decpt = (17 - lead + k + K_MIN).ravel().tolist()
    form = [p + 3 if -3 <= p <= 16 else _FORMS - 1 for p in decpt]
    exponents = b"".join((b"\0" * 5 if -3 <= p <= 16 else b"e" + (b"-" if p < 1 else b"+")
                          + (b"%02d" % abs(p - 1)).rjust(3, b"\0")) + b",\0\0" for p in decpt)
    return (np.ascontiguousarray(templates.view(np.uint64).T),
            np.ascontiguousarray(masks.view(np.uint64).reshape(-1, 6).T),
            (lead.ravel() * _FORMS + form) * 17, np.frombuffer(exponents, dtype=np.uint64))


def _split(a: np.ndarray) -> tuple:
    """A uint64 array with its low and high 32-bit halves."""
    return a, a & MASK32, a >> 32


def _mulhi(a: tuple, b: tuple) -> np.ndarray:
    """The high 64 bits of the 128-bit products a b of uint64 arrays split by _split."""
    (_, a0, a1), (_, b0, b1) = a, b
    mid = a1 * b0 + (a0 * b0 >> 32)  # at most 2^64 - 2^32: no wrap
    return a1 * b1 + (mid >> 32) + ((mid & MASK32) + a0 * b1 >> 32)


def _round_to_odd(g1: tuple, g0: tuple, cp: tuple) -> np.ndarray:
    """floor(g cp 2^-127), with its lowest bit set when the floor is inexact."""
    z = (g1[0] * cp[0] >> 1) + _mulhi(g0, cp)
    return _mulhi(g1, cp) + (z >> 63) | (z & MASK63) + MASK63 >> 63


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest decimal that reads back as x, for normal x.

    f has 16 or 17 digits, trailing zeros included.
    """
    bits = x.view(np.uint64)
    c = bits & (2**52 - 1) | 2**52
    q = (bits >> 52 & 0x7FF).astype(np.int64) - 1075  # x = c 2^q
    # at a power of 2 above the smallest normal, the gap below x is half the gap above
    irregular = (c == 2**52) & (q > -1074)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint8)  # q + floor(log2(10^-k)) + 2
    g1, g0 = (_split(table[k - K_MIN]) for table in _powers_of_ten())
    cb = c << 2
    vb, vbl, vbr = (_round_to_odd(g1, g0, _split(cp << h)) for cp in (cb, cb - 2 + irregular, cb + 2))
    out = c & 1  # an odd c leaves the interval's ends out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s + 1 << 2) + out <= vbr
    s_nearer = (vb < (s << 2) + 2) | (vb == (s << 2) + 2) & (s & 1 == 0)
    f = np.where(upin != wpin, np.where(wpin, sp10 + 10, sp10),
                 np.where(np.where(uin != win, win, ~s_nearer), s + 1, s))
    return f, k.astype(np.int16)


def format_rows(block: np.ndarray, prefix: str = "") -> bytes:
    """The bytes of prefix + ",".join(map(str, row)) + "\\n" for each row of block.

    block is 2-D float64 and prefix holds no NUL.
    """
    if len(block) == 0:
        return b""
    # _text's temporaries are freed before the copy that drops the NULs
    return _text(block, prefix).tobytes().translate(None, b"\0")


def _text(block: np.ndarray, prefix: str) -> np.ndarray:
    """The CSV text of block's rows as uint64 words, with NULs among it.

    Each row is its label, NUL-padded to whole words, then one slot of four
    words a value.  Each temporary is dropped once used, so that the peak
    stays in _shortest.
    """
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    special = (x.view(np.uint64) + 2**52 & 0x7FF << 52) < 2**53  # zero, subnormal, inf or nan
    f, k = _shortest(np.where(special, 1.0, x) if special.any() else x)
    lead_k = (f < 10**16) * (K_MAX - K_MIN + 1) + (k - K_MIN)  # lead: f has 16 digits, its first a padding zero
    quads, trailing, shifts, after = _digits()
    groups = _groups(f.view(np.int64))
    del f, k
    D = np.take(quads, groups) << shifts  # uint64, from the uint32 quads
    D[1:3] |= D[3:]  # b1's and c1's digits join b0's and c0's word
    D = D[:3]
    D[0] |= 0x3030 << 16  # the two leading zeros of D that a's four digits miss

    templates, digit_masks, offsets, exponents = _layouts()
    layout = np.take(offsets, lead_k)
    counts = np.take(trailing, groups)
    counts += after
    layout += counts.min(axis=0)
    del groups, counts
    masks = np.take(digit_masks, layout, axis=1)  # the integer digits' three words, then the fraction's
    masks.reshape(2, 3, -1)[:] &= D  # both masks
    del D
    fraction = masks[3:]
    carry = fraction[:2] >> 56
    fraction <<= 8
    fraction[1:] |= carry
    del carry
    layout += (x < 0) * (2 * _FORMS * 17)
    words = np.take(templates, layout, axis=1)
    del layout
    words |= masks[:3]

    slots = np.empty((len(x), 4), dtype=np.uint64)
    np.bitwise_or(words, fraction, out=slots[:, :3].T)
    del words, masks, fraction
    slots[:, 3] = np.take(exponents, lead_k)
    slots[cols - 1::cols, 3] ^= (ord(",") ^ ord("\n")) << 40
    for i in np.flatnonzero(special):
        slots.view(np.uint8)[i, :29] = np.frombuffer(str(float(x[i])).encode().ljust(29, b"\0"), dtype=np.uint8)
    label = prefix.encode()
    if not label:
        return slots
    label += b"\0" * (-len(label) % 8)
    text = np.empty((rows, len(label) // 8 + 4 * cols), dtype=np.uint64)
    text[:, :len(label) // 8] = np.frombuffer(label, dtype=np.uint64)
    text[:, len(label) // 8:] = slots.reshape(rows, 4 * cols)
    return text


def _groups(f: np.ndarray) -> np.ndarray:
    """The values of f's groups a, b0, c0, b1, c1 as rows, for int64 f < 10^17.

    Floor division and a product: numpy's divmod is about twice as slow.
    """
    groups = np.empty((5, len(f)), dtype=np.intp)
    head = f // 10**6
    np.subtract(f, head * 10**6, out=groups[2])
    np.floor_divide(head, 10**8, out=groups[0])
    head -= groups[0] * 10**8
    np.floor_divide(head, 10**4, out=groups[3])
    np.subtract(head, groups[3] * 10**4, out=groups[1])
    np.floor_divide(groups[2], 100, out=groups[4])
    groups[2] -= groups[4] * 100
    return groups
