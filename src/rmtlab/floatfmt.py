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

Only 64-bit integer arithmetic is used: the 128-bit products take 32-bit
halves, and the table of 126-bit powers of ten is computed from exact
Python integers on the first call, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

K_MIN, K_MAX = -324, 292  # decimal exponents a float64's digits can need
MASK32 = 0xFFFF_FFFF
MASK63 = 2**63 - 1
# a value's template: sign, the 22 digit slots with a point slot after all but
# the last, 'e', the exponent's sign and three digits, and the separator
WIDTH = 50
_FORMS = 21  # fixed notation at decpt -3..16, and exponent notation


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
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32, and their trailing zeros.

    0 is given 64, so that the fewest trailing zeros over f's groups, each
    group's count plus four per group after it, come from its last nonzero
    group.
    """
    digits = (np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10)
    digits = digits.astype(np.uint8)
    trailing = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1, dtype=np.uint8)
    trailing[0] = 64
    return (digits + ord("0")).view(np.uint32).ravel(), trailing


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Templates and digit masks by layout, and exponent text by decimal point.

    A template has 22 digit slots: '0', the 20 digits of f zero-padded, '0',
    so f's 17 digits start at digit slot 4.  A point slot follows each digit
    slot but the last.  A value's layout is (lead 17 + last) _FORMS + form:
    lead is 1 when f has 16 digits, last indexes the last nonzero of f's 17,
    and form is decpt + 3 in fixed notation (decpt -3..16) and _FORMS - 1 in
    exponent notation.  A negative value's template is 2 17 _FORMS further
    on.  Bytes a value drops are 0, and its digit mask is 0xFF on the digit
    slots 1..20 it keeps.  The exponent text of decpt, 'e', sign and three
    digit slots, is at decpt - K_MIN - 16.
    """
    negative, lead, last, form = np.indices((2, 2, 17, _FORMS), dtype=np.int8).reshape(4, -1, 1)
    fixed = form < _FORMS - 1
    point = np.where(fixed, lead + 1 + form, lead + 5)  # the digit slot the point precedes
    first = np.minimum(lead + 4, point - 1)
    end = np.where(fixed, np.maximum(last + 5, point + 1), last + 5)  # past the last digit slot kept
    slot = np.arange(22, dtype=np.int8)
    kept = (slot >= first) & (slot < end)
    templates = np.zeros((len(form), WIDTH), dtype=np.uint8)
    templates[:, 0] = ord("-") * negative[:, 0]
    templates[:, 1:44:2] = ord("0") * kept
    templates[:, 2:43:2] = ord(".") * ((slot[:21] == point - 1) & (fixed | (last > lead)))
    templates[:, -1] = ord(",")
    exponents = b"".join(b"\0" * 5 if -3 <= decpt <= 16
                         else b"e" + (b"-" if decpt < 1 else b"+") + (b"%02d" % abs(decpt - 1)).rjust(3, b"\0")
                         for decpt in range(K_MIN + 16, K_MAX + 18))
    return (templates, 0xFF * kept[:len(kept) // 2, 1:21].astype(np.uint8),
            np.frombuffer(exponents, dtype=np.uint8).reshape(-1, 5))


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
    """The CSV text of block's rows, with NULs among it.

    Each value takes the template of WIDTH bytes that _layouts() holds for its
    sign, digits and decimal point; its masked digits and its exponent are
    copied in.  The bytes a value drops are 0.
    """
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64)
    biased = x.view(np.uint64) >> 52 & 0x7FF
    special = (biased == 0) | (biased == 0x7FF)  # zero, subnormal, inf or nan
    f, k = _shortest(np.where(special, 1.0, x))

    # f's 17 digits, zero-padded to 20, as five groups of four
    hi, lo = np.divmod(f, 10**8)
    top, hi = np.divmod(hi.astype(np.uint32), 10**8)
    groups = (top, *np.divmod(hi, 10**4), *np.divmod(lo.astype(np.uint32), 10**4))
    quads, zeros = _quads()
    trailing = functools.reduce(np.minimum, (zeros[g] + 4 * (4 - i) for i, g in enumerate(groups)))
    lead = f < 10**16  # f has 16 digits, so its first is a padding zero
    decpt = 17 - lead + k  # x = 0.d1d2... 10^decpt
    form = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, _FORMS - 1)
    layout = (lead * 17 + 16 - trailing) * _FORMS + form

    head = prefix.encode()
    buf = np.empty((rows, len(head) + cols * WIDTH), dtype=np.uint8)
    buf[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    text = buf[:, len(head):].reshape(rows, cols, WIDTH)
    templates, digit_masks, exponents = _layouts()
    np.take(templates, layout + (x.view(np.int64) < 0) * (2 * 17 * _FORMS), axis=0, out=text, mode="clip")
    digits = quads[np.stack(groups, axis=-1)].view(np.uint8).reshape(rows, cols, 20)
    digits &= np.take(digit_masks, layout, axis=0)
    text[..., 3:42:2] = digits
    where = np.nonzero(form == _FORMS - 1)  # only exponent form writes an exponent
    text[where + (slice(44, 49),)] = exponents[decpt[where] - (K_MIN + 16)]
    text[:, -1, -1] = ord("\n")

    for r, j in zip(*np.nonzero(special)):
        word = str(float(x[r, j])).encode()
        text[r, j, :-1] = 0
        text[r, j, :len(word)] = np.frombuffer(word, dtype=np.uint8)
    return buf
