"""CSV rows of whole columns at once, every float cell repr's bytes.

repr writes a double as the shortest decimal that reads back as the same
double, the nearest such when several are shortest (Gay, "Correctly
rounded binary-decimal and decimal-binary conversions", 1990).  Called on
each of a report's 10^5 cells it is most of the report's cost, so
_rows_text computes the same bytes for a chunk of rows in numpy:

* the digits by Giulietti's Schubfach ("The Schubfach way to render
  doubles", 2020) in uint64 arithmetic, its 64x64 -> 128-bit products
  built from 32-bit halves and its table of g(k) computed exactly with
  Python ints on first use.  It departs from Java's version in two places,
  so that it yields repr's digits and not Java's two-digit minimum: the
  subnormals below C_TINY are not rescaled by 10 (5e-324, not 4.9e-324),
  and the one-digit-shorter candidate is tried from s >= 10 on, not from
  s >= 100 (5e-323, not 4.9e-323);
* the text by repr's layout: each cell is a fixed field of byte slots
  (sign, the "0.000" prefix, 17 digits each followed by a dot slot, and
  e+XXX) copied from a table of the layouts repr uses, with its digits
  and exponent written in, and every slot repr does not write left 0.
  One bytes.translate over the chunk's buffer drops the 0s.

Every intermediate of the kernel is an explicit uint64 or int64 array and
no operation mixes the two: numpy promotes such a mix to float64, under
numpy 1.24's value-based casting as under numpy 2's rules.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_I = np.int64
_M32 = _U(0xFFFFFFFF)
_T_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)
_K_MIN, _K_MAX = -324, 292
# 10^0 .. 10^19, the largest powers of ten below 2^64
_POW10 = np.array([10 ** j for j in range(20)], dtype=_U)

# a float cell's slots, 0 where a layout may leave a slot unwritten
_FLOAT_TEMPLATE = np.frombuffer(b"-0.000" + b"\0." * 17 + b"e\0\0\0\0",
                                np.uint8)
_FLOAT_WIDTH = len(_FLOAT_TEMPLATE)
_DIGITS = slice(6, 40, 2)
_DOTS = slice(7, 40, 2)
_EXPONENT = slice(41, 45)
_SLOT = np.arange(17, dtype=_I)
# A finite nonzero cell's layout class is e_class * 18 + n, for n its
# significant digits and e the exponent of d.ddd 10^e: e_class is e + 4
# for the fixed notation, e in [-4, 15], else 20 for e+XX and e+XXX.
# Classes 21 * 18 + 0, 1 and 2 are 0.0, inf and nan; a negative cell's
# class is NEGATIVE more.
_N_CLASSES = 18
_ZERO_CLASS = 21 * _N_CLASSES
_NEGATIVE = _I(22 * _N_CLASSES)

# the most float cells formatted at once: the kernel holds some 40 uint64
# words per cell
_BLOCK_CELLS = 4096

@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The kernel's read-only tables, built on first use: "quads", the
    four ASCII digits of each n < 10^4; "exponents", the bytes after the
    "e" of e+XXX for each e in [-324, 308] (row e + 324, 0 for an unwritten
    hundreds digit), then a row of 0s; "layouts", each layout class's
    cell; "g", g(k) for k in [K_MIN, K_MAX] (column k - K_MIN) as its low
    and high 64-bit words."""
    n = np.arange(10_000, dtype=_U)
    quads = np.empty((len(n), 4), np.uint8)
    for j in range(4):
        quads[:, j] = n // _POW10[3 - j] % _U(10) + _U(48)
    e = np.arange(-324, 309, dtype=_I)
    exponents = np.zeros((len(e) + 1, 4), np.uint8)
    exponents[:-1] = quads[np.abs(e)]
    exponents[:-1, 0] = np.where(e < _I(0), ord("-"), ord("+"))
    exponents[:-1, 1] *= np.abs(e) >= _I(100)
    gs = [_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    tables = {"quads": quads, "exponents": exponents, "layouts": _layouts(),
              "g": np.array([[g & (2 ** 64 - 1) for g in gs],
                             [g >> 64 for g in gs]], dtype=_U)}
    for t in tables.values():
        t.flags.writeable = False
    return tables


def _layouts() -> np.ndarray:
    """Every layout class's cell: its constant bytes where repr writes
    them, 0 elsewhere, the digits and exponent included."""
    layout = np.arange(2 * _NEGATIVE, dtype=_I)
    negative, e_class = layout // _NEGATIVE, layout // _N_CLASSES % _I(22)
    n = layout % _I(_N_CLASSES)
    fixed, sci = e_class < _I(20), e_class == _I(20)
    e = np.where(fixed, e_class - _I(4), _I(0))
    left, right = fixed & (e < _I(0)), fixed & (e >= _I(0))
    written = np.zeros((len(n), _FLOAT_WIDTH), bool)
    written[:, 0] = negative == _I(1)
    written[:, 1] = written[:, 2] = left
    # "0.000": the zeros written for e <= -2, -3, -4
    written[:, 3:6] = fixed[:, None] & (e[:, None] <= -_SLOT[2:5])
    dot = np.where(right, e, np.where(sci & (n > _I(1)), _I(0), _I(-1)))
    written[:, _DOTS] = _SLOT == dot[:, None]
    written[:, 40] = sci
    cells = np.where(written, _FLOAT_TEMPLATE, 0).astype(np.uint8)
    for j, word in enumerate((b"0.0", b"inf", b"nan")):
        cells[(e_class == _I(21)) & (n == _I(j)), 6:9] = \
            np.frombuffer(word, np.uint8)
    return cells


def _g(k: int) -> int:
    """floor(10^-k 2^-r) + 1 for the r that puts 10^-k 2^-r in
    [2^125, 2^126): the 126-bit g(k) of Schubfach."""
    if k <= 0:
        p = 10 ** -k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1
    p = 10 ** k
    return (1 << (125 + p.bit_length())) // p + 1


def _mul(a0, a1, b0, b1):
    """High and low words of the 128-bit products (a1 2^32 + a0)
    (b1 2^32 + b0) of 32-bit uint64 halves."""
    low, high = a0 * b0, a1 * b1
    cross0, cross1 = a0 * b1, a1 * b0
    mid = low >> _U(32)
    mid += cross0 & _M32
    mid += cross1 & _M32
    high += cross0 >> _U(32)
    high += cross1 >> _U(32)
    high += mid >> _U(32)
    mid <<= _U(32)
    low &= _M32
    mid |= low
    return high, mid


def _product(g_low, g_high, cp):
    """The three words, most significant first, of the products of the
    126-bit g_high 2^64 + g_low and cp < 2^64."""
    p0, p1 = cp & _M32, cp >> _U(32)
    top, mid = _mul(g_high & _M32, g_high >> _U(32), p0, p1)
    carry, low = _mul(g_low & _M32, g_low >> _U(32), p0, p1)
    mid += carry
    top += mid < carry
    return top, mid, low


def _shl(high, low, s):
    """The three words of (high 2^64 + low) 2^s, for 1 <= s < 64 and
    high < 2^(64 - s), most significant first."""
    back = _U(64) - s
    return high >> back, (high << s) | (low >> back), low << s


def _round_to_odd(top, mid):
    """floor(P / 2^127) of the product P = (top, mid, low) of g(k) and
    c_b 2^h, its lowest bit set when bits 64 to 126 of P are not all
    zero.  As in Schubfach, the low word takes no part: g(k) exceeds
    10^-k 2^-r by less than 1 and c_b 2^h is below 2^64, so P exceeds the
    exact product by less than 2^64, and a quotient that is an integer in
    real arithmetic comes out exact here."""
    return ((top << _U(1)) + (mid >> _U(63))) | ((mid << _U(1)) != _U(0))


def _above(top, mid, low, s, g_low, g_high):
    """_round_to_odd of (top, mid, low) + g 2^s."""
    w2, w1, w0 = _shl(g_high, g_low, s)
    mid1 = mid + w1
    mid2 = mid1 + (low + w0 < w0)
    return _round_to_odd(top + w2 + ((mid1 < w1) | (mid2 < mid1)), mid2)


def _below(top, mid, low, s, g_low, g_high):
    """_round_to_odd of (top, mid, low) - g 2^s."""
    w2, w1, w0 = _shl(g_high, g_low, s)
    mid1 = mid - w1
    borrow = low < w0
    return _round_to_odd(top - w2 - ((mid < w1) | (mid1 < borrow)),
                         mid1 - borrow)


def _scaled(x: np.ndarray):
    """(k, vb, lo, hi) for each finite nonzero double x = c 2^q: vb is
    4 x 10^-k rounded to odd, and a decimal d 10^k reads back as x when
    lo <= 4 d <= hi."""
    c = x.view(_U) & _U((1 << 63) - 1)
    q = (c >> _U(52)).astype(_I)
    c &= _T_MASK
    # at c == C_MIN (not the least normal) the double below is half as
    # far as the one above
    irregular = (c == _U(0)) & (q > _I(1))
    c |= (q > _I(0)) * _C_MIN
    np.maximum(q, _I(1), out=q)
    q -= _I(1075)
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular, and
    # then q + floor(log2(10^-k)) + 2
    k = (q * _I(661_971_961_083) - irregular * _I(274_743_187_321)) >> _I(41)
    q += (-k * _I(913_124_641_741)) >> _I(38)
    h = (q + _I(2)).astype(_U)
    g_low, g_high = _tables()["g"][:, k - _I(_K_MIN)]
    # vb is P = g(k) 4c 2^h; the rounding interval's ends are
    # P -+ g(k) 2^(h+1), or P - g(k) 2^h when irregular
    top, mid, low = _product(g_low, g_high, c << (h + _U(2)))
    vb = _round_to_odd(top, mid)
    h += _U(1)
    hi = _above(top, mid, low, h, g_low, g_high)
    lo = _below(top, mid, low, h - irregular, g_low, g_high)
    # the interval holds its ends when c is even: round half to even
    # reads them back as x
    c &= _U(1)
    lo += c
    hi -= c
    return k, vb, lo, hi


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k), uint64 and int64, with f 10^k the decimal repr writes for
    each finite nonzero double of the contiguous x, f < 10^17 (f may end
    in zeros)."""
    k, vb, lo, hi = _scaled(x)
    s = vb >> _U(2)
    # of the one-digit-shorter candidates at most one lies in it
    sp10 = s // _U(10) * _U(10)
    upin = lo <= sp10 << _U(2)
    shorter = (s >= _U(10)) & (upin != ((sp10 + _U(10)) << _U(2) <= hi))
    # else s or s + 1, the nearer when both lie in it, the even on a tie
    uin, win = lo <= s << _U(2), (s + _U(1)) << _U(2) <= hi
    half = (s << _U(2)) + _U(2)
    take_s = uin & (~win | (vb < half)
                    | ((vb == half) & ((s & _U(1)) == _U(0))))
    return np.where(shorter, sp10 + ~upin * _U(10), s + ~take_s), k


def _digit_text(f: np.ndarray) -> np.ndarray:
    """The 17 ASCII decimal digits of each f < 10^17, leading zeros
    included, as an (n, 17) uint8 array."""
    quads = _tables()["quads"].view(np.uint32)[:, 0]
    out = np.empty((len(f), 5), np.uint32)
    head = f // _POW10[16]
    tail = f - head * _POW10[16]
    high = tail // _POW10[8]
    low = tail - high * _POW10[8]
    out[:, 0] = quads[head]
    for j, part in enumerate((high, low)):
        top = part // _POW10[4]
        out[:, 1 + 2 * j] = quads[top]
        out[:, 2 + 2 * j] = quads[part - top * _POW10[4]]
    return out.view(np.uint8)[:, 3:]


def _left_digits(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(text, width): the digits of each f < 10^17 from the first column
    of the (n, 17) text on, zeros after them, and their count (1 for 0)."""
    width = np.maximum(np.searchsorted(_POW10, f, side="right"),
                       1).astype(_I)
    return _digit_text(f * _POW10[_I(17) - width]), width


def _put_floats(cells: np.ndarray, x: np.ndarray) -> None:
    """Write repr of each double of the (n, r) block x into the
    (n, r, _FLOAT_WIDTH) view cells, 0 in the slots it does not use."""
    nan = np.isnan(x)
    plain = np.isfinite(x) & (x != 0.0)
    f, k = _shortest(x[plain])
    text, width = _left_digits(f)
    e = k + width - _I(1)                             # d.ddd 10^e
    n = _I(17) - np.argmax(text[:, ::-1] != 48, axis=1)
    fixed = (e >= _I(-4)) & (e < _I(16))
    layout = np.where(np.isinf(x), _I(_ZERO_CLASS + 1),
                      np.where(nan, _I(_ZERO_CLASS + 2), _I(_ZERO_CLASS)))
    layout[plain] = np.where(fixed, e + _I(4), _I(20)) * _N_CLASSES + n
    layout += (np.signbit(x) & ~nan) * _NEGATIVE
    np.take(_tables()["layouts"], layout, axis=0, out=cells)
    # a fixed number at or above 1 is padded with zeros to its units
    # digit and one place beyond it, the ".0"
    last = np.where(fixed & (e >= _I(0)), np.maximum(n, e + _I(2)), n)
    cells[plain, _DIGITS] = text * (_SLOT < last[:, None])
    cells[plain, _EXPONENT] = _tables()["exponents"][
        np.where(fixed, _I(633), e + _I(324))]


def _put_ints(cells: np.ndarray, r: range) -> None:
    """Write str of each int of r (nonnegative, below 10^17) into the
    rows of the (n, 17) view cells, 0 in the slots it does not use."""
    text, width = _left_digits(np.arange(r.start, r.stop, r.step,
                                         dtype=_U))
    np.multiply(text, _SLOT < width[:, None], out=cells)


def _rows_text(columns: list[np.ndarray | range | None]) -> str:
    """CSV text of the equal-length columns, one line per row, each
    ending in a newline: a float64 array's cells as repr writes them, a
    range's as str does, and a None column's cells empty."""
    n = next(len(c) for c in columns if c is not None)
    # adjacent float columns are laid out together, as (n, r) blocks of
    # at most _BLOCK_CELLS cells (or one column); every cell is followed
    # by its separator slot
    parts: list = []
    for c in columns:
        if (isinstance(c, np.ndarray) and parts and isinstance(parts[-1], list)
                and n * (len(parts[-1]) + 1) <= _BLOCK_CELLS):
            parts[-1].append(c)
        else:
            parts.append([c] if isinstance(c, np.ndarray) else c)
    widths = [1 if p is None else 18 if isinstance(p, range)
              else (_FLOAT_WIDTH + 1) * len(p) for p in parts]
    # numpy writes into the bytearray, which translate reads in place
    buf = bytearray(n * sum(widths))
    cells = np.frombuffer(buf, np.uint8).reshape(n, sum(widths))
    at = 0
    for p, w in zip(parts, widths):
        if isinstance(p, range):
            _put_ints(cells[:, at:at + 17], p)
        elif p is not None:
            block = cells[:, at:at + w].reshape(n, len(p), _FLOAT_WIDTH + 1)
            _put_floats(block[:, :, :-1], np.stack(p, axis=1))
            block[:, :, -1] = ord(",")
        at += w
        cells[:, at - 1] = ord(",")
    cells[:, -1] = ord("\n")
    # the text is ASCII, so no byte of it is 0
    return buf.translate(None, b"\0").decode("ascii")
