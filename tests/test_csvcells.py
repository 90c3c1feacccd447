"""The CSV cell kernel (fixpoint.csvcells) against repr and str, cell by
cell.

* raw 64-bit patterns viewed as doubles, so both signs, subnormals, the
  infinities and every NaN payload are drawn, by hypothesis;
* a seeded sweep of over 10^6 draws: raw bit patterns, which spread over
  the whole exponent range, and short decimals, which take the
  one-digit-shorter candidate;
* fixed edge cases and their neighbours: every subnormal with mantissa
  below 5000, 2^e for e in [-1074, 1023] (the irregular spacing below
  c == C_MIN), 10^e for e in [-323, 308], the doubles about 2^53 and the
  points where repr switches layout;
* rows of several columns (ints, adjacent floats split into blocks, empty
  cells) against the cells joined by commas, also as a hypothesis property
  over columns of one bit pattern, index ranges across the quads' widths,
  one-row chunks and blocks of about 20% zeros, infinities and NaNs; and
  the orbit CSV of exact orbits across a chunk boundary;
* the kernel's exact parts: its digit and exponent arrays keep their
  uint64 and int64 dtypes, floor(log10(2^q)) and the other multiplier
  shortcuts are exact over every exponent, g(k) brackets 10^-k 2^-r, and
  no table is built at import.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fixpoint.csvcells import (_BLOCK_CELLS, _K_MAX, _K_MIN, _g,
                               _left_digits, _rows_text, _scaled, _shortest)
from fixpoint.gallery import make_map
from fixpoint.picard import _CSV_CHUNK, orbit_csv, orbit_exact

_PIECE = 4096


def _cells(x: np.ndarray) -> list[str]:
    """The cells _rows_text writes for the doubles x as one column, in
    pieces of _PIECE rows."""
    cells = []
    for lo in range(0, len(x), _PIECE):
        text = _rows_text([x[lo:lo + _PIECE]])
        assert text.endswith("\n")
        cells += text[:-1].split("\n")
    return cells


def _assert_reprs(x: np.ndarray) -> None:
    got, want = _cells(x), [repr(v) for v in x.tolist()]
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, wrong[:10]


def _doubles(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_cells_equal_repr_on_any_bit_pattern(bits):
    _assert_reprs(_doubles(bits))


def test_cells_equal_repr_on_a_million_draws():
    rng = np.random.default_rng(2026)
    _assert_reprs(rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64,
                               endpoint=False).view(np.float64))
    # decimals of 1 to 17 digits: their doubles' reprs are those decimals
    # or shorter ones, so the shorter candidate is taken often
    digits = rng.integers(1, 18, 2 ** 16)
    mantissas = rng.integers(0, 10 ** 17, 2 ** 16) // 10 ** (17 - digits)
    exponents = rng.integers(-340, 320, 2 ** 16)
    _assert_reprs(np.array([float(f"{m}e{e}")
                            for m, e in zip(mantissas, exponents)]))


_EDGES = {
    "subnormals": np.arange(1, 5000, dtype=np.uint64).view(np.float64),
    "powers-of-two": np.ldexp(1.0, np.arange(-1074, 1024)),
    "powers-of-ten": np.array([float(f"1e{e}") for e in range(-323, 309)]),
    "about-2^53": np.array([2.0 ** 53 - 1, float(2 ** 53 + 1),
                            2.0 ** 53 + 2]),
    "layout-switches": np.array([1e-5, 9.999999999999999e-05, 1e-4, 1e15,
                                 9999999999999998.0, 1e16, 1e22, 1e23]),
}


@pytest.mark.parametrize("name", _EDGES)
def test_cells_equal_repr_on_edge_cases(name):
    x = _EDGES[name]
    x = np.concatenate([x, np.nextafter(x, math.inf),
                        np.nextafter(x, -math.inf)])
    _assert_reprs(np.concatenate([x, -x]))


def test_cells_equal_repr_on_zeros_infinities_and_nan_payloads():
    _assert_reprs(np.array([0.0, -0.0, math.inf, -math.inf]))
    _assert_reprs(_doubles([0x7FF8000000000000, 0xFFF8000000000000,
                            0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
                            0x7FF4000000000000]))


@pytest.mark.parametrize("rows", [1, 3, _BLOCK_CELLS // 3 + 1,
                                  _BLOCK_CELLS + 1])
def test_rows_join_their_cells(rows):
    # ints, four adjacent float columns (one block or several, by the
    # rows), an empty column and a last float column
    rng = np.random.default_rng(rows)
    start = 10 ** 16 - rows // 2
    floats = rng.integers(0, 2 ** 64, (5, rows), dtype=np.uint64,
                          endpoint=False).view(np.float64)
    text = _rows_text([range(start, start + rows), *floats[:4], None,
                       floats[4]])
    assert text == "".join(
        ",".join([str(start + i), *map(repr, floats[:4, i].tolist()), "",
                  repr(floats[4, i].item())]) + "\n" for i in range(rows))


@pytest.mark.parametrize("r", [range(0, 1), range(1, 2050),
                               range(10 ** 17 - 3, 10 ** 17)])
def test_int_cells_equal_str(r):
    assert _rows_text([r]) == "".join(f"{i}\n" for i in r)


_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]
# a constant column writes its first cell once: every special, a
# subnormal and a normal
_CONSTANTS = [*_SPECIALS, 5e-324, -2.5e-310, 1.5, -1e22]


def _row_reference(columns, rows: int) -> str:
    def cell(c, i):
        return ("" if c is None else str(c[i]) if isinstance(c, range)
                else repr(c[i].item()))
    return "".join(",".join(cell(c, i) for c in columns) + "\n"
                   for i in range(rows))


def _assert_lines(got: str, want: str) -> None:
    # the differing lines, not a diff of the whole text, which is slow to
    # build for thousands of rows
    wrong = [(w, g) for w, g in zip(want.split("\n"), got.split("\n"))
             if w != g]
    assert not wrong, wrong[:5]
    assert len(got) == len(want)


@st.composite
def _float_columns(draw, rows: int) -> np.ndarray:
    kind = draw(st.sampled_from(["constant", "signed-zero", "mixed"]))
    if kind == "constant":
        return np.full(rows, draw(st.sampled_from(_CONSTANTS)))
    if kind == "signed-zero":
        # a zero column but for one zero of the other sign
        zero = draw(st.sampled_from([0.0, -0.0]))
        x = np.full(rows, zero)
        x[draw(st.integers(0, rows - 1))] = -zero
        return x
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.integers(0, 2 ** 64, rows, dtype=np.uint64,
                     endpoint=False).view(np.float64)
    special = rng.random(rows) < 0.2
    x[special] = rng.choice(_SPECIALS, int(special.sum()))
    return x


@st.composite
def _chunks(draw):
    rows = draw(st.one_of(st.just(1), st.integers(1, 2 * _CSV_CHUNK)))
    # starts at 0, across 10^4 and 10^8, up to 10^17 - 1
    start = draw(st.one_of(
        st.sampled_from([0, 10 ** 4 - rows // 2, 10 ** 8 - rows // 2,
                         10 ** 17 - rows]),
        st.integers(0, 10 ** 17 - rows)))
    columns = [range(start, start + rows)] if draw(st.integers(0, 3)) else []
    for _ in range(draw(st.integers(1, 6))):
        columns.append(None if draw(st.integers(0, 7)) == 0
                       else draw(_float_columns(rows)))
    if all(c is None for c in columns):
        columns.append(draw(_float_columns(rows)))
    return columns, rows


@given(_chunks())
@example(([range(9_999, 10_001), np.array([0.0, -0.0]), np.full(2, -0.0)], 2))
@example(([range(10 ** 8 - 2, 10 ** 8 + 1), np.full(3, math.nan), None,
           np.array([1.5, math.inf, -5e-324])], 3))
@example(([range(10 ** 17 - 1, 10 ** 17), np.array([-math.inf])], 1))
def test_rows_equal_the_cells_repr_and_str_write(chunk):
    columns, rows = chunk
    _assert_lines(_rows_text(columns), _row_reference(columns, rows))


@pytest.mark.parametrize("name,x0", [("rakotch-decay", [1.0]),
                                     ("constant", [0.5]),
                                     ("planar-rotation", [0.5, 0.25])])
def test_orbit_csv_across_a_chunk_boundary_equals_repr(name, x0):
    # an exact orbit's residuals are all 0.0; the constant map's points are
    # one value after the start, and the rotation's repeat every 8 steps
    orbit = orbit_exact(make_map(name).mapping, x0, 2 * _CSV_CHUNK + 5)
    pts, d = orbit.points, orbit.points.shape[1]
    want = ",".join(["i", *(f"x{j}" for j in range(d)), "residual"]) + "\n"
    want += "".join(
        ",".join([str(i), *map(repr, pts[i].tolist()),
                  "" if i == 0 else repr(orbit.residuals[i - 1].item())])
        + "\n" for i in range(len(pts)))
    _assert_lines("".join(orbit_csv(orbit)), want)


def test_kernel_keeps_its_integer_dtypes():
    x = np.concatenate([_EDGES[name] for name in _EDGES])
    x = x[np.isfinite(x) & (x != 0.0)]
    k, vb, lo, hi = _scaled(x)
    assert k.dtype == np.int64
    assert vb.dtype == lo.dtype == hi.dtype == np.uint64
    f, k = _shortest(x)
    assert f.dtype == np.uint64 and k.dtype == np.int64
    text, width = _left_digits(f)
    assert text.dtype == np.uint8 and width.dtype == np.int64


def _floor_log10(v: Fraction) -> int:
    k = math.floor(math.log10(v.numerator) - math.log10(v.denominator))
    while Fraction(10) ** k > v:
        k -= 1
    while Fraction(10) ** (k + 1) <= v:
        k += 1
    return k


def test_exponent_shortcuts_are_exact_on_every_exponent():
    # 1.5 2^(q+52) = (3 2^51) 2^q spaces its neighbours regularly and
    # gets k = floor(log10(2^q)); 2^52 2^q above the least normal is
    # irregular and gets floor(log10(3/4 2^q))
    q = np.arange(-1074, 972)
    k, _, _, _ = _scaled(np.ldexp(1.5, q + 52))
    assert k.tolist() == [_floor_log10(Fraction(2) ** int(e)) for e in q]
    q = q[1:]
    k, _, _, _ = _scaled(np.ldexp(1.0, q + 52))
    assert k.tolist() == [_floor_log10(Fraction(3, 4) * Fraction(2) ** int(e))
                          for e in q]


def test_g_brackets_the_power_of_ten():
    for k in range(_K_MIN, _K_MAX + 1):
        g = _g(k)
        assert 2 ** 125 < g <= 2 ** 126
        beta = Fraction(10) ** -k / Fraction(2) ** (_log2_floor(k) - 125)
        assert g - 1 <= beta < g


def _log2_floor(k: int) -> int:
    """floor(log2(10^-k))."""
    v = Fraction(10) ** -k
    e = v.numerator.bit_length() - v.denominator.bit_length()
    return e if Fraction(2) ** e <= v else e - 1


def test_no_table_is_built_at_import():
    code = ("import fixpoint, fixpoint.csvcells as c; "
            "assert c._tables.cache_info().currsize == 0")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
