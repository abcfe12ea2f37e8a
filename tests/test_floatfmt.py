"""Tests for the vectorised float printer; str(float) is the oracle."""

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmtlab import cli, floatfmt


def str_rows(block, prefix="") -> bytes:
    return "".join(prefix + ",".join(map(str, row)) + "\n" for row in block.tolist()).encode()


def with_neighbours(values) -> np.ndarray:
    """values, their negatives and the floats next to each, as one array."""
    x = np.array(values, dtype=float)
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("cols", [1, 4])
def test_random_bit_patterns(cols):
    # 200k patterns spread over every exponent, subnormals, inf and nan included
    bits = np.random.default_rng(cols).integers(0, 2**64, 200_000, dtype=np.uint64)
    block = bits.view(np.float64).reshape(-1, cols)
    assert floatfmt.format_rows(block, "shell:1,") == str_rows(block, "shell:1,")


def test_edge_values():
    edges = [2.0**e for e in range(-1074, 1024)] + [10.0**e for e in range(-323, 309)]
    edges += [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 2.0**53 - 1, 2.0**53 + 1, 2.0**53 + 2,
              2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 1e-323, 0.1, 0.3, 1e22, 1e23]
    with np.errstate(over="ignore"):
        x = with_neighbours(edges)
    x = np.concatenate([x, [0.0, -0.0, math.inf, -math.inf, math.nan]])
    block = x[:len(x) // 3 * 3].reshape(-1, 3)
    assert floatfmt.format_rows(block) == str_rows(block)


def test_draw_like_values():
    rng = np.random.default_rng(7)
    block = np.column_stack([rng.standard_cauchy(5000), rng.standard_normal(5000), rng.random(5000),
                             rng.integers(-10**17, 10**17, 5000).astype(float)])
    assert floatfmt.format_rows(block) == str_rows(block)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=st.floats(width=64)),
       st.sampled_from(["", "gaussian,", "two-shell:0.5,5,0.3,"]))
def test_matches_str(block, prefix):
    assert floatfmt.format_rows(block, prefix) == str_rows(block, prefix)


def repr_shape(x: float) -> tuple[int, int]:
    """(significant digits, decpt) of repr(x), with |x| = 0.d1d2... 10^decpt."""
    digits = Decimal(repr(x)).normalize().as_tuple()
    return len(digits.digits), len(digits.digits) + digits.exponent


def shaped(first: int, count: int, decpt: int) -> float:
    """A float whose repr has count significant digits, the first one first, and point decpt."""
    x = float(f"0.{(str(first) + '23456789' * 2)[:count]}e{decpt}")
    while repr_shape(x) != (count, decpt):  # past 15 digits a decimal need not read back as itself
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("cols", [1, 3])
def test_every_layout(cols):
    # each count of significant digits, each fixed-form point, and exponent form with one-, two- and
    # three-digit exponents; the first digit 1 or 9 makes Schubfach's significand 17 or 16 digits
    points = list(range(-3, 17)) + [-4, 17, -40, 60, -300, 300]
    x = np.array([shaped(first, count, decpt)
                  for first in (1, 9) for count in range(1, 18 - (first == 9)) for decpt in points])
    f, _ = floatfmt._shortest(x)
    assert ({(repr_shape(v), bool(lead)) for v, lead in zip(x.tolist(), f < 10**16)}
            == {((count, decpt), lead) for count in range(1, 18) for decpt in points for lead in (count < 17, False)})
    x = np.concatenate([x, -x])
    block = x[:len(x) // cols * cols].reshape(-1, cols)
    assert floatfmt.format_rows(block, "gaussian,") == str_rows(block, "gaussian,")


@pytest.mark.parametrize("cols", [1, 2, 5])
def test_label_padding(cols):
    # a label of any length is padded with NULs to whole words, so every value's slot stays aligned
    x = np.random.default_rng(cols).standard_cauchy(7 * cols)
    x[::4] = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.0, -1e16][:len(x[::4])]
    block = x.reshape(7, cols)
    for length in range(25):
        label = ("two-shell:0.5,5,0.3," * 2)[:length]
        assert floatfmt.format_rows(block, label) == str_rows(block, label)


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_temporaries_stay_small(cols):
    # one call's peak allocation at the emitter's chunk size, its tables already built, stays within
    # the 1222 KB (204 bytes a value) of the 50-byte-template formatter that this one replaced
    block = np.random.default_rng(cols).standard_cauchy((cli.EMIT_VALUES // cols, cols))
    floatfmt.format_rows(block[:1], "shell:1,")
    tracemalloc.start()
    try:
        floatfmt.format_rows(block, "shell:1,")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1222 * 1024


def test_empty_block():
    assert floatfmt.format_rows(np.empty((0, 3)), "gaussian,") == b""


def test_printer_is_loaded_and_built_on_first_use():
    # importing the runner compiles no printer and builds no table
    code = ("import sys\n"
            "from rmtlab import cli\n"
            "print('rmtlab.floatfmt' in sys.modules)\n"
            "from rmtlab import floatfmt\n"
            "tables = (floatfmt._powers_of_ten, floatfmt._digits, floatfmt._layouts)\n"
            "print([t.cache_info().currsize for t in tables])\n"
            "floatfmt.format_rows(cli.np.ones((1, 1)))\n"
            "print([t.cache_info().currsize for t in tables])\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split("\n")[:3] == ["False", "[0, 0, 0]", "[1, 1, 1]"]
