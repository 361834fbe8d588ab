"""The numpy not-a-knot spline of channel completion equals scipy's CubicSpline bit for bit.

scipy is the reference here only: the package itself never imports it.
Values always carry column axes, as ``interpolate_channel`` passes them
(``(knots, frames, m_r)``); a 1-D ``y`` sends ``CubicSpline``'s end rows
through numpy scalar arithmetic, which the helper does not replay.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from ofdmlink.estimation import _not_a_knot, interpolate_channel
from ofdmlink.framing import build_preamble, build_subcarrier_map

COLUMNS = [(1,), (2,), (4,), (1, 2), (3, 2), (16, 2), (10, 4)]  # (frames, m_r) and (m_r,)


@st.composite
def spline_cases(draw):
    """Knots, complex values ``(knots, *columns)`` and points beyond both ends."""
    n = draw(st.integers(4, 40), label="knots")
    if draw(st.booleans(), label="integer knots"):
        x = np.array(sorted(draw(st.sets(st.integers(-100, 100), min_size=n, max_size=n))))
        points = np.arange(x[0] - 4, x[-1] + 5)
    else:
        gaps = draw(st.lists(st.floats(1e-2, 10.0), min_size=n - 1, max_size=n - 1))
        x = draw(st.floats(-100.0, 100.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
        inner = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
        spread = x[0] + (x[-1] - x[0]) * (0.5 + 0.6 * np.array(inner))
        points = np.sort(np.concatenate((x, spread, [x[0] - 3.0, x[-1] + 3.0])))
    cols = draw(st.sampled_from(COLUMNS), label="columns")
    scale = 10.0 ** draw(st.floats(-3.0, 3.0), label="log10 magnitude")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="value seed"))
    y = scale * (rng.standard_normal((n, *cols)) + 1j * rng.standard_normal((n, *cols)))
    return x, y, points


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spline_cases())
def test_equals_cubic_spline(case):
    x, y, points = case
    assert points[0] < x[0] and points[-1] > x[-1]
    np.testing.assert_array_equal(_not_a_knot(x, y, points), CubicSpline(x, y)(points))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("m_t", [1, 2, 4])
def test_equals_cubic_spline_on_preamble_knots(m_t, n):
    pre = build_preamble(m_t, build_subcarrier_map(n))
    rng = np.random.default_rng(10 * n + m_t)
    for p in range(m_t):
        x = pre.used[pre.owner == p]
        y = rng.standard_normal((x.size, 3, 2)) + 1j * rng.standard_normal((x.size, 3, 2))
        got = _not_a_knot(x, y, pre.used)
        assert np.array_equal(got, CubicSpline(x, y)(pre.used))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_value_raises(bad, smap64):
    pre = build_preamble(2, smap64)
    e = np.ones((2, pre.used.size, 2), dtype=complex)
    e[1, 7, 0] = bad
    x = pre.used[pre.owner == 1]
    with pytest.raises(ValueError):
        _not_a_knot(x, np.moveaxis(e[..., pre.owner == 1, :], -2, 0), pre.used)
    with pytest.raises(ValueError):
        interpolate_channel(e, pre, smap64)
