"""``_compiled.quad``'s break-point rule runs on Python floats and must
build the float64 array ``scipy.integrate.quad`` builds with numpy."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdrwm import _compiled, hemisphere_sweep


def numpy_rule(points, a, b):
    """``scipy.integrate.quad``'s own break-point rule."""
    breaks = np.unique(points)
    breaks = breaks[(a < breaks) & (breaks < b)]
    return np.concatenate((breaks, (0.0, 0.0)))


ends = st.floats(-1e3, 1e3)
# ints and int64 scalars within 2**53, where a float64 holds them exactly
exact_ints = st.integers(-(2**53), 2**53)
points = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, math.nan]),
    exact_ints,
    st.builds(np.float64, st.floats(-1e3, 1e3)),
    st.builds(np.int64, exact_ints),
)


@st.composite
def intervals_and_points(draw):
    a, b = sorted([draw(ends), draw(ends)])
    given_points = draw(st.lists(st.one_of(points, st.sampled_from([a, b])), max_size=6))
    # repeats of points already drawn
    repeats = draw(st.lists(st.integers(0, 5), max_size=3))
    given_points += [given_points[i] for i in repeats if i < len(given_points)]
    return draw(st.permutations(given_points)), a, b


@settings(max_examples=300)
@given(intervals_and_points())
# repeats, both ends, outside, NaN, both zeros in either order, ints and
# numpy scalars
@example(([2.5, 1.0, 2.5, 3.0, 0.5, 4.0, math.nan], 1.0, 3.0))
@example(([0.0, -0.0, 1.0, -0.0], -1.0, 2.0))
@example(([-0.0, 0.0, -1.0, 0.0], -2.0, 1.0))
@example(([0.0, -0.0], 0.0, 1.0))
@example(([1, 2, 2, 5, -3], 0.0, 4.5))
@example(([np.float64(0.25), np.int64(1), 0.75, np.float64(0.25)], 0.0, 1.0))
def test_rule_builds_quads_array(case):
    points, a, b = case
    got, want = _compiled._break_points(points, a, b), numpy_rule(points, a, b)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # every nonzero entry, and the two trailing zeros, keeps its bits
    assert got[-2:].tobytes() == want[-2:].tobytes()
    nonzero = got != 0.0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()
    # a zero break point keeps the sign of the first zero given; np.unique
    # keeps whichever its sort puts first
    zeros = [p for p in points if p == 0 and a < 0.0 < b]
    if zeros:
        assert math.copysign(1.0, got[:-2][got[:-2] == 0.0][0]) == math.copysign(1.0, zeros[0])


def test_zero_breaks_sign_reaches_no_node():
    # a subinterval from a nonzero end to 0.0 or -0.0 has the same centre
    # and half-length, so QUADPACK evaluates the same nodes
    def run(zero):
        nodes = []

        def f(y):
            nodes.append(float(y).hex())
            return math.exp(-y * y) * (2.0 if y > 0.0 else 1.0)

        value = _compiled.quad(f, -1.5, 2.0, points=[zero], limit=50, epsabs=1e-12,
                               epsrel=1e-10)
        return [float(v).hex() for v in value], nodes

    assert run(0.0) == run(-0.0)


def test_sweep_calls_no_unique():
    expected = hemisphere_sweep()
    with mock.patch.object(np, "unique", side_effect=AssertionError("np.unique called")):
        assert hemisphere_sweep() == expected
