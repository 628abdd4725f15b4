"""pdrwm._compiled calls QUADPACK and Brent's method with exactly the
arguments of ``scipy.integrate.quad`` and ``scipy.optimize.brentq``, so
every area, drift ratio and solved step size must keep the public
functions' bits, or raise the same exception type.

This process imports scipy's subpackages first, so the route reuses
their compiled modules; ``TestRouteFirst`` reruns the properties in a
fresh process where the route loads the extension files itself before
scipy is imported.
"""

import contextlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import pdrwm
from pdrwm import (
    DiscretizationError,
    NumericError,
    ParameterError,
    abs_pow,
    chord_overlap_integral,
    constant_field,
    drift_ratio_quadrature,
    exp_abs,
    make_exponential_tail,
    make_gaussian,
    make_polynomial_tail,
    make_subexponential_tail,
    one_plus_square_field,
    power_field,
    tuned_jump_quadrature,
)
from pdrwm import _compiled
from pdrwm.oracle import _solve_step_size


def public_quad(f, a, b, **kwargs):
    """scipy's ``quad``, its IntegrationWarning for a nonzero return code
    silenced: the direct route reports none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(f, a, b, **kwargs)


def bits(value):
    return [float(v).hex() for v in (value if isinstance(value, tuple) else (value,))]


def traced(f, nodes):
    def g(x):
        nodes.append(float(x).hex())
        return f(x)
    return g


def same(f, ours, theirs):
    """Run both routes on ``f``: they must evaluate it at the same nodes
    and return the same bits, or raise the same exception type (scipy's
    ValueError where the route raises a ParameterError).  Duplicate
    break points, say, change the nodes but seldom the value."""
    mine_nodes, their_nodes = [], []
    try:
        mine = ours(traced(f, mine_nodes))
    except Exception as err:
        expected = ValueError if isinstance(err, ParameterError) else type(err)
        with pytest.raises(expected):
            theirs(traced(f, their_nodes))
        assert mine_nodes == their_nodes
        raise
    assert bits(mine) == bits(theirs(traced(f, their_nodes)))
    assert mine_nodes == their_nodes
    return mine


@contextlib.contextmanager
def against_scipy():
    """Check every ``_compiled.quad`` and ``_compiled.brentq`` call of the
    block against scipy's public function; yields the calls made, as
    ``(name, f, a, b, points)``."""
    calls = []
    quad, brentq = _compiled.quad, _compiled.brentq

    def checked_quad(f, a, b, **kwargs):
        calls.append(("quad", f, a, b, kwargs.get("points")))
        return same(f, lambda g: quad(g, a, b, **kwargs),
                    lambda g: public_quad(g, a, b, **kwargs))

    def checked_brentq(f, a, b, xtol):
        calls.append(("brentq", f, a, b, None))
        return same(f, lambda g: brentq(g, a, b, xtol),
                    lambda g: scipy.optimize.brentq(g, a, b, xtol=xtol))

    with mock.patch.object(_compiled, "quad", checked_quad), \
            mock.patch.object(_compiled, "brentq", checked_brentq):
        yield calls


TAILS = [make_exponential_tail(1.0), make_subexponential_tail(1.0, 0.5),
         make_polynomial_tail(2.0), make_gaussian()]
FIELDS = [constant_field(1.0), power_field(1.5), power_field(4.0), one_plus_square_field()]
LYAPUNOV = [exp_abs(0.5), abs_pow(0.25), abs_pow(2.0)]


@given(
    c1=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    c2=st.floats(0.0, 10.0),
    semi_width=st.floats(0.05, 3.0),
    semi_height=st.floats(0.05, 3.0),
    window=st.one_of(st.just(math.inf), st.floats(0.0, 3.0)),
    y_lo=st.floats(0.0, 10.0),
    span=st.floats(0.01, 3.0),
    extra=st.lists(st.floats(-20.0, 20.0), max_size=4),
)
def test_chord_quadratures_match_quad(c1, c2, semi_width, semi_height, window, y_lo,
                                      span, extra):
    # at c1 = 0 both clipping edges give the same break points, which the
    # route must de-duplicate as quad does; an infinite window gives none
    with against_scipy() as calls:
        with contextlib.suppress(NumericError):
            area = chord_overlap_integral(c1, c2, semi_width, semi_height, window,
                                          y_lo, y_lo + span)
            assert area == chord_overlap_integral(-c1, c2, semi_width, semi_height,
                                                  window, y_lo, y_lo + span)
        for _, chord, lo, hi, points in calls[:1]:
            # break points outside (lo, hi), at its ends and repeated
            more = [*points, *extra, lo, hi, *points]
            _compiled.quad(chord, lo, hi, points=more, limit=200, epsabs=1e-12, epsrel=1e-10)


@given(
    target=st.sampled_from(TAILS),
    field=st.sampled_from(FIELDS),
    lyapunov=st.sampled_from(LYAPUNOV),
    h=st.one_of(st.sampled_from([0.01, 1.0, 100.0]), st.floats(1e-3, 1e3)),
    x=st.floats(-200.0, 200.0),
)
def test_drift_quadratures_match_quad(target, field, lyapunov, h, x):
    with against_scipy():
        # a refused probe (V past the float range, a field value the
        # kernel refuses) must raise alike on both routes
        with contextlib.suppress(NumericError):
            drift_ratio_quadrature(target, field, h, lyapunov, x)


def test_lemma3_large_step_quadrature_keeps_its_bits():
    """lemma3_drift at h = 100, x = 50: the one shipped quadrature whose
    QUADPACK run ends with a nonzero return code, which quad would warn
    about and the route does not report."""
    with against_scipy() as calls:
        res = drift_ratio_quadrature(make_polynomial_tail(2.0), one_plus_square_field(),
                                     100.0, abs_pow(0.25), 50.0)
    assert res.estimate < 1.0
    codes = []
    for _, f, a, b, _ in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            out = scipy.integrate.quad(f, a, b, limit=400, epsabs=1e-12, epsrel=1e-10,
                                       full_output=1)
        codes.append(len(out) == 4)  # a fourth item is the message of ier != 0
    assert codes == [True, False]


@given(
    root=st.floats(-5.0, 5.0),
    slope=st.floats(0.1, 10.0),
    cubic=st.floats(0.0, 3.0),
    below=st.floats(1e-3, 10.0),
    above=st.floats(1e-3, 10.0),
    xtol=st.sampled_from([1e-10, 2e-12, 1e-6]),
)
def test_brent_roots_match_brentq(root, slope, cubic, below, above, xtol):
    def f(x):
        u = x - root
        return math.tanh(slope * u) + cubic * u * u * u

    with against_scipy():
        _compiled.brentq(f, root - below, root + above, xtol)


@given(
    rate=st.floats(0.05, 0.95),
    scale=st.floats(1e-2, 1e2),
    power=st.floats(0.5, 4.0),
    h0=st.floats(1e-3, 1e3),
    first_move=st.sampled_from([0.1, 1e-3]),
)
def test_step_size_brackets_match_brentq(rate, scale, power, h0, first_move):
    # acceptance falls as h grows, as the grid chain's does
    def moments(n, h):
        return 1.0 / (1.0 + (h / scale) ** power), 0.0

    with against_scipy() as calls:
        h = _solve_step_size(moments, 101, rate, h0, first_move)
    assert [name for name, *_ in calls] == ["brentq"]
    assert math.isclose(moments(101, h)[0], rate, rel_tol=1e-6)


@given(b=st.floats(0.0, 3.2), rate=st.floats(0.2, 0.7), n=st.sampled_from([201, 401]))
def test_jump_step_sizes_match_brentq(b, rate, n):
    with against_scipy() as calls:
        try:
            tuned_jump_quadrature(make_gaussian(), power_field(b), rate, 8.0, n)
        except DiscretizationError:
            return
    # one solve on each of the two grids
    assert [name for name, *_ in calls] == ["brentq", "brentq"]


# the properties above, rerun where the route loads first
PROPERTIES = [
    test_chord_quadratures_match_quad,
    test_drift_quadratures_match_quad,
    test_lemma3_large_step_quadrature_keeps_its_bits,
    test_brent_roots_match_brentq,
    test_step_size_brackets_match_brentq,
    test_jump_step_sizes_match_brentq,
]


class TestInvalidInput:
    """QUADPACK's invalid-input return (ier 6) and a NaN root-function
    value raise a ValueError, as scipy's wrappers do."""

    @pytest.mark.parametrize("kwargs", [
        {"limit": 0, "epsabs": 1e-12, "epsrel": 1e-10},
        {"limit": 50, "epsabs": 0.0, "epsrel": 0.0},
        {"limit": 2, "epsabs": 1e-12, "epsrel": 1e-10, "points": [0.25, 0.5, 0.75]},
    ])
    def test_refused_quadrature(self, kwargs):
        with pytest.raises(ValueError):
            public_quad(math.sin, 0.0, 1.0, **kwargs)
        with pytest.raises(ParameterError, match="QUADPACK refused its input"):
            _compiled.quad(math.sin, 0.0, 1.0, **kwargs)

    @pytest.mark.parametrize("f", [
        lambda x: math.nan,
        # finite at the bracket ends, NaN at the first interior probe
        lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5,
    ])
    def test_nan_root_function(self, f):
        with pytest.raises(ValueError, match="NaN"):
            scipy.optimize.brentq(f, 0.0, 1.0, xtol=1e-10)
        with pytest.raises(ParameterError, match="NaN"):
            _compiled.brentq(f, 0.0, 1.0, 1e-10)

    def test_bracket_without_sign_change(self):
        for solve in (lambda: scipy.optimize.brentq(math.exp, 0.0, 1.0, xtol=1e-10),
                      lambda: _compiled.brentq(math.exp, 0.0, 1.0, 1e-10)):
            with pytest.raises(ValueError, match="different signs"):
                solve()

    def test_bounds_must_be_ordered_and_finite(self):
        for a, b in ((1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ParameterError, match="bounds"):
                _compiled.quad(math.sin, a, b, limit=50, epsabs=1e-12, epsrel=1e-10)

    def test_empty_interval(self):
        # quad's shortcut: no QUADPACK call at all
        assert _compiled.quad(math.sin, 2.0, 2.0, limit=0, epsabs=0.0, epsrel=0.0) == (0.0, 0.0)


class TestLoading:
    def test_reuses_the_modules_scipy_loaded(self):
        assert _compiled._extension("integrate", "_quadpack") is \
            sys.modules["scipy.integrate._quadpack"]
        assert _compiled._extension("optimize", "_zeros") is sys.modules["scipy.optimize._zeros"]

    def test_missing_file_is_named(self):
        with pytest.raises(ImportError, match="scipy.integrate._no_such_module"):
            _compiled._extension.__wrapped__("integrate", "_no_such_module")


ROUTE_FIRST = """
import sys
from pdrwm import _compiled

loaded = [_compiled._extension("integrate", "_quadpack"), _compiled._extension("optimize", "_zeros")]
# the route loaded the files itself, leaving no scipy.integrate or
# scipy.optimize module behind
assert not [m for m in sys.modules if m.startswith(("scipy.integrate", "scipy.optimize"))]
sys.path.insert(0, {tests!r})
import conftest, test_compiled

assert loaded[0] is not sys.modules["scipy.integrate._quadpack"]
for prop in test_compiled.PROPERTIES:
    prop()
    print(prop.__name__)
"""


class TestRouteFirst:
    def test_properties_hold_when_the_route_loads_first(self):
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(pdrwm.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", ROUTE_FIRST.format(tests=tests)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.split() == [prop.__name__ for prop in PROPERTIES]
