"""pdrwm._compiled calls QUADPACK, Brent's method, LAPACK, BLAS and
ARPACK with exactly the arguments of ``scipy.integrate.quad``,
``scipy.optimize.brentq``, ``scipy.linalg`` and
``scipy.sparse.linalg.eigsh``, so every area, drift ratio, solved step
size and eigenvalue must keep the public functions' bits, or raise the
same exception type.

This process imports scipy's subpackages first, so the route reuses
their compiled modules; ``TestRouteFirst`` reruns the properties in a
fresh process where the route loads the extension files itself before
scipy is imported.
"""

import contextlib
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg
from hypothesis import example, given
from hypothesis import strategies as st

import pdrwm
from pdrwm import (
    DiscretizationError,
    NumericError,
    ParameterError,
    abs_pow,
    build_discretized,
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
    spectral_gap,
    tuned_jump_quadrature,
)
from pdrwm import _compiled
from pdrwm.oracle import _deflate_stationary, _mirrored, _solve_step_size, _symmetric_block


def public_quad(f, a, b, **kwargs):
    """scipy's ``quad``, its IntegrationWarning for a nonzero return code
    silenced: the direct route reports none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(f, a, b, **kwargs)


def bits(value):
    if isinstance(value, tuple):
        return [bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return float(value).hex()


def traced(f, nodes):
    """``f``, recording the bits of each point it is called at (a digest
    for a vector)."""
    def g(x):
        if isinstance(x, np.ndarray):
            nodes.append(hashlib.blake2b(x.tobytes(), digest_size=16).hexdigest())
        else:
            nodes.append(float(x).hex())
        return f(x)
    return g


def scipy_error(err):
    """The exception type scipy raises where the route raises ``err``."""
    if isinstance(err, ParameterError):
        return ValueError
    if isinstance(err, _compiled.ArpackNoConvergence):
        return scipy.sparse.linalg.ArpackNoConvergence
    return type(err)


def same(f, ours, theirs):
    """Run both routes on ``f``: they must evaluate it at the same nodes
    and return the same bits, or raise the same exception type (scipy's
    ValueError where the route raises a ParameterError, its
    ArpackNoConvergence for the route's).  Duplicate break points, say,
    change the nodes but seldom the value."""
    mine_nodes, their_nodes = [], []
    try:
        mine = ours(traced(f, mine_nodes))
    except Exception as err:
        expected = scipy_error(err)
        with pytest.raises(expected):
            theirs(traced(f, their_nodes))
        assert mine_nodes == their_nodes
        raise
    assert bits(mine) == bits(theirs(traced(f, their_nodes)))
    assert mine_nodes == their_nodes
    return mine


def in_place(ours, theirs, a):
    """Run the in-place routine ``ours`` on ``a`` and ``theirs`` on a copy:
    the results and the overwritten matrices must have the same bits."""
    copy = a.copy(order="K")
    mine = ours(a)
    assert bits(mine) == bits(theirs(copy))
    assert bits(a) == bits(copy)
    return mine


def seeded(solve):
    """``solve`` with numpy's unseeded generators seeded with 0: ARPACK
    asks for random vectors where its Lanczos basis breaks down, and eigsh
    draws them from one unseeded generator per solve, where the route
    seeds its generator with 0."""
    real = np.random.default_rng

    def run(g):
        with mock.patch.object(np.random, "default_rng",
                               lambda seed=None: real(0 if seed is None else seed)):
            return solve(g)
    return run


def scipy_largest(matvec, v0, ncv, maxiter):
    op = scipy.sparse.linalg.LinearOperator((len(v0), len(v0)), matvec=matvec, dtype=float)
    return scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0, ncv=ncv, maxiter=maxiter,
                                     return_eigenvectors=False)[0]


@contextlib.contextmanager
def against_scipy():
    """Check every ``_compiled`` call of the block (``quad``, ``brentq``,
    ``symv``, ``potrf``, ``potrs``, ``eigvalsh``, ``largest_eigenvalue``)
    against scipy's public function; yields the calls made, as
    ``(name, f, a, b, points)`` for the quadratures and root solves and
    ``(name,)`` for the rest."""
    calls = []
    quad, brentq = _compiled.quad, _compiled.brentq
    symv, potrf, potrs = _compiled.symv, _compiled.potrf, _compiled.potrs
    eigvalsh, largest = _compiled.eigvalsh, _compiled.largest_eigenvalue

    def checked_quad(f, a, b, **kwargs):
        calls.append(("quad", f, a, b, kwargs.get("points")))
        return same(f, lambda g: quad(g, a, b, **kwargs),
                    lambda g: public_quad(g, a, b, **kwargs))

    def checked_brentq(f, a, b, xtol):
        calls.append(("brentq", f, a, b, None))
        return same(f, lambda g: brentq(g, a, b, xtol),
                    lambda g: scipy.optimize.brentq(g, a, b, xtol=xtol))

    def checked_symv(a, x, *, lower):
        calls.append(("symv",))
        mine = symv(a, x, lower=lower)
        assert bits(mine) == bits(scipy.linalg.get_blas_funcs("symv", (a,))(1.0, a, x, lower=lower))
        return mine

    def checked_potrf(a, *, lower):
        calls.append(("potrf",))
        return in_place(lambda m: potrf(m, lower=lower),
                        lambda m: scipy.linalg.get_lapack_funcs("potrf", (m,))(
                            m, lower=lower, overwrite_a=1, clean=0), a)

    def checked_potrs(factor, b, *, lower):
        calls.append(("potrs",))
        mine = potrs(factor, b, lower=lower)
        theirs = scipy.linalg.get_lapack_funcs("potrs", (factor,))(factor, b, lower=lower)[0]
        assert bits(mine) == bits(theirs)
        return mine

    def checked_eigvalsh(a):
        calls.append(("eigvalsh",))
        return in_place(eigvalsh, lambda m: scipy.linalg.eigh(m, eigvals_only=True,
                                                             overwrite_a=True), a)

    def checked_largest(matvec, v0, *, ncv, maxiter):
        calls.append(("largest_eigenvalue",))
        return same(matvec, lambda g: largest(g, v0, ncv=ncv, maxiter=maxiter),
                    seeded(lambda g: scipy_largest(g, v0, ncv, maxiter)))

    with mock.patch.multiple(
        _compiled, quad=checked_quad, brentq=checked_brentq, symv=checked_symv,
        potrf=checked_potrf, potrs=checked_potrs, eigvalsh=checked_eigvalsh,
        largest_eigenvalue=checked_largest,
    ):
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


@given(
    extra=st.integers(1, 58),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-2.0, 12.0),
    ncv=st.sampled_from([2, 5, 20]),
    maxiter=st.sampled_from([1, 3, 1000]),
)
# the basis breaks down once, and ARPACK asks for a random vector: the
# route, unpatched, must draw what eigsh's generator draws at seed 0
@example(extra=51, seed=53, shift=0.65, ncv=2, maxiter=1000)
def test_linear_algebra_matches_scipy(extra, seed, shift, ncv, maxiter):
    # a random symmetric matrix with more rows than the Lanczos basis,
    # shifted so that its Cholesky factorisation sometimes fails; Lanczos
    # on the matrix itself and on the inverse of the shifted one
    n = ncv + extra
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = np.asfortranarray(a + a.T)
    x = rng.standard_normal(n)
    with against_scipy() as calls:
        for lower in (0, 1):
            _compiled.symv(a, x, lower=lower)
        with contextlib.suppress(_compiled.ArpackNoConvergence):
            _compiled.largest_eigenvalue(lambda y: a @ y, x, ncv=ncv, maxiter=maxiter)
        factor, info = _compiled.potrf(a + shift * math.sqrt(n) * np.eye(n, order="F"), lower=1)
        if info == 0:
            _compiled.potrs(factor, x, lower=1)
            with contextlib.suppress(_compiled.ArpackNoConvergence):
                _compiled.largest_eigenvalue(lambda y: _compiled.potrs(factor, y, lower=1),
                                             np.linspace(1.0, 2.0, n), ncv=ncv, maxiter=maxiter)
        _compiled.eigvalsh(a.copy(order="F"))
    assert {"symv", "potrf", "eigvalsh", "largest_eigenvalue"} <= {c[0] for c in calls}


@given(
    target=st.sampled_from(TAILS),
    field=st.sampled_from(FIELDS),
    n=st.sampled_from([151, 200, 301]),
    half_width=st.floats(5.0, 10.0),
)
def test_spectral_solves_match_scipy(target, field, n, half_width):
    # the solve of a built chain, of the same chain solved whole, and the
    # dense eigenvalues of its blocks
    chain = build_discretized(target, field, 1.0, half_width, n)
    whole = dataclasses.replace(chain, rows=chain.transition, mirrored=False)
    with against_scipy() as calls:
        for c in (chain, whole):
            spectral_gap(c)
        for k in range(2):
            block = _symmetric_block(chain, k)
            _compiled.eigvalsh(_mirrored(block, block.diagonal().copy(), 1.0, 0.0))
    assert {"symv", "potrf", "potrs", "eigvalsh", "largest_eigenvalue"} <= {c[0] for c in calls}


def test_one_iteration_cap_does_not_converge():
    # Lanczos with five basis vectors on the inverse of 1.001 I - B, B
    # the deflated even block, needs more than one iteration
    chain = build_discretized(make_exponential_tail(1.0), power_field(1.0), 1.0, 15.0, 301)
    block = _symmetric_block(chain, 0)
    _deflate_stationary(chain, block)
    factor, info = _compiled.potrf(_mirrored(block, block.diagonal().copy(), -1.0, 1.001),
                                   lower=1)
    assert info == 0
    with against_scipy():
        with pytest.raises(_compiled.ArpackNoConvergence, match="cap of 1 iterations"):
            _compiled.largest_eigenvalue(lambda y: _compiled.potrs(factor, y, lower=1),
                                         np.linspace(1.0, 2.0, len(block)), ncv=5, maxiter=1)


# the properties above, rerun where the route loads first
PROPERTIES = [
    test_chord_quadratures_match_quad,
    test_drift_quadratures_match_quad,
    test_lemma3_large_step_quadrature_keeps_its_bits,
    test_brent_roots_match_brentq,
    test_step_size_brackets_match_brentq,
    test_jump_step_sizes_match_brentq,
    test_linear_algebra_matches_scipy,
    test_spectral_solves_match_scipy,
    test_one_iteration_cap_does_not_converge,
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


#: (subpackage, module) of every extension the route loads
EXTENSIONS = [("integrate", "_quadpack"), ("optimize", "_zeros"), ("linalg", "_flapack"),
              ("linalg", "_fblas"), ("sparse.linalg._eigen.arpack", "_arpacklib")]


class TestLoading:
    def test_reuses_the_modules_scipy_loaded(self):
        for subpackage, name in EXTENSIONS:
            assert _compiled._extension(subpackage, name) is \
                sys.modules[f"scipy.{subpackage}.{name}"]

    def test_missing_file_is_named(self):
        with pytest.raises(ImportError, match="scipy.integrate._no_such_module"):
            _compiled._extension.__wrapped__("integrate", "_no_such_module")
        with pytest.raises(ImportError, match=r"scipy\.sparse\.linalg\._eigen\.arpack\._none"):
            _compiled._extension.__wrapped__("sparse.linalg._eigen.arpack", "_none")

    def test_missing_routine_is_named(self):
        with pytest.raises(ImportError, match="scipy.linalg._flapack has no routine dnosuch"):
            _compiled._routine("linalg", "_flapack", "dnosuch")

    def test_arpack_state_mismatch_is_named(self):
        state = {k: v for k, v in _compiled._ARPACK_STATE.items() if k != "aitr_betaj"}
        with mock.patch.object(_compiled, "_ARPACK_STATE", state):
            with pytest.raises(ImportError, match="dsaupd_wrap refused the ARPACK state"):
                _compiled.largest_eigenvalue(lambda y: y, np.linspace(1.0, 2.0, 30),
                                             ncv=20, maxiter=5)


ROUTE_FIRST = """
import sys
from pdrwm import _compiled

EXTENSIONS = {extensions!r}
loaded = [_compiled._extension(subpackage, name) for subpackage, name in EXTENSIONS]
# the route loaded the files itself, leaving no module of their
# subpackages behind
assert not [m for m in sys.modules if m.startswith(
    ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse"))]
sys.path.insert(0, {tests!r})
import conftest, test_compiled

for (subpackage, name), module in zip(EXTENSIONS, loaded):
    assert module is not sys.modules[f"scipy.{{subpackage}}.{{name}}"]
for prop in test_compiled.PROPERTIES:
    prop()
    print(prop.__name__)
"""


class TestRouteFirst:
    def test_properties_hold_when_the_route_loads_first(self):
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(pdrwm.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", ROUTE_FIRST.format(tests=tests, extensions=EXTENSIONS)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.split() == [prop.__name__ for prop in PROPERTIES]
