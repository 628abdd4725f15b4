"""QUADPACK, Brent's method, LAPACK, BLAS and ARPACK from scipy's
compiled extensions.

``scipy.integrate.quad``, ``scipy.optimize.brentq``,
``scipy.linalg.eigh`` and ``scipy.sparse.linalg.eigsh`` are Python
wrappers over compiled routines: QUADPACK's ``qagse``/``qagpe`` in
``scipy/integrate/_quadpack``, Brent's method in ``scipy/optimize/_zeros``,
LAPACK's ``dpotrf``, ``dpotrs`` and ``dsyevr`` in ``scipy/linalg/_flapack``,
BLAS's ``dsymv`` in ``scipy/linalg/_fblas``, and ARPACK's
``dsaupd``/``dseupd`` (Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*,
SIAM 1998) in ``scipy/sparse/linalg/_eigen/arpack/_arpacklib``.  Importing
a subpackage loads all of it: about 44 MB of resident memory for
``scipy.integrate`` or ``scipy.optimize``, and 26 MB for ``scipy.linalg``
with ``scipy.sparse.linalg``.  This module loads only the extension files,
from scipy's install directory, and calls them with exactly the arguments
the public wrappers pass (scipy 1.17, the :data:`SCIPY_RANGE` that
pyproject.toml declares), so every value keeps its bits.  The
one difference is that :func:`largest_eigenvalue` seeds the generator of
ARPACK's rare random start vectors, which ``eigsh`` leaves unseeded.  A
module scipy has already loaded is reused.  There is no fallback to the
public functions: a scipy whose files are laid out differently, that
lacks a routine, or whose ARPACK wrapper refuses scipy 1.17's solver
state raises an ``ImportError`` naming the mismatch, the supported
range and the installed scipy's version, and
tests/test_compiled.py compares both routes bit for bit.

Unlike ``quad``, :func:`quad` warns about nothing: QUADPACK's return
codes 1-5 and 7 (limit reached, roundoff, divergence...) are not
reported, and the caller judges the returned ``abserr``.  Code 6, input
QUADPACK refuses, raises as ``quad`` does.

:func:`one_blas_thread` runs a block with the OpenBLAS libraries bundled
in the scipy and numpy wheels at one thread, through each library's own
setter, so that a result does not depend on the caller's thread count;
a caller that gave BLAS more threads pays for this in wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ParameterError

#: the scipy releases whose extension layout and arguments this module
#: reproduces; pyproject.toml declares the same range
SCIPY_RANGE = "scipy>=1.17,<1.18"

# brentq's default relative tolerance, 4 * np.finfo(float).eps
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _mismatch(message: str, full: str, **kwargs) -> ImportError:
    """The ImportError for a scipy whose compiled modules this module does
    not match: ``message``, then the supported range and the installed
    scipy's version."""
    import importlib.metadata

    try:
        installed = f"scipy {importlib.metadata.version('scipy')} is installed"
    except importlib.metadata.PackageNotFoundError:
        installed = "no scipy distribution is installed"
    return ImportError(f"{message}; this module reproduces {SCIPY_RANGE}, and {installed}",
                       name=full, **kwargs)


@functools.cache
def _extension(subpackage: str, name: str):
    """Compiled module ``scipy.<subpackage>.<name>``, without importing
    its subpackage; ``subpackage`` may be dotted, as in
    ``"sparse.linalg._eigen.arpack"``."""
    full = f"scipy.{subpackage}.{name}"
    loaded = sys.modules.get(full)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise _mismatch(f"{full} needs scipy, which is not installed", full)
    folder = Path(spec.submodule_search_locations[0], *subpackage.split("."))
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for p in (folder / (name + s) for s in suffixes) if p.is_file()), None)
    if path is None:
        raise _mismatch(
            f"no compiled {full} in {folder}: looked for {name} with the "
            f"suffixes {', '.join(suffixes)}", full, path=str(folder / name),
        )
    loader = importlib.machinery.ExtensionFileLoader(full, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(full, path, loader=loader)
    )
    loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules as it loads;
    # left there without its subpackage, it would stand in for the
    # module a later import of the subpackage binds as an attribute
    if sys.modules.get(full) is module:
        del sys.modules[full]
    return module


def _break_points(points: Iterable[float], a: float, b: float) -> np.ndarray:
    """The float64 array ``qagpe`` reads, as ``quad`` builds it with
    ``np.unique``, a mask and ``np.concatenate``: the ``points`` strictly
    inside ``(a, b)``, sorted and de-duplicated, then two zeros.  The
    rule runs on Python floats.  ``points`` are read as float64
    values, as ``np.unique`` reads a list that holds a float; a NaN lies
    in no interval.  Of ``0.0`` and ``-0.0`` given together, the first given
    is kept, where ``np.unique`` keeps whichever its sort puts first.
    That sign cannot reach a node: a zero break point lies strictly
    between ``a`` and ``b``, and QUADPACK's centre ``0.5 * (x + z)`` and
    half-length ``0.5 * (x - z)`` of a subinterval from a nonzero ``x``
    to the zero ``z`` have the same bits for either zero."""
    return np.array([*sorted({p for p in map(float, points) if a < p < b}), 0.0, 0.0])


def quad(
    f: Callable[[float], float], a: float, b: float, *, epsabs: float,
    epsrel: float, limit: int, points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """``(value, abserr)`` of ``scipy.integrate.quad(f, a, b, ...)`` for
    finite ``a <= b``, with the same bits.  Without ``points`` it runs
    ``qagse``; with them (even none) ``qagpe``, on the array of
    :func:`_break_points`."""
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ParameterError(f"quadrature bounds must be finite with a <= b, got {a!r}, {b!r}")
    if a == b:
        return 0.0, 0.0
    quadpack = _extension("integrate", "_quadpack")
    if points is None:
        val, abserr, ier = quadpack._qagse(f, a, b, (), 0, epsabs, epsrel, limit)
    else:
        breaks = _break_points(points, a, b)
        val, abserr, ier = quadpack._qagpe(f, a, b, breaks, (), 0, epsabs, epsrel, limit)
    if ier == 6:
        raise ParameterError(
            f"QUADPACK refused its input on [{a!r}, {b!r}]: limit {limit}, "
            f"epsabs {epsabs!r}, epsrel {epsrel!r}"
            + ("" if points is None else f", {len(breaks) - 2} break points")
        )
    return val, abserr


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in the sign-changing bracket ``[a, b]``, as
    ``scipy.optimize.brentq(f, a, b, xtol=xtol)`` finds it, bit for bit:
    same relative tolerance and iteration cap, and a NaN value of ``f``
    stops the solve with a ``ValueError`` (here a ParameterError)."""
    def guarded(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ParameterError(f"the function value at x={x!r} is NaN; Brent's method cannot continue")
        return fx

    zeros = _extension("optimize", "_zeros")
    return zeros._brentq(guarded, a, b, xtol, _BRENT_RTOL, _BRENT_MAXITER, (), False, True)


def _routine(subpackage: str, module: str, name: str):
    """Routine ``name`` of the compiled ``scipy.<subpackage>.<module>``."""
    try:
        return getattr(_extension(subpackage, module), name)
    except AttributeError:
        full = f"scipy.{subpackage}.{module}"
        raise _mismatch(f"{full} has no routine {name}", full) from None


def symv(a: np.ndarray, x: np.ndarray, *, lower: int) -> np.ndarray:
    """``a @ x`` by BLAS ``dsymv``, which reads only the ``lower`` (1) or
    upper (0) triangle of the symmetric ``a``, as
    ``get_blas_funcs("symv", (a,))(1.0, a, x, lower=lower)`` calls it."""
    return _routine("linalg", "_fblas", "dsymv")(1.0, a, x, lower=lower)


def potrf(a: np.ndarray, *, lower: int) -> tuple[np.ndarray, int]:
    """LAPACK ``dpotrf`` of the Fortran-ordered ``a``, in place
    (``overwrite_a=1, clean=0``, as ``get_lapack_funcs("potrf")`` is
    called): the array holding the Cholesky factor in its ``lower`` or
    upper triangle, and LAPACK's ``info``."""
    return _routine("linalg", "_flapack", "dpotrf")(a, lower=lower, overwrite_a=1, clean=0)


def potrs(factor: np.ndarray, b: np.ndarray, *, lower: int) -> np.ndarray:
    """Solution x of ``A x = b`` from the Cholesky factor of A that
    :func:`potrf` returned, by LAPACK ``dpotrs``; ``b`` is not
    overwritten."""
    x, info = _routine("linalg", "_flapack", "dpotrs")(factor, b, lower=lower)
    if info != 0:
        raise NumericError(f"LAPACK dpotrs rejected argument {-info}")
    return x


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric ``a`` from its lower
    triangle, overwriting ``a``: LAPACK ``dsyevr`` with the workspace its
    size query asks for, as ``scipy.linalg.eigh(a, eigvals_only=True,
    overwrite_a=True)`` calls it."""
    n = len(a)
    work, iwork, info = _routine("linalg", "_flapack", "dsyevr_lwork")(n=n, lower=True)
    if info != 0:
        raise NumericError(f"LAPACK dsyevr's workspace query failed with info {info}")
    w, *_, info = _routine("linalg", "_flapack", "dsyevr")(
        a=a, overwrite_a=True, lower=True, compute_v=0, lwork=int(work), liwork=int(iwork),
    )
    if info != 0 or not np.all(np.isfinite(w)):
        raise NumericError(
            f"LAPACK dsyevr failed on a {n} x {n} matrix (info {info}); a "
            "non-finite entry gives non-finite eigenvalues"
        )
    return w


class ArpackNoConvergence(NumericError):
    """ARPACK's Lanczos iteration reached its cap (``dsaupd`` info 1)
    before the requested eigenvalue converged."""


_ARPACK = "sparse.linalg._eigen.arpack"

#: ARPACK's solver state as scipy 1.17's ``_ArpackParams`` starts it for
#: ``eigsh``'s standard problem (``mode`` 1): ``which`` 6 is "LA",
#: ``bmat`` 0 the identity "I", ``tol`` 0 machine precision; ``info``,
#: ``maxiter``, ``n``, ``ncv`` and ``nev`` are set per solve
_ARPACK_STATE = {
    "tol": 0, "getv0_rnorm0": 0.0, "aitr_betaj": 0.0, "aitr_rnorm1": 0.0,
    "aitr_wnorm": 0.0, "aup2_rnorm": 0.0, "ido": 0, "which": 6, "bmat": 0,
    "info": 0, "iter": 0, "maxiter": 0, "mode": 1, "n": 0, "nconv": 0, "ncv": 0,
    "nev": 0, "np": 0, "shift": 1, "getv0_first": 0, "getv0_iter": 0,
    "getv0_itry": 0, "getv0_orth": 0, "aitr_iter": 0, "aitr_j": 0, "aitr_orth1": 0,
    "aitr_orth2": 0, "aitr_restart": 0, "aitr_step3": 0, "aitr_step4": 0,
    "aitr_ierr": 0, "aup2_initv": 0, "aup2_iter": 0, "aup2_getv0": 0,
    "aup2_cnorm": 0, "aup2_kplusp": 0, "aup2_nev": 0, "aup2_nev0": 0,
    "aup2_np0": 0, "aup2_numcnv": 0, "aup2_update": 0, "aup2_ushift": 0,
}


def _arpack(name: str, *args) -> None:
    """Call ARPACK's wrapper ``name``; one that refuses scipy 1.17's state
    or work arrays belongs to a scipy this module does not match."""
    routine = _routine(_ARPACK, "_arpacklib", name)
    try:
        routine(*args)
    except (SystemError, KeyError, TypeError, ValueError) as err:
        full = f"scipy.{_ARPACK}._arpacklib"
        raise _mismatch(
            f"{full}.{name} refused the ARPACK state and work arrays of scipy "
            f"1.17's eigsh: {err}", full,
        ) from err


def largest_eigenvalue(
    matvec: Callable[[np.ndarray], np.ndarray], v0: np.ndarray, *, ncv: int, maxiter: int,
) -> float:
    """Largest eigenvalue of the symmetric operator ``matvec`` on vectors
    of ``n = len(v0)``, by ARPACK's implicitly restarted Lanczos from the
    start vector ``v0`` with ``ncv`` basis vectors, ``2 <= ncv < n``, and
    at most ``maxiter >= 1`` iterations (restarts): exactly
    ``scipy.sparse.linalg.eigsh(LinearOperator((n, n), matvec=matvec,
    dtype=float), k=1, which="LA", v0=v0, ncv=ncv, maxiter=maxiter,
    return_eigenvectors=False)[0]``.  At the cap it raises
    :class:`ArpackNoConvergence`.

    ARPACK asks for a random vector only where its Lanczos basis breaks
    down on an invariant subspace.  eigsh draws these from an unseeded
    generator; here they come from one generator seeded with 0 per solve,
    so every solve is repeatable, and equals eigsh's whenever eigsh's
    generator draws what seed 0 draws."""
    n = len(v0)
    state = {**_ARPACK_STATE, "info": 1, "maxiter": int(maxiter), "n": n,
             "ncv": ncv, "nev": 1}
    # ARPACK overwrites its start vector
    resid = np.array(v0, dtype=float)
    v = np.zeros((n, ncv))
    ipntr = np.zeros(11, dtype=np.int32)
    workd = np.zeros(3 * n)
    workl = np.zeros(ncv * (ncv + 8))
    rng = None
    while True:
        _arpack("dsaupd_wrap", state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        x = workd[ipntr[0]:ipntr[0] + n]
        y = slice(ipntr[1], ipntr[1] + n)
        if ido in (1, 5):
            workd[y] = matvec(x)
        elif ido == 4:
            rng = rng or np.random.default_rng(0)
            resid[:] = rng.uniform(low=-1.0, high=1.0, size=[n])
        elif ido == 99:
            break
        else:
            # 2 (a product with B) and 3 (user shifts) are never asked of
            # a standard problem with ARPACK's own shifts
            raise NumericError(f"ARPACK made request ido={ido} of a standard eigenproblem")
    if state["info"] == 1:
        raise ArpackNoConvergence(
            f"ARPACK's Lanczos reached its cap of {maxiter} iterations with "
            f"{state['nconv']}/1 eigenvalues converged"
        )
    if state["info"] != 0:
        raise NumericError(f"ARPACK dsaupd failed with info {state['info']}")
    state["info"] = 0
    d = np.zeros(1)
    _arpack(
        "dseupd_wrap", state, False, 0, np.zeros(ncv, dtype=np.int32), d,
        np.zeros((n, ncv), order="F"), 0, resid, v, ipntr, workd, workl,
    )
    if state["info"] != 0 or state["nconv"] < 1:
        raise NumericError(
            f"ARPACK dseupd failed with info {state['info']}, "
            f"{state['nconv']} eigenvalues converged"
        )
    return float(d[0])


#: the OpenBLAS a wheel bundles: its file name's stem, and the suffix of
#: its scipy_openblas_set_num_threads and _get_num_threads symbols
_OPENBLAS = {"scipy": ("libscipy_openblas", ""), "numpy": ("libscipy_openblas64_", "64_")}


@functools.cache
def _openblas_threads(package: str):
    """``(set, get)`` of the thread count of the OpenBLAS bundled with
    ``package``'s wheel, or None where no such library is found."""
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return None
    root = Path(spec.submodule_search_locations[0])
    stem, suffix = _OPENBLAS[package]
    # manylinux and Windows wheels keep it in <package>.libs, macOS
    # wheels in <package>/.dylibs
    found = [p for folder in (root.parent / f"{package}.libs", root / ".dylibs")
             for p in sorted(folder.glob(stem + "[-.]*"))]
    if len(found) != 1:
        return None
    import ctypes

    try:
        library = ctypes.CDLL(str(found[0]))
        setter = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
        getter = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


@contextlib.contextmanager
def one_blas_thread(*packages: str):
    """Run the block with the OpenBLAS bundled with each of ``packages``
    (``"scipy"``, ``"numpy"``) at one thread, and restore each library's
    thread count afterwards.  Summation order, and so the last bit of a
    BLAS or LAPACK result, can depend on the thread count.  A package
    whose bundled OpenBLAS is not found is left as it is: its results may
    then depend on the caller's thread count.  Usable as a decorator."""
    pinned = []
    try:
        for package in packages:
            found = _openblas_threads(package)
            if found is not None:
                setter, getter = found
                pinned.append((setter, getter()))
                setter(1)
        yield
    finally:
        for setter, before in reversed(pinned):
            setter(before)
