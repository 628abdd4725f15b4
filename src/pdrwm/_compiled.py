"""QUADPACK and Brent's method from scipy's compiled extensions.

``scipy.integrate.quad`` and ``scipy.optimize.brentq`` are thin Python
wrappers over one compiled routine each (QUADPACK's ``qagse``/``qagpe``
in ``scipy/integrate/_quadpack``, Brent's method in
``scipy/optimize/_zeros``), but importing either subpackage loads all of
it, about 44 MB of resident memory and 0.4-0.5 s of CPU.  This module
loads only the two extension files, from scipy's install directory, and
calls them with exactly the arguments the public wrappers pass (scipy
1.17), so every value keeps its bits.  A module scipy has already
loaded is reused.  There is no fallback to the public functions: a
scipy whose files are laid out differently raises an ``ImportError``
naming the missing file, and tests/test_compiled.py compares both
routes bit for bit.

Unlike ``quad``, :func:`quad` warns about nothing: QUADPACK's return
codes 1-5 and 7 (limit reached, roundoff, divergence...) are not
reported, and the caller judges the returned ``abserr``.  Code 6, input
QUADPACK refuses, raises as ``quad`` does.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

# brentq's default relative tolerance, 4 * np.finfo(float).eps
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


@functools.cache
def _extension(subpackage: str, name: str):
    """Compiled module ``scipy.<subpackage>.<name>``, without importing
    its subpackage."""
    full = f"scipy.{subpackage}.{name}"
    loaded = sys.modules.get(full)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"{full} needs scipy, which is not installed", name=full)
    folder = Path(spec.submodule_search_locations[0], subpackage)
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for p in (folder / (name + s) for s in suffixes) if p.is_file()), None)
    if path is None:
        raise ImportError(
            f"no compiled {full} in {folder}: looked for {name} with the "
            f"suffixes {', '.join(suffixes)}", name=full, path=str(folder / name),
        )
    loader = importlib.machinery.ExtensionFileLoader(full, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(full, path, loader=loader)
    )
    loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules as it loads;
    # left there without its subpackage, it would stand in for the
    # module a later `import scipy.integrate` binds as an attribute
    if sys.modules.get(full) is module:
        del sys.modules[full]
    return module


def quad(
    f: Callable[[float], float], a: float, b: float, *, epsabs: float,
    epsrel: float, limit: int, points: Sequence[float] | None = None,
) -> tuple[float, float]:
    """``(value, abserr)`` of ``scipy.integrate.quad(f, a, b, ...)`` for
    finite ``a <= b``, with the same bits.  Without ``points`` it runs
    ``qagse``; with them (even none) ``qagpe``, after ``quad``'s
    break-point rule: sorted, de-duplicated, restricted to the open
    interval, plus two trailing zeros."""
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ParameterError(f"quadrature bounds must be finite with a <= b, got {a!r}, {b!r}")
    if a == b:
        return 0.0, 0.0
    quadpack = _extension("integrate", "_quadpack")
    if points is None:
        val, abserr, ier = quadpack._qagse(f, a, b, (), 0, epsabs, epsrel, limit)
    else:
        breaks = np.unique(points)
        breaks = breaks[(a < breaks) & (breaks < b)]
        breaks = np.concatenate((breaks, (0.0, 0.0)))
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
