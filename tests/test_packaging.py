"""pyproject.toml declares the scipy range that ``pdrwm._compiled``
reproduces, and the installed scipy lies in it."""

import importlib.metadata
import tomllib
from pathlib import Path

from packaging.requirements import Requirement

from pdrwm import _compiled

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_declares_the_reproduced_scipy():
    dependencies = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    declared = [Requirement(d) for d in dependencies if Requirement(d).name == "scipy"]
    assert [str(r) for r in declared] == [str(Requirement(_compiled.SCIPY_RANGE))]
    assert declared[0].specifier.contains(importlib.metadata.version("scipy"))


def test_mismatch_names_the_range_and_the_installed_scipy():
    err = _compiled._mismatch("a message", "scipy.integrate._quadpack")
    assert err.name == "scipy.integrate._quadpack"
    assert str(err) == (
        f"a message; this module reproduces {_compiled.SCIPY_RANGE}, and scipy "
        f"{importlib.metadata.version('scipy')} is installed"
    )
