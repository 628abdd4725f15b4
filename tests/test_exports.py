"""The package has one export surface: what a module lists in
``__all__`` is importable from ``pdrwm`` itself.  Importing it loads no
scipy: each scipy subpackage is imported by the functions that use it,
and the quadratures, the step-size solve and the spectral solve import
none."""

import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pdrwm
from pdrwm.experiments import OUTPUT_DIR_ENV, load_config, run_scenario

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdrwm.__path__) if m.name[0] != "_")


@pytest.mark.parametrize("module", MODULES)
def test_listed_names_are_package_attributes(module):
    listed = getattr(importlib.import_module(f"pdrwm.{module}"), "__all__", ())
    assert [name for name in listed if not hasattr(pdrwm, name)] == []


# Calls the truncated-Gaussian mass, which imports scipy.special inside
# its body, and the spectral solve, which reaches LAPACK, BLAS and ARPACK
# through pdrwm._compiled, each once on a small input, in a process that
# has not loaded scipy yet; then prints the scipy.linalg and scipy.sparse
# modules loaded.  Criterion 9 (scipy.stats) is left out: it takes about
# 9 s, and its own test runs it.
FIRST_CALLS = """
import sys
import numpy as np
import pdrwm
from pdrwm.proposals import _log_gauss_mass

print(_log_gauss_mass(0.5, 1.0), _log_gauss_mass(-0.5, 0.5))
tail, field1 = pdrwm.make_exponential_tail(1.0), pdrwm.power_field(1.0)
chain = pdrwm.build_discretized(tail, field1, h=1.0, half_width=8.0, n=101)
print(pdrwm.spectral_gap(chain))
chain = pdrwm.build_discretized(tail, field1, h=1.0, half_width=15.0, n=301)
print(pdrwm.spectral_gap(chain))
print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse"))))
"""

# Calls every function that reaches QUADPACK or Brent's method: the chord
# quadrature (exact_rejection_disc, hemisphere_sweep), the drift
# quadrature and the step-size solve of the jump quadrature.  They load
# scipy's compiled modules through pdrwm._compiled, and import neither
# scipy.integrate nor scipy.optimize.
QUADRATURE_CALLS = """
import sys
import pdrwm

tail, field1 = pdrwm.make_exponential_tail(1.0), pdrwm.power_field(1.0)
print(pdrwm.exact_rejection_disc((0.0, 3.5)))
print(pdrwm.hemisphere_sweep()[-1])
print(pdrwm.drift_ratio_quadrature(tail, field1, 1.0, pdrwm.exp_abs(0.5), 5.0))
print(pdrwm.tuned_jump_quadrature(pdrwm.make_gaussian(), pdrwm.constant_field(1.0), 0.44, 8.0, 201))
print(sorted(m for m in sys.modules if m.startswith(("scipy.integrate", "scipy.optimize"))))
"""

# Runs every route of the Gaussian kernels of both 2-D fields, the 2-D
# closed-form acceptance and a ridge chain, then prints the scipy modules
# loaded: none, since the kernel factors and solves on Python floats.
KERNEL_CALLS = """
import sys
import numpy as np
import pdrwm

ridge, rng, x = pdrwm.make_ridge_2d(), np.random.default_rng(0), (0.5, -1.5)
for field, h in ((pdrwm.ridge_conditional_field(), 1.0), (pdrwm.power_field(1.0, dim=2), 0.5)):
    kernel = pdrwm.gaussian_proposal(field, h)
    at = kernel.at(x)
    y = kernel.sample(x, at, rng)
    print(at[1].tolist(), repr(at[2]), y, repr(kernel.log_q(y, x, at)))
    ys = kernel.sample_batch(np.array(x), 3, rng)
    print(ys.tolist(), kernel.log_q_batch(ys, np.array(x)).tolist())
    print(repr(pdrwm.log_accept_ratio_closed_form(ridge, field, h, np.array(x), np.array(y))))
kernel = pdrwm.gaussian_proposal(pdrwm.ridge_conditional_field(), 1.0)
traj = pdrwm.run_chain(ridge, kernel, [4.0, 0.0], 200, seed=3)
print(traj.states[-1].tolist(), traj.alpha.sum())
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# Imports the package, then loads the config named on the command line;
# prints whether PyYAML was loaded before and after.
YAML_CALLS = """
import sys
import pdrwm

print("yaml" in sys.modules)
print(pdrwm.load_config(sys.argv[1]).scenario)
print("yaml" in sys.modules)
"""

CUSTOM_CONFIG = """
scenario: custom
seed: 42
params:
  target: {name: exponential, a: 1.0}
  field: {name: power, b: 1.5}
  h: 1.0
  x0: [0.0]
  n_steps: 200
"""


def fresh_python(*args, env=None):
    """Run ``python -X importtime *args`` in a new process that finds this
    pdrwm; return it and the full names of the modules it imported."""
    src = str(Path(pdrwm.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # importtime writes "import time: self | cumulative | module" per import
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return proc, imported


def loaded(imported, package):
    """Whether ``package`` or any module inside it was imported."""
    return any(m == package or m.startswith(package + ".") for m in imported)


class TestStartUp:
    """``import pdrwm`` loads numpy only; PyYAML is imported by
    ``load_config``, and scipy by the functions that use it, and no
    sampling route is one of them, nor any quadrature or step-size solve.
    Each check needs a fresh process, since the test process has PyYAML
    and scipy loaded already."""

    def test_import_loads_no_scipy(self):
        _, imported = fresh_python("-c", "import pdrwm")
        assert "pdrwm" in imported and "numpy" in imported
        assert not loaded(imported, "scipy")

    def test_load_config_imports_yaml(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "figure1.yaml"
        proc, imported = fresh_python("-c", YAML_CALLS, str(config))
        assert proc.stdout.split() == ["False", "figure1", "True"]
        assert loaded(imported, "yaml")

    def test_list_scenarios_loads_no_scipy(self):
        proc, imported = fresh_python("-m", "pdrwm", "list-scenarios")
        assert "table1_grid" in proc.stdout
        assert not loaded(imported, "scipy")

    def test_gaussian_kernel_is_built_without_scipy(self, tmp_path):
        proc, imported = fresh_python("-c", KERNEL_CALLS)
        *values, scipy_modules = proc.stdout.splitlines()
        assert scipy_modules == "[]"
        assert not loaded(imported, "scipy")
        # the same values as in this process, where scipy is loaded
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(KERNEL_CALLS, {})
        assert values == here.getvalue().splitlines()[:-1]

        config = Path(__file__).resolve().parent.parent / "configs" / "figure2_data.yaml"
        out = tmp_path / "out"
        proc, imported = fresh_python("-m", "pdrwm", "run", str(config),
                                      env={OUTPUT_DIR_ENV: str(out)})
        assert (out / "figure2_data").is_dir()
        assert not loaded(imported, "scipy")

    def test_first_calls_in_a_fresh_process(self, tmp_path):
        proc, imported = fresh_python("-c", FIRST_CALLS)
        *values, linalg_modules = proc.stdout.splitlines()
        assert linalg_modules == "[]"
        for package in ("scipy.linalg", "scipy.sparse", "scipy.integrate"):
            assert not loaded(imported, package)
        assert loaded(imported, "scipy.special")
        # the same values as in this process, where scipy was loaded first
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(FIRST_CALLS, {})
        assert values == here.getvalue().splitlines()[:-1]

        config = tmp_path / "custom.yaml"
        config.write_text(CUSTOM_CONFIG)
        out = tmp_path / "out"
        proc, _ = fresh_python("-m", "pdrwm", "run", str(config),
                               env={OUTPUT_DIR_ENV: str(out)})
        assert "check chain_completed: PASS" in proc.stdout
        assert (out / "custom" / "custom_trajectory.csv").is_file()

    def test_quadratures_load_no_integrate_or_optimize(self, tmp_path, monkeypatch):
        proc, imported = fresh_python("-c", QUADRATURE_CALLS)
        *values, compiled_users = proc.stdout.splitlines()
        assert compiled_users == "[]"
        for package in ("scipy.integrate", "scipy.optimize"):
            assert not loaded(imported, package)
        # the same values as in this process, where both were loaded first
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(QUADRATURE_CALLS, {})
        assert values == here.getvalue().splitlines()[:-1]

        config = Path(__file__).resolve().parent.parent / "configs" / "lemma7_sweep.yaml"
        out = tmp_path / "fresh"
        proc, imported = fresh_python("-m", "pdrwm", "run", str(config),
                                      env={OUTPUT_DIR_ENV: str(out)})
        for package in ("scipy.integrate", "scipy.optimize"):
            assert not loaded(imported, package)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "here"))
        run_scenario(load_config(config))
        fresh = sorted((out / "lemma7_sweep").iterdir())
        assert [p.name for p in fresh] == sorted(p.name for p in (tmp_path / "here" / "lemma7_sweep").iterdir())
        for path in fresh:
            assert path.read_bytes() == (tmp_path / "here" / "lemma7_sweep" / path.name).read_bytes()
