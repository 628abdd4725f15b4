import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path
from types import UnionType

import pytest

import pdrwm
from pdrwm import experiments, verify
from pdrwm.cli import main
from pdrwm.experiments import OUTPUT_DIR_ENV, SCENARIOS


def write_config(tmp_path, text):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return str(p)


class TestListScenarios:
    def test_exit_zero_and_all_names(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1", "table1_grid", "esjd_scan", "custom"):
            assert name in out

    def test_parameters_and_defaults_listed(self, capsys):
        main(["list-scenarios"])
        out = capsys.readouterr().out
        assert "n_proposals: int = 2000" in out
        assert "tune_acceptance: float = 0.44" in out
        assert "x0: float | tuple[float, ...]\n" in out

    def test_each_scenario_shows_its_narrative(self, capsys):
        main(["list-scenarios"])
        out = capsys.readouterr().out
        for name, body in SCENARIOS.items():
            first, *rest = inspect.cleandoc(body.__doc__).splitlines()
            assert f"{name:<14} {first}\n" in out
            after = next(line for line in rest if line.strip())
            assert f"{'':<15}{after}\n" in out

    def test_closed_stdout_ends_quietly(self):
        # the reader is gone before the first write, as when a reader such
        # as `head` exits: exit code 0 and no traceback
        src = str(Path(pdrwm.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pdrwm", "list-scenarios"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


CUSTOM = "  target: {name: exponential, a: 1.0}\n  field: {name: power, b: 1.5}\n"

# (scenario, params block, key named on stderr)
BAD_CONFIGS = [
    ("lemma4_probe", "  n_stepz: 5\n", "n_stepz"),
    ("lemma4_probe", "  n: abc\n", "n"),
    ("figure1", "  n_proposals: 50\n", "n_proposals"),
    ("esjd_scan", "  n_steps: 50\n", "n_steps"),
    ("esjd_scan", "  tune_acceptance: 1.5\n", "tune_acceptance"),
    ("esjd_scan", "  tune_acceptance: 0.0\n", "tune_acceptance"),
    ("lemma2_drift", "  n: 10\n", "n"),
    ("custom", "  target: {name: exponential}\n  field: {name: power, b: 1.5}\n"
     "  x0: [0.0]\n  n_steps: 10\n", "target.a"),
    ("custom", "  target: {name: gaussian}\n  field: {name: tempered_langevin, cap: 3}\n"
     "  x0: [0.0]\n  n_steps: 10\n", "field.cap"),
    ("custom", "  target: {name: ridge}\n  field: {name: ridge_conditional, b: 2}\n"
     "  x0: [0.0, 0.0]\n  n_steps: 10\n", "field.b"),
    ("custom", "  target: {name: ridge}\n  field: {name: constant}\n"
     "  x0: [0.0, 0.0]\n  n_steps: 10\n", "field"),
    ("custom", "  target: {name: exponential, a: 1.0}\n"
     "  field: {name: constant, dim: 0}\n  x0: [0.0]\n  n_steps: 10\n", "field.dim"),
    ("custom", CUSTOM + "  x0: [0.0]\n  n_steps: 10\n  h: true\n", "h"),
    ("custom", CUSTOM + "  x0: [0.0]\n", "n_steps"),
    # staircase levels where the ellipse semi-width underflows (646 up)
    # or is 0.0 (680 up)
    ("lemma7_sweep", "  start_level: 700.0\n", "start_level"),
    ("lemma7_sweep", "  levels: [650]\n", "levels"),
    ("lemma7_sweep", "  levels: [700]\n", "levels"),
    ("figure3_data", "  probe_levels: [650]\n", "probe_levels"),
    ("figure3_data", "  probe_levels: [700]\n", "probe_levels"),
    ("lemma6_exact", "  mc_draws: 1\n", "mc_draws"),
    # b = 50 needs a step size the quadrature grid cannot resolve, and so
    # does every exponent at acceptance 0.999
    ("esjd_scan", "  b_values: [0.0, 50.0]\n  n_steps: 1000\n", "b_values"),
    ("esjd_scan", "  tune_acceptance: 0.999\n  b_values: [0.0, 1.0]\n", "tune_acceptance"),
]


# (scenario, point list key, YAML list, index of the bad point): off the
# target's support, or where the field value is inf
BAD_POINTS = [
    ("figure2_data", "arm_positions", "[.inf]", 0),
    ("figure2_data", "arm_positions", "[.nan]", 0),
    ("figure2_data", "arm_positions", "[0.0, 1.0e+200]", 1),
    ("figure1", "x_points", "[.inf]", 0),
    ("figure1", "x_points", "[5.0, 1.0e+300]", 1),
    ("lemma2_drift", "xs", "[.inf]", 0),
    ("lemma3_drift", "xs", "[50.0, .inf]", 1),
    ("lemma4_probe", "xs", "[.inf]", 0),
]

# the function in `experiments` that does each scenario's work per point
POINT_WORK = {
    "figure2_data": "log_accept_ratio_batch",
    "figure1": "_closed_form_at",
    "lemma2_drift": "drift_ratio",
    "lemma3_drift": "drift_ratio",
    "lemma4_probe": "acceptance_set_mass",
}

# (scenario, key, YAML 1.1 string, key named, message end): a number PyYAML
# reads as a string is refused, with the spelling that reads as the number;
# a word gets no spelling
EXPONENT_STRINGS = [
    ("figure1", "h", "abc", "h", "got 'abc'"),
    ("figure1", "h", "1.0e300", "h", "write 1.0e+300"),
    ("figure1", "h", "1e-3", "h", "write 0.001"),
    ("lemma4_probe", "n", "1e4", "n", "write 10000"),
    ("figure2_data", "arm_positions", "[0.0, 1e3]", "arm_positions[1]", "write 1000.0"),
    ("custom", "x0", "2e-5", "x0", "write 2.0e-05"),
]


def _list_keys():
    """(scenario, key) for every scenario parameter that takes a YAML
    list, read from the scenario bodies' signatures."""
    keys = []
    for name, body in SCENARIOS.items():
        for p in experiments._config_parameters(body).values():
            hint = p.annotation
            alts = typing.get_args(hint) if typing.get_origin(hint) is UnionType else (hint,)
            if any(typing.get_origin(alt) is tuple for alt in alts):
                keys.append((name, p.name))
    return keys


LIST_KEYS = _list_keys()


class TestRun:
    def test_good_config_exits_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            f"scenario: figure3_data\nseed: 4\noutput_dir: {tmp_path / 'out'}\n",
        )
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "check half_width_ratio_one_third: PASS" in out
        assert "wrote" in out

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scenario: not_a_scenario\nseed: 0\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "scenario" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_custom_zero_steps_exits_two_without_files(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "scenario: custom\n"
            "seed: 0\n"
            f"output_dir: {out_dir}\n"
            "params:\n"
            "  target: {name: gaussian}\n"
            "  field: {name: constant}\n"
            "  x0: [0.0]\n"
            "  n_steps: 0\n",
        )
        assert main(["run", cfg]) == 2
        assert "n_steps" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("h", [".inf", ".nan", "0.0"])
    def test_custom_step_size_must_be_finite(self, tmp_path, capsys, h):
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: custom\nseed: 0\noutput_dir: {out_dir}\nparams:\n"
            + CUSTOM + f"  x0: [0.0]\n  n_steps: 10\n  h: {h}\n",
        )
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error (key: h)")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario, key",
        [("figure1", "h"), ("figure2_data", "h"), ("lemma2_drift", "h"),
         ("lemma3_drift", "h_small"), ("lemma3_drift", "h_large"),
         ("lemma4_probe", "h")],
    )
    def test_step_size_error_names_its_key(self, tmp_path, capsys, scenario, key):
        # custom's h: test_custom_step_size_must_be_finite
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: {scenario}\nseed: 0\noutput_dir: {out_dir}\nparams:\n  {key}: -1.0\n",
        )
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error (key: {key}): step size must be positive")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario, params, key", BAD_CONFIGS, ids=[f"{s}-{k}" for s, _, k in BAD_CONFIGS]
    )
    def test_bad_params_exit_two_without_files(self, tmp_path, capsys, scenario, params, key):
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: {scenario}\nseed: 0\noutput_dir: {out_dir}\nparams:\n{params}",
        )
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert key in err
        assert not out_dir.exists()

    def test_list_keys_found(self):
        assert {
            ("figure1", "x_points"), ("figure2_data", "arm_positions"),
            ("figure3_data", "probe_levels"), ("lemma2_drift", "xs"),
            ("lemma4_probe", "xs"), ("lemma6_exact", "p_values"), ("custom", "x0"),
        } <= set(LIST_KEYS)

    @pytest.mark.parametrize("scenario, key", LIST_KEYS, ids=[f"{s}-{k}" for s, k in LIST_KEYS])
    def test_empty_list_exits_two_without_files(self, tmp_path, capsys, scenario, key):
        out_dir = tmp_path / "out"
        params = CUSTOM + "  n_steps: 10\n" if scenario == "custom" else ""
        cfg = write_config(
            tmp_path,
            f"scenario: {scenario}\nseed: 0\noutput_dir: {out_dir}\n"
            f"params:\n{params}  {key}: []\n",
        )
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error (key: {key})")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "scenario, key, points, index", BAD_POINTS,
        ids=[f"{s}-{k}-{p}" for s, k, p, _ in BAD_POINTS],
    )
    def test_bad_point_exits_two_naming_it_before_any_work(
        self, tmp_path, capsys, monkeypatch, scenario, key, points, index
    ):
        def never(*args, **kwargs):
            raise AssertionError("the scenario's work may not run")

        monkeypatch.setattr(experiments, POINT_WORK[scenario], never)
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: {scenario}\nseed: 0\noutput_dir: {out_dir}\n"
            f"params:\n  {key}: {points}\n",
        )
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error (key: {key}[{index}])")
        assert not out_dir.exists()

    def test_drift_ratio_past_the_float_range_fails_without_traceback(
        self, tmp_path, capsys
    ):
        # E[V(X_1)]/V(x) of V = exp(|x| / 2) at x = 30 under a variance of
        # 31^4 exceeds the float range: a named failure, exit 1
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: lemma2_drift\nseed: 0\noutput_dir: {out_dir}\nparams:\n"
            "  a: 0.1\n  b: 4.0\n  s: 0.5\n  xs: [30.0]\n  n: 2000\n",
        )
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (
            "scenario lemma2_drift failed: E[V(X_1)]/V(x) of exp_abs(s=0.5) "
            "at x=30.0 exceeds the float range\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario, key, value, named, spelling", EXPONENT_STRINGS)
    def test_exponent_string_names_its_yaml_spelling(
        self, tmp_path, capsys, scenario, key, value, named, spelling
    ):
        params = CUSTOM + "  n_steps: 10\n" if scenario == "custom" else ""
        cfg = write_config(
            tmp_path,
            f"scenario: {scenario}\nseed: 0\nparams:\n{params}  {key}: {value}\n",
        )
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error (key: {named})")
        assert err.rstrip().endswith(spelling)

    @pytest.mark.parametrize("start_level", ["-5.0", ".nan", ".inf", "0.4"])
    def test_off_staircase_start_exits_two_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, start_level
    ):
        def never(**kwargs):
            raise AssertionError("the sweep may not run")

        monkeypatch.setattr(experiments, "hemisphere_sweep", never)
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: lemma7_sweep\nseed: 0\noutput_dir: {out_dir}\n"
            f"params:\n  start_level: {start_level}\n",
        )
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error (key: start_level)")
        assert not out_dir.exists()

    @pytest.mark.parametrize("levels", ["[0]", "[1]", "[2, 1]"])
    @pytest.mark.parametrize(
        "scenario, key", [("figure3_data", "probe_levels"), ("lemma7_sweep", "levels")]
    )
    def test_level_below_two_exits_two_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, scenario, key, levels
    ):
        def never(**kwargs):
            raise AssertionError("the sweep may not run")

        monkeypatch.setattr(experiments, "hemisphere_sweep", never)
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: {scenario}\nseed: 0\noutput_dir: {out_dir}\n"
            f"params:\n  {key}: {levels}\n",
        )
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error (key: {key})")
        assert not out_dir.exists()

    @pytest.mark.parametrize("x0", [".nan", "[.nan]", "[-.inf]"])
    def test_custom_start_off_the_support_exits_two_without_files(
        self, tmp_path, capsys, x0
    ):
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"scenario: custom\nseed: 0\noutput_dir: {out_dir}\n"
            f"params:\n{CUSTOM}  x0: {x0}\n  n_steps: 10\n",
        )
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error (key: x0)")
        assert "outside the target support" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "latin-1":
            path = tmp_path / "config.yaml"
            path.write_bytes("scenario: figure3_data\nseed: 0\n# caf\u00e9\n".encode(kind))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error (key: path)")

    def test_failing_check_exits_one(self, tmp_path, capsys):
        # the pinned rejection bound is not met by the exact overlap
        # values, so this scenario deterministically reports red checks
        cfg = write_config(
            tmp_path,
            "scenario: lemma6_exact\n"
            "seed: 0\n"
            f"output_dir: {tmp_path / 'out'}\n"
            "params:\n  mc_draws: 20000\n",
        )
        assert main(["run", cfg]) == 1
        out = capsys.readouterr().out
        assert "check meets_pinned_bound_all_p: FAIL" in out
        assert "check exact_matches_monte_carlo: PASS" in out

    def test_env_var_redirects_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "redirect"))
        cfg = write_config(tmp_path, "scenario: figure3_data\nseed: 0\n")
        assert main(["run", cfg]) == 0
        assert (tmp_path / "redirect" / "figure3_data").is_dir()


class TestVerifyAll:
    def test_passing_criterion_exits_zero(self, capsys):
        assert main(["verify-all", "--seed", "0", "--only", "1"]) == 0
        out = capsys.readouterr().out
        assert "criterion 01 PASS" in out
        assert "1/1 criteria passed" in out

    def test_failing_criterion_exits_one(self, capsys, monkeypatch):
        def red(seed):
            return verify.CriterionResult(2, "stub_red", False, "stubbed failure", 0.0)

        monkeypatch.setattr(verify, "CRITERIA", ((2, red),))
        assert main(["verify-all", "--seed", "0", "--only", "2"]) == 1
        out = capsys.readouterr().out
        assert "criterion 02 FAIL stub_red" in out
        assert "failing: 2" in out

    def test_seed_changes_detail_not_determinism(self, capsys):
        main(["verify-all", "--seed", "1", "--only", "1"])
        first = capsys.readouterr().out
        main(["verify-all", "--seed", "1", "--only", "1"])
        second = capsys.readouterr().out
        # elapsed differs between runs; the measured numbers must not
        assert first.split("): ")[1] == second.split("): ")[1]

    @pytest.mark.parametrize(
        "args, key", [(["--only", "11"], "only"), (["--only", "1", "--only", "0"], "only"),
                      (["--seed", "-1"], "seed")],
    )
    def test_bad_arguments_exit_two_before_any_check(self, capsys, monkeypatch, args, key):
        def never(seed):
            raise AssertionError("no check may run")

        monkeypatch.setattr(verify, "CRITERIA", tuple((i, never) for i in range(1, 11)))
        assert main(["verify-all", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error (key: {key})")
        assert captured.out == ""
