import pytest

from pdrwm import verify
from pdrwm.cli import main
from pdrwm.experiments import OUTPUT_DIR_ENV


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


CUSTOM = "  target: {name: exponential, a: 1.0}\n  field: {name: power, b: 1.5}\n"

# (scenario, params block, key named on stderr)
BAD_CONFIGS = [
    ("lemma4_probe", "  n_stepz: 5\n", "n_stepz"),
    ("lemma4_probe", "  n: abc\n", "n"),
    ("figure1", "  n_proposals: 50\n", "n_proposals"),
    ("esjd_scan", "  n_steps: 50\n", "n_steps"),
    ("lemma2_drift", "  n: 10\n", "n"),
    ("custom", "  target: {name: exponential}\n  field: {name: power, b: 1.5}\n"
     "  x0: [0.0]\n  n_steps: 10\n", "target.a"),
    ("custom", "  target: {name: gaussian}\n  field: {name: tempered_langevin, cap: 3}\n"
     "  x0: [0.0]\n  n_steps: 10\n", "field.cap"),
    ("custom", "  target: {name: ridge}\n  field: {name: ridge_conditional, b: 2}\n"
     "  x0: [0.0, 0.0]\n  n_steps: 10\n", "field.b"),
    ("custom", "  target: {name: ridge}\n  field: {name: constant}\n"
     "  x0: [0.0, 0.0]\n  n_steps: 10\n", "field"),
    ("custom", CUSTOM + "  x0: [0.0]\n  n_steps: 10\n  h: true\n", "h"),
    ("custom", CUSTOM + "  x0: [0.0]\n", "n_steps"),
]


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
