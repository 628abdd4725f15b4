from pathlib import Path

import numpy as np
import pytest

from pdrwm import (
    ConfigError,
    ExperimentConfig,
    ParameterError,
    list_scenarios,
    load_config,
    one_plus_square_field,
    ridge_conditional_field,
    run_scenario,
    scenario_digest,
)
from pdrwm import experiments
from pdrwm.experiments import (
    OUTPUT_DIR_ENV,
    SCENARIOS,
    bind_params,
    build_field,
    build_target,
)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def write_config(tmp_path, text):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return p


class TestFieldFactories:
    def test_one_plus_square_inverse_metric(self):
        f = one_plus_square_field()
        assert f.inv_metric(np.array([3.0]))[0, 0] == 10.0
        assert f.growth_class.kind == "quadratic"

    def test_ridge_conditional_matches_conditionals(self):
        f = ridge_conditional_field()
        m = f.inv_metric(np.array([2.0, 1.0]))
        # var(x1 | x2=1) = 1/(2(1+1)) and var(x2 | x1=2) = 1/(2(1+4))
        assert m[0, 0] == pytest.approx(0.25)
        assert m[1, 1] == pytest.approx(0.1)
        assert m[0, 1] == 0.0


class TestConfigLoading:
    def test_valid_config_round_trip(self, tmp_path):
        p = write_config(
            tmp_path,
            "scenario: figure3_data\nseed: 5\nparams:\n  max_level: 6\n",
        )
        cfg = load_config(p)
        assert cfg.scenario == "figure3_data"
        assert cfg.seed == 5
        assert cfg.params == {"max_level": 6}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "nope.yaml")
        assert err.value.key == "path"

    def test_unknown_top_level_key_is_named(self, tmp_path):
        p = write_config(tmp_path, "scenario: figure1\nseed: 0\nscenari0: oops\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert err.value.key == "scenari0"

    def test_unknown_scenario_is_named(self, tmp_path):
        p = write_config(tmp_path, "scenario: figure99\nseed: 0\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert err.value.key == "scenario"

    def test_seed_is_mandatory_and_integer(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "scenario: figure1\n"))
        assert err.value.key == "seed"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "scenario: figure1\nseed: -3\n"))
        assert err.value.key == "seed"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "scenario: figure1\nseed: true\n"))
        assert err.value.key == "seed"

    def test_params_must_be_mapping(self, tmp_path):
        p = write_config(tmp_path, "scenario: figure1\nseed: 0\nparams: [1, 2]\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert err.value.key == "params"


class TestSpecBuilders:
    def test_unknown_target_name(self):
        with pytest.raises(ConfigError) as err:
            build_target({"name": "cauchy"})
        assert err.value.key == "target.name"

    def test_extra_target_parameter_is_named(self):
        with pytest.raises(ConfigError) as err:
            build_target({"name": "gaussian", "scale": 2.0})
        assert err.value.key == "target.scale"

    def test_bad_target_parameter_value(self):
        with pytest.raises(ConfigError):
            build_target({"name": "exponential", "a": -1.0})

    def test_unknown_field_name(self):
        with pytest.raises(ConfigError) as err:
            build_field({"name": "spiral"})
        assert err.value.key == "field.name"

    def test_extra_field_parameter_is_named(self):
        with pytest.raises(ConfigError) as err:
            build_field({"name": "power", "b": 1.0, "c": 2.0})
        assert err.value.key == "field.c"

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"name": "exponential"}, "target.a"),
            ({"name": "exponential", "a": "1.0"}, "target.a"),
            ({"name": "ridge", "a": 1.0}, "target.a"),
        ],
    )
    def test_target_spec_bound_to_factory(self, spec, key):
        with pytest.raises(ConfigError) as err:
            build_target(spec)
        assert err.value.key == key

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"name": "tempered_langevin", "cap": 3}, "field.cap"),
            ({"name": "ridge_conditional", "b": 2}, "field.b"),
            ({"name": "constant", "dim": 2.5}, "field.dim"),
            ({"name": "power"}, "field.b"),
        ],
    )
    def test_field_spec_bound_to_factory(self, spec, key):
        with pytest.raises(ConfigError) as err:
            build_field(spec, build_target({"name": "gaussian"}))
        assert err.value.key == key

    def test_tempered_langevin_takes_cap_and_needs_target(self):
        fld = build_field(
            {"name": "tempered_langevin", "c_max": 100}, build_target({"name": "gaussian"})
        )
        assert fld.label == "tempered_langevin(gaussian(sigma=1),cap=100)"
        with pytest.raises(ConfigError) as err:
            build_field({"name": "tempered_langevin"})
        assert err.value.key == "field"


class TestBindParams:
    @staticmethod
    def body(seed, digest, /, *, n: int, h: float = 1.0,
             xs: tuple[float, ...] = (), rate: float | None = 0.5):
        raise AssertionError("binding never calls the body")

    def test_values_as_annotated(self):
        kw = bind_params(self.body, {"n": 3, "h": 2, "xs": [1, 2.5], "rate": None})
        assert kw == {"n": 3, "h": 2.0, "xs": (1.0, 2.5), "rate": None}
        assert type(kw["h"]) is float and type(kw["xs"][0]) is float

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"h": 1.0}, "n"),
            ({"n": 1, "n_stepz": 5}, "n_stepz"),
            ({"n": 1, "out": "x"}, "out"),
            ({"n": "abc"}, "n"),
            ({"n": 2.0}, "n"),
            ({"n": True}, "n"),
            ({"n": 1, "h": False}, "h"),
            ({"n": 1, "h": "1e-2"}, "h"),
            ({"n": 1, "xs": 1.0}, "xs"),
            ({"n": 1, "xs": [1.0, "two"]}, "xs[1]"),
            ({"n": 1, "rate": "none"}, "rate"),
        ],
    )
    def test_bad_mapping_names_key(self, params, key):
        with pytest.raises(ConfigError) as err:
            bind_params(self.body, params)
        assert err.value.key == key

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_binds_to_its_signature(self, path):
        cfg = load_config(path)
        kw = bind_params(SCENARIOS[cfg.scenario], cfg.params)
        if "target" in kw:
            build_field(kw["field"], build_target(kw["target"]))


class TestScenarioPlumbing:
    def test_digest_depends_on_params(self):
        d1 = scenario_digest("figure1", 0, {"b": 4.0})
        d2 = scenario_digest("figure1", 0, {"b": 2.0})
        d3 = scenario_digest("figure1", 1, {"b": 4.0})
        assert len(d1) == 12
        assert d1 != d2
        assert d1 != d3

    def test_registry_lists_all_scenarios(self):
        names = [n for n, _ in list_scenarios()]
        assert len(names) == 12
        assert "custom" in names
        assert "table1_grid" in names
        # every scenario carries a one-line description
        assert all(desc for _, desc in list_scenarios())

    def test_output_files_carry_digest_and_seed(self, tmp_path):
        cfg = ExperimentConfig("figure3_data", 9, str(tmp_path / "o"), {})
        res = run_scenario(cfg)
        for f in res.files:
            header = open(f).readline().strip()
            assert header == f"# config={res.digest} seed=9"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            "figure1", 3, str(tmp_path / "o"), {"n_proposals": 300}
        )
        first = run_scenario(cfg)
        bodies = [open(f, "rb").read() for f in first.files]
        second = run_scenario(cfg)
        assert [open(f, "rb").read() for f in second.files] == bodies

    @pytest.mark.parametrize(
        "scenario, params", [("figure3_data", {}), ("lemma4_probe", {"n": 2000})]
    )
    def test_only_the_runner_writes(self, tmp_path, monkeypatch, scenario, params):
        monkeypatch.chdir(tmp_path)
        files, checks = SCENARIOS[scenario](4, "abc", **params)
        assert list(tmp_path.iterdir()) == []
        assert all(text.startswith("# config=abc seed=4\n") for text in files.values())

        res = run_scenario(ExperimentConfig(scenario, 4, str(tmp_path / "o"), params))
        assert sorted(res.files) == sorted(str(p) for p in (tmp_path / "o").iterdir())
        assert [Path(f).name for f in res.files] == list(files)
        assert res.checks == checks
        assert [Path(f).read_text() for f in res.files] == [
            text.replace("abc", res.digest) for text in files.values()
        ]

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "redirect"))
        cfg = ExperimentConfig("figure3_data", 0, str(tmp_path / "ignored"), {})
        res = run_scenario(cfg)
        for f in res.files:
            assert str(tmp_path / "redirect" / "figure3_data") in f
        assert not (tmp_path / "ignored").exists()


class TestScenarioBodies:
    def test_figure1_fraction_decreases(self, tmp_path):
        cfg = ExperimentConfig(
            "figure1", 0, str(tmp_path), {"n_proposals": 500}
        )
        res = run_scenario(cfg)
        assert res.checks[0].name == "above_half_fraction_decreasing"
        assert res.checks[0].passed

    def test_figure3_geometry_checks(self, tmp_path):
        cfg = ExperimentConfig("figure3_data", 0, str(tmp_path), {})
        res = run_scenario(cfg)
        assert res.passed
        lines = open(res.files[0]).read().splitlines()
        # last cumulative fraction is within a part in 9^12 of one
        last = lines[-1].split(",")
        assert float(last[3]) == pytest.approx(1.0, abs=1e-10)

    def test_lemma4_desk_scale(self, tmp_path):
        cfg = ExperimentConfig("lemma4_probe", 1, str(tmp_path), {"n": 2000})
        res = run_scenario(cfg)
        assert res.passed

    def test_esjd_scan_reports_its_quadrature_route(self):
        files, checks = SCENARIOS["esjd_scan"](0, "", b_values=(1.2, 1.6), n_steps=2000)
        lines = files["esjd_scan.csv"].splitlines()
        assert lines[1] == (
            "b,step_size,esjd,se,acceptance_rate,quad_esjd,z,"
            "tuned_step_size,tuned_esjd,tuned_esjd_err"
        )
        assert [row.split(",")[0] for row in lines[2:]] == ["1.2", "1.6"]
        assert [c.name for c in checks] == [
            "acceptance_in_window", "chains_match_quadrature", "quadrature_argmax_located",
        ]
        assert all(c.passed for c in checks)

    def test_esjd_scan_rejects_bad_input_before_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(experiments, "tuned_jump_quadrature", no_quadrature)
        monkeypatch.setattr(experiments, "stationary_jump_quadrature", no_quadrature)
        with pytest.raises(ParameterError, match="n_steps"):
            SCENARIOS["esjd_scan"](0, "", n_steps=50)
        with pytest.raises(ConfigError) as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(1.2,))
        assert err.value.key == "b_values"

    def test_custom_runs_a_chain(self, tmp_path):
        cfg = ExperimentConfig(
            "custom",
            42,
            str(tmp_path),
            {
                "target": {"name": "gaussian"},
                "field": {"name": "power", "b": 1.0},
                "x0": [0.0],
                "n_steps": 200,
            },
        )
        res = run_scenario(cfg)
        assert res.passed
        lines = open(res.files[0]).read().splitlines()
        assert lines[0].startswith("# config=")
        assert len(lines) == 203  # header, columns, start row, 200 steps

    def test_custom_zero_steps_rejected_before_any_file(self, tmp_path):
        out = tmp_path / "never"
        custom = {
            "target": {"name": "gaussian"},
            "field": {"name": "constant"},
            "x0": [0.0],
            "n_steps": 0,
        }
        for scenario, params, key in (
            ("custom", custom, "n_steps"),
            ("figure1", {"n_proposals": 50}, "n_proposals"),
        ):
            with pytest.raises(ConfigError) as err:
                run_scenario(ExperimentConfig(scenario, 0, str(out), params))
            assert err.value.key == key
            assert not out.exists()

    def test_custom_dimension_mismatch(self, tmp_path):
        # a start point of the wrong shape or off the support is an x0
        # error; a field of the wrong dimension is a field error
        for target, field, x0, key in (
            ({"name": "ridge"}, {"name": "constant", "dim": 2}, [0.0], "x0"),
            ({"name": "rectangle"}, {"name": "constant", "dim": 2}, [0.0, 0.5], "x0"),
            ({"name": "ridge"}, {"name": "constant"}, [0.0, 0.0], "field"),
            ({"name": "gaussian"}, {"name": "constant", "dim": 2}, [0.0], "field"),
        ):
            cfg = ExperimentConfig(
                "custom",
                0,
                str(tmp_path),
                {"target": target, "field": field, "x0": x0, "n_steps": 10},
            )
            with pytest.raises(ConfigError) as err:
                run_scenario(cfg)
            assert err.value.key == key
