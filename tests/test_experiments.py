import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pdrwm import (
    ConfigError,
    ExperimentConfig,
    ParameterError,
    constant_field,
    gaussian_proposal,
    list_scenarios,
    load_config,
    log_accept_ratio,
    make_gaussian,
    make_ridge_2d,
    one_plus_square_field,
    power_field,
    ridge_conditional_field,
    run_scenario,
    scenario_digest,
    tuned_jump_quadrature,
)
from pdrwm import diagnostics, experiments
from pdrwm.experiments import (
    OUTPUT_DIR_ENV,
    SCENARIOS,
    bind_params,
    build_field,
    build_target,
)
from test_proposals import sample

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def write_config(tmp_path, text):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return p


class TestFieldFactories:
    def test_one_plus_square_inverse_metric(self):
        f = one_plus_square_field()
        assert f.inv_metric(np.array([3.0])) == 10.0

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
            ({"name": "constant", "dim": 0}, "field.dim"),
            ({"name": "constant", "dim": -3}, "field.dim"),
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
            ({"n": 1, "xs": []}, "xs"),
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
        # every scenario carries a one-line summary and a narrative below it
        for name, desc in list_scenarios():
            first, *rest = desc.splitlines()
            assert first and any(line.strip() for line in rest), name

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

    def test_figure2_arm_means_equal_the_per_point_loop(self):
        arm_positions, n, h, sigma2, seed = (1.5, 6.0), 200, 0.7, 0.3, 123
        files, _ = SCENARIOS["figure2_data"](
            seed, "", arm_positions=arm_positions, n_proposals=n, h=h, sigma2=sigma2
        )
        ridge = make_ridge_2d()
        expected = []
        for x1 in arm_positions:
            x = np.array([x1, 0.0])
            row = [x1]
            for fld in (constant_field(np.eye(2) * sigma2), ridge_conditional_field()):
                kern = gaussian_proposal(fld, h)
                rng = np.random.default_rng(seed)
                acc = 0.0
                for _ in range(n):
                    y = sample(kern, x, rng)
                    acc += float(np.exp(log_accept_ratio(ridge, kern, x, y)))
                row.append(acc / n)
            expected.append(row)
        lines = files["figure2_arm_acceptance.csv"].splitlines()
        got = [[float(v) for v in line.split(",")] for line in lines[2:]]
        assert got == expected

    @given(chunk=st.integers(1, 64), n=st.integers(100, 160), seed=st.integers(0, 2**32 - 1))
    @example(chunk=7, n=103, seed=11)
    def test_figure2_chunks_give_the_one_chunk_bits(self, chunk, n, seed):
        def figure2():
            files, _ = SCENARIOS["figure2_data"](
                seed, "", arm_positions=(0.5, 3.0), n_proposals=n, h=0.8
            )
            return files["figure2_arm_acceptance.csv"]

        whole = figure2()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "_ROW_CHUNK", chunk)
            assert figure2() == whole

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
        assert lines[1] == "b,step_size,esjd,se,acceptance_rate,quad_esjd,quad_esjd_err,z"
        rows = [row.split(",") for row in lines[2:]]
        assert [row[0] for row in rows] == ["1.2", "1.6"]
        # the chains run at the tuned curve's step sizes, and the curve's
        # columns keep the bits the curve had beside the stochastic tuner
        for row, b in zip(rows, (1.2, 1.6)):
            c = tuned_jump_quadrature(
                make_gaussian(1.0), power_field(b), 0.44, *experiments._ESJD_WINDOW
            )
            assert row[1] == repr(c.step_size)
            assert row[5:7] == [repr(c.esjd), repr(c.esjd_err)]
            assert row[7] == repr(abs(float(row[2]) - c.esjd) / float(row[3]))
        assert [row[1] for row in rows] == ["2.6912845348484917", "2.079194386956562"]
        assert [row[5:7] for row in rows] == [
            ["0.7706173039238697", "6.0295319064263e-06"],
            ["0.7639170562339058", "4.257013911823648e-06"],
        ]
        assert [c.name for c in checks] == [
            "acceptance_in_window", "chains_match_quadrature", "quadrature_argmax_located",
        ]
        assert all(c.passed for c in checks)

    def test_esjd_scan_runs_without_a_second_step_size_route(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a second step-size route ran")

        monkeypatch.setattr(diagnostics, "tune_step_size", refused)
        monkeypatch.setattr(experiments, "stationary_jump_quadrature", refused, raising=False)
        files, checks = SCENARIOS["esjd_scan"](0, "", b_values=(1.2, 1.6), n_steps=500)
        assert len(files["esjd_scan.csv"].splitlines()) == 4

    def test_esjd_scan_rejects_bad_input_before_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(experiments, "tuned_jump_quadrature", no_quadrature)
        with pytest.raises(ParameterError, match="n_steps"):
            SCENARIOS["esjd_scan"](0, "", n_steps=50)
        with pytest.raises(ConfigError) as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(1.2,))
        assert err.value.key == "b_values"
        for rate in (1.5, 0.0):
            with pytest.raises(ConfigError, match=r"^target rate must lie in \(0,1\)") as err:
                SCENARIOS["esjd_scan"](0, "", tune_acceptance=rate)
            assert err.value.key == "tune_acceptance"

    def test_esjd_scan_names_the_exponent_its_grid_cannot_resolve(self):
        # b = 50 tunes to a step size whose proposal std is finer than the
        # quadrature grid can resolve
        with pytest.raises(ConfigError, match=r"^b = 50: grid spacing") as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(0.0, 50.0), n_steps=1000)
        assert err.value.key == "b_values"

    def test_esjd_scan_refuses_an_unresolved_exponent_before_any_chain(self, monkeypatch):
        def no_chains(*args, **kwargs):
            raise AssertionError("chains ran")

        # at the default n_steps the chains would cost the whole budget
        monkeypatch.setattr(experiments, "esjd_scan", no_chains)
        with pytest.raises(ConfigError, match=r"^b = 50: grid spacing") as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(0.0, 50.0))
        assert err.value.key == "b_values"

    def test_esjd_scan_names_every_exponent_its_grid_cannot_resolve(self, monkeypatch):
        def no_chains(*args, **kwargs):
            raise AssertionError("chains ran")

        # at 0.44, b = 10 and b = 50 fail and b = 0 resolves
        monkeypatch.setattr(experiments, "esjd_scan", no_chains)
        with pytest.raises(ConfigError, match=r"^b = 10: grid spacing .*; b = 50: grid") as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(0.0, 10.0, 50.0))
        assert err.value.key == "b_values"
        assert "b = 0:" not in str(err.value)

    def test_esjd_scan_names_a_rate_no_exponent_resolves(self, monkeypatch):
        def no_chains(*args, **kwargs):
            raise AssertionError("chains ran")

        monkeypatch.setattr(experiments, "esjd_scan", no_chains)
        with pytest.raises(ConfigError, match=r"acceptance 0\.999 that the quadrature") as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(0.0, 1.0, 2.0), tune_acceptance=0.999)
        assert err.value.key == "tune_acceptance"
        assert all(f"b = {b}: grid spacing" in str(err.value) for b in (0, 1, 2))

    def test_esjd_scan_tells_each_exponent_how_far_its_grid_reached(self, monkeypatch):
        def no_chains(*args, **kwargs):
            raise AssertionError("chains ran")

        # both exponents leave the grid's reach at the same probe, but each
        # reaches its own acceptance at the last step size resolved
        monkeypatch.setattr(experiments, "esjd_scan", no_chains)
        with pytest.raises(ConfigError) as err:
            SCENARIOS["esjd_scan"](0, "", b_values=(0.0, 1.0), tune_acceptance=0.999)
        assert err.value.key == "tune_acceptance"
        reached = re.findall(
            r"b = (\d+): grid spacing [^;]*; this grid cannot reach acceptance 0\.999: "
            r"it resolved step size (\S+), of acceptance (\S+),",
            str(err.value),
        )
        assert [b for b, _, _ in reached] == ["0", "1"]
        assert reached[0][2] != reached[1][2]

    def test_lemma6_probe_past_every_draw_fails_its_monte_carlo_check(self):
        # at p = 13 all 1e5 draws miss the support, so mc_se is 0; at
        # p = 700 the strips hold no area and the exact rejection is 1 too
        files, checks = SCENARIOS["lemma6_exact"](0, "", p_values=(13, 700))
        rows = [row.split(",") for row in files["lemma6_exact.csv"].splitlines()[2:]]
        assert [row[5:] for row in rows] == [["1.0", "0.0", "inf"], ["1.0", "0.0", "0.0"]]
        check = {c.name: c for c in checks}["exact_matches_monte_carlo"]
        assert not check.passed
        assert check.detail == "z p=13: inf, p=700: 0.00"

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


def test_csv_formats_each_type_as_fmt_does():
    # built-in types are looked up by exact type, the rest go through _fmt
    row = (1.5, 2, True, "x", np.float64(0.1), np.int64(3), np.bool_(False),
           False, -0.0, 1e300, float("nan"), None)
    text = experiments._csv("d", 0, [f"c{i}" for i in range(len(row))], [row, row])
    line = "1.5,2,true,x,0.1,3,false,false,-0.0,1e+300,nan,None"
    assert line == ",".join(experiments._fmt(v) for v in row)
    assert text.splitlines()[2:] == [line, line]


def per_value_csv(digest, seed, header, rows):
    """The writer ``_csv`` replaced: one lookup per value, row by row."""
    lines = [f"# config={digest} seed={seed}", ",".join(header)]
    fmt = experiments._FMT_BY_TYPE.get
    for row in rows:
        lines.append(",".join([fmt(type(v), experiments._fmt)(v) for v in row]))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324)
csv_values = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(alphabet="ab-_ ", max_size=3),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)),
)


class TestCsvWriter:
    """``_csv`` formats column by column, with the bytes of the per-value
    writer it replaced."""

    @given(width=st.integers(1, 5), data=st.data())
    def test_columns_give_the_per_value_text(self, width, data):
        rows = data.draw(st.lists(st.tuples(*[csv_values] * width), max_size=12))
        header = [f"c{i}" for i in range(width)]
        assert experiments._csv("d", 3, header, rows) == per_value_csv("d", 3, header, rows)

    def test_a_column_of_mixed_types(self):
        column = [True, 1, np.int64(-2), np.float64(0.5), "s", 2.5, np.bool_(True),
                  np.float32(0.1), None]
        rows = [(v, 1.0) for v in column]
        text = experiments._csv("d", 0, ("mixed", "one"), rows)
        assert text == per_value_csv("d", 0, ("mixed", "one"), rows)
        assert [line.split(",")[0] for line in text.splitlines()[2:]] == [
            "true", "1", "-2", "0.5", "s", "2.5", "true", "0.10000000149011612", "None"]

    def test_special_floats(self):
        rows = [(v, np.float64(v)) for v in SPECIAL_FLOATS]
        text = experiments._csv("d", 0, ("float", "np.float64"), rows)
        assert text == per_value_csv("d", 0, ("float", "np.float64"), rows)
        assert text.splitlines()[2:6] == ["nan,nan", "inf,inf", "-inf,-inf", "-0.0,-0.0"]

    def test_zero_rows(self):
        assert experiments._csv("d", 1, ("a", "b"), []) == "# config=d seed=1\na,b\n"
        assert experiments._csv("d", 1, ("a", "b"), iter(())) == "# config=d seed=1\na,b\n"

    @pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0,)], [(1.0, 2.0, 3.0)], [()]])
    def test_a_row_of_another_length_raises(self, rows):
        with pytest.raises(ValueError, match="length differs from the header's 2"):
            experiments._csv("d", 0, ("a", "b"), rows)


def test_figure1_exp_of_a_column_is_exp_of_each_value():
    # the acceptance probabilities exp(log-ratio) in one call: log-ratios
    # at and near -inf, near 0, and around -745, where exp is subnormal
    rng = np.random.default_rng(11)
    special = [-np.inf, -1e308, -746.0, -745.2, -745.13, -745.0, -744.4, -709.0,
               -708.4, -708.39, -1.0, -1e-300, -5e-324, -0.0, 0.0]
    logs = np.concatenate([
        special,
        rng.uniform(-746.0, -700.0, 4000),
        -(10.0 ** rng.uniform(-320.0, 0.0, 2000)),
        rng.uniform(-40.0, 0.0, 2000),
    ])
    for n in (1, 3, 7, 8, 9, 17, len(logs)):  # lengths around vector widths
        column = np.exp(logs[:n].tolist()).tolist()
        assert [v.hex() for v in column] == [float(np.exp(v)).hex() for v in logs[:n].tolist()]
    alphas = np.exp(logs)
    assert ((0.0 < alphas) & (alphas < np.finfo(float).tiny)).sum() > 100  # subnormal
    assert (alphas == 0.0).any() and (alphas == 1.0).any()
