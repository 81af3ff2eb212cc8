"""Config validation, the experiment runner's reproducibility contract, and
the command-line interface."""

import json
import os

import pytest
from click.testing import CliRunner

from mpctrack.cli import main
from mpctrack.config import (ExperimentConfig, config_to_dict,
                             validate_config)
from mpctrack.experiment import run_experiment, run_single
from mpctrack.model import HyperParams
from mpctrack.scenario import desk_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def negative_far_desk():
    """The desk scenario document with one negative false-alarm rate."""
    doc = json.loads(desk_scenario().to_json())
    doc["far_profile"][7] = -1.0
    return doc


def write(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestValidateConfig:
    def test_empty_file_is_parse_error(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        report = validate_config(str(p))
        assert not report.ok
        assert "not valid JSON" in report.errors[0][1]

    def test_missing_file(self, tmp_path):
        report = validate_config(str(tmp_path / "nope.json"))
        assert not report.ok

    def test_range_error_field_path(self, tmp_path):
        path = write(tmp_path, {"hyper": {"p_s": 1.5}})
        report = validate_config(path)
        assert not report.ok
        assert any(f == "hyper.p_s" for f, _ in report.errors)

    def test_unknown_field_reported(self, tmp_path):
        path = write(tmp_path, {"hyper": {"particles": 10}})
        report = validate_config(path)
        assert any(f == "hyper.particles" for f, _ in report.errors)

    def test_defaulting_report_notes_J(self, tmp_path):
        path = write(tmp_path, {"mode": "fully_synthetic",
                                "hyper": {"p_s": 0.99}})
        report = validate_config(path)
        assert report.ok
        filled = dict(report.defaults_filled)
        assert filled.get("hyper.J") == 10000
        assert filled.get("hyper.P") == 5000
        assert report.config.hyper.p_s == 0.99

    @pytest.mark.parametrize("field,value", [
        ("J", 100.5), ("J", "1000"), ("J", True), ("J", None), ("P", 50.0),
        ("d_max", float("nan")), ("d_max", float("inf")),
        ("sigma_fa", float("-inf")), ("p_s", "0.9"), ("mu_n", [0.008]),
    ])
    def test_mistyped_hyper_field_path(self, tmp_path, field, value):
        # Non-integer J/P and non-numeric or non-finite numbers are field
        # errors, not crashes later on (100.5 particles) or never (NaN
        # compares false against every range bound).
        path = write(tmp_path, {"hyper": {field: value}})
        report = validate_config(path)
        assert not report.ok
        assert [f for f, _ in report.errors] == [f"hyper.{field}"]

    @pytest.mark.parametrize("doc,field", [
        ({"runs": "3"}, "runs"), ({"runs": 2.5}, "runs"),
        ({"runs": True}, "runs"), ({"workers": 1.5}, "workers"),
        ({"base_seed": False}, "base_seed"), ({"base_seed": 1e3}, "base_seed"),
        ({"base_seed": -1}, "base_seed"),
        ({"snapshot_u_de": "25"}, "snapshot_u_de"),
        ({"snapshot_u_de": float("inf")}, "snapshot_u_de"),
        ({"snapshot_u_de": 0.0}, "snapshot_u_de"),
        ({"snr_1m_db": float("nan")}, "snr_1m_db"),  # an unknown field
        ({"snr_1m_db": [30]}, "snr_1m_db"),
        ({"ospa": {"p": float("nan")}}, "ospa.p"),
        ({"ospa": {"cutoff_d": "0.1"}}, "ospa.cutoff_d"),
        ({"ospa": {"cutoff_snr_db": float("inf")}}, "ospa.cutoff_snr_db"),
    ])
    def test_mistyped_run_and_ospa_field_path(self, tmp_path, doc, field):
        # The same type-first check as the hyperparameters: one field-path
        # error, no comparison of a string against a bound, no NaN passing
        # every range check.
        report = validate_config(write(tmp_path, doc))
        assert not report.ok
        assert [f for f, _ in report.errors] == [field]

    @pytest.mark.parametrize("key,value", [
        ("psi", "x"), ("N_s", 4.5), ("N_s", True), ("f_c", float("nan")),
        ("beta_bw_sq", 0.0), ("T_s", -1.25e-9), ("c", float("inf")),
        ("element_offsets", [[0.0, 0.0], [0.0, float("nan")]]),
        ("element_offsets", [[0.0, 0.0], [0.0, True]]),
        ("element_offsets", [[0.0, 0.0, 0.0, 0.0]]),
        # These three failed inside construction and lost the field path.
        ("N_s", "x"), ("element_offsets", 5),
        ("element_offsets", [[0.0, "a"]]),
    ])
    def test_mistyped_geom_field_path(self, tmp_path, key, value):
        # validate() checks the fields before construction and reports each
        # problem at its field.
        geom = config_to_dict(ExperimentConfig())["geom"]
        report = validate_config(write(tmp_path, {"geom": {**geom,
                                                           key: value}}))
        assert not report.ok
        assert [f for f, _ in report.errors] == [f"geom.{key}"]

    def test_optional_radio_fields_accept_none_and_numbers(self, tmp_path):
        for doc in ({"snapshot_u_de": None}, {"snapshot_u_de": 25}):
            report = validate_config(write(tmp_path, doc))
            assert report.ok, report.errors

    @pytest.mark.parametrize("value", [None, -3.5, 30, float("nan"), [30]])
    def test_snr_1m_db_is_an_unknown_field(self, tmp_path, value):
        # The radio noise variance is the constant 1: synth_radio scales
        # every amplitude by the noise level, which cancels in the
        # estimator, so the option could change nothing but rounding.
        report = validate_config(write(tmp_path, {"snr_1m_db": value}))
        assert report.errors == [("snr_1m_db", "unknown field")]

    def test_bad_mode(self, tmp_path):
        path = write(tmp_path, {"mode": "streaming"})
        report = validate_config(path)
        assert any(f == "mode" for f, _ in report.errors)

    def test_bundled_configs_validate(self):
        for name in ("desk.json", "desk_fast_far.json",
                     "paper_standard.json", "pipeline_radio.json"):
            report = validate_config(os.path.join(REPO, "configs", name))
            assert report.ok, (name, report.errors)

    def test_config_echo_round_trips(self, tmp_path):
        from mpctrack.config import config_from_dict
        cfg = ExperimentConfig(runs=3, base_seed=9)
        doc = config_to_dict(cfg)
        report = config_from_dict(doc)
        assert report.ok
        assert report.config.runs == 3
        assert report.config.base_seed == 9


def small_cfg(out_dir, **hyper):
    hyper.setdefault("J", 300)
    cfg = ExperimentConfig(scenario="desk", runs=2, base_seed=5,
                           out_dir=str(out_dir))
    cfg.hyper = HyperParams(**hyper)
    return cfg


class TestRunExperiment:
    def test_smoke_artifacts(self, tmp_path):
        cfg = small_cfg(tmp_path / "out")
        run_experiment(cfg)
        names = sorted(os.listdir(tmp_path / "out"))
        assert names == ["config_echo.json", "run_000.csv", "run_001.csv",
                         "summary.csv"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = small_cfg(tmp_path / "a")
        cfg2 = small_cfg(tmp_path / "b")
        run_experiment(cfg1)
        run_experiment(cfg2)
        for name in ("run_000.csv", "run_001.csv", "summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_runs_independent_of_execution_order(self, tmp_path):
        cfg = small_cfg(tmp_path / "out")
        lg1 = run_single(cfg, 1)
        lg0 = run_single(cfg, 0)
        cfg2 = small_cfg(tmp_path / "out2")
        assert run_single(cfg2, 0).records == lg0.records
        assert run_single(cfg2, 1).records == lg1.records

    def test_workers_match_serial(self, tmp_path):
        cfg_s = small_cfg(tmp_path / "serial")
        run_experiment(cfg_s)
        cfg_p = small_cfg(tmp_path / "parallel")
        cfg_p.workers = 2
        run_experiment(cfg_p)
        for name in ("run_000.csv", "run_001.csv", "summary.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()

    def test_invalid_config_raises(self, tmp_path):
        cfg = small_cfg(tmp_path / "out", p_s=2.0)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_single_track_no_clutter_nom(self, tmp_path):
        # One high-amplitude component with clutter effectively disabled:
        # the detected count settles at exactly one.
        import numpy as np
        from mpctrack.scenario import Scenario, desk_scenario

        base = desk_scenario()
        scn = Scenario(base.steps, base.tracks[:1],
                       np.full(base.steps, 1e-6), base.u_de, 0)
        path = tmp_path / "single.json"
        scn.save(path)
        cfg = ExperimentConfig(scenario=str(path), runs=1, base_seed=11,
                               out_dir=str(tmp_path / "out"))
        cfg.hyper = HyperParams(J=500)
        log = run_single(cfg, 0)
        nom = log.column("nom_hat")[10:]
        assert np.mean(nom == 1) >= 0.95


class TestCli:
    def test_validate_ok_and_exit_codes(self, tmp_path):
        runner = CliRunner()
        path = write(tmp_path, {"mode": "fully_synthetic"})
        res = runner.invoke(main, ["validate", path])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["ok"] is True

        bad = write(tmp_path, {"hyper": {"p_s": 7}})
        res = runner.invoke(main, ["validate", bad])
        assert res.exit_code == 2
        assert json.loads(res.output)["ok"] is False

    def test_run_smoke_and_overrides(self, tmp_path):
        runner = CliRunner()
        path = write(tmp_path, {"scenario": "desk", "runs": 5,
                                "hyper": {"J": 200}})
        out_dir = str(tmp_path / "cli_out")
        res = runner.invoke(main, ["run", path, "--runs", "1", "--out",
                                   out_dir, "--seed", "3"])
        assert res.exit_code == 0, res.output
        assert os.path.exists(os.path.join(out_dir, "run_000.csv"))
        assert os.path.exists(os.path.join(out_dir, "summary.csv"))
        payload = json.loads(res.output)
        assert payload["ok"] and payload["runs"] == 1

    @pytest.mark.parametrize("flag,value,field", [
        ("--runs", "0", "runs"), ("--seed", "-3", "base_seed"),
        ("--workers", "0", "workers")])
    def test_invalid_override_exits_2_with_report(self, tmp_path, flag,
                                                  value, field):
        # An override is checked like the config field it replaces.
        out_dir = tmp_path / "never"
        res = CliRunner().invoke(main, [
            "run", os.path.join(REPO, "configs", "desk.json"), flag, value,
            "--out", str(out_dir)])
        assert res.exit_code == 2, res.output
        report = json.loads(res.output)
        assert report["ok"] is False
        assert [e["field"] for e in report["errors"]] == [field]
        assert not out_dir.exists()

    def test_run_invalid_config_fails(self, tmp_path):
        runner = CliRunner()
        path = write(tmp_path, {"hyper": {"p_s": 7}})
        res = runner.invoke(main, ["run", path])
        assert res.exit_code == 2

    @pytest.mark.parametrize("hyper", [{"J": 100.5}, {"J": "1000"},
                                       {"d_max": float("nan")}])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_mistyped_hyper_exits_2_with_report(self, tmp_path, hyper,
                                                command):
        path = write(tmp_path, {"scenario": "desk", "runs": 1,
                                "out_dir": str(tmp_path / "out"),
                                "hyper": hyper})
        res = CliRunner().invoke(main, [command, path])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        report = json.loads(res.output)
        assert report["ok"] is False
        assert [e["field"] for e in report["errors"]] == \
            [f"hyper.{next(iter(hyper))}"]
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("doc,field", [
        ({"runs": "3"}, "runs"), ({"runs": 2.5}, "runs"),
        ({"workers": 1.5}, "workers"),
        ({"ospa": {"p": float("nan")}}, "ospa.p"),
        ({"hyper": 3}, "hyper"), ({"hyper": None}, "hyper"),
        ({"ospa": None}, "ospa"), ({"geom": 5}, "geom"),
        ({"snr_1m_db": float("nan")}, "snr_1m_db"),
        ({"snr_1m_db": -3.5}, "snr_1m_db"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_mistyped_config_exits_2_with_report(self, tmp_path, doc, field,
                                                 command):
        # {"runs": "3"} and the sections that are not objects were
        # tracebacks, the other three "ok".
        path = write(tmp_path, {"scenario": "desk",
                                "out_dir": str(tmp_path / "out"), **doc})
        res = CliRunner().invoke(main, [command, path])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        report = json.loads(res.output)
        assert report["ok"] is False
        assert [e["field"] for e in report["errors"]] == [field]
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("scenario", [
        {"schema_version": 1}, [1], "not json", None, negative_far_desk()])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_scenario_file_exits_2_with_report(self, tmp_path, scenario,
                                                   command):
        # {"schema_version": 1} passed validate, then run died with a
        # KeyError, and the desk file with a negative false-alarm rate
        # passed validate, then run died drawing the clutter count; None
        # stands for a file that does not exist.
        scn = tmp_path / "scn.json"
        if scenario is not None:
            scn.write_text(scenario if isinstance(scenario, str)
                           else json.dumps(scenario))
        path = write(tmp_path, {"scenario": str(scn),
                                "out_dir": str(tmp_path / "out")})
        res = CliRunner().invoke(main, [command, path])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        report = json.loads(res.output)
        assert [e["field"] for e in report["errors"]] == ["scenario"]
        assert not os.path.exists(tmp_path / "out")

    def test_scenario_emit(self, tmp_path):
        runner = CliRunner()
        dest = str(tmp_path / "scn.json")
        res = runner.invoke(main, ["scenario", "emit", "desk", dest])
        assert res.exit_code == 0, res.output
        doc = json.loads(open(dest).read())
        assert doc["schema_version"] == 1
        assert len(doc["tracks"]) == 3
