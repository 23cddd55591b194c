import argparse
import json
import math
import re

import numpy as np
import pytest

from starclab import InvalidInstance, boltzmann_policy, random_mdp, random_reward, starc_distance
from starclab.cli import EXIT_OK, EXIT_VALIDATION, _config_from_args, build_parser, main
from starclab import reports
from starclab.mdp import save_mdp, save_reward
from starclab.reports import ExperimentConfig, emit_report, run_experiment, strip_timings


@pytest.fixture
def io_files(tmp_path):
    mdp = random_mdp(0, 3, 2)
    r_1 = random_reward(1, 3, 2)
    r_2 = random_reward(2, 3, 2)
    paths = {
        "mdp": tmp_path / "mdp.json",
        "r1": tmp_path / "r1.json",
        "r2": tmp_path / "r2.json",
    }
    save_mdp(mdp, paths["mdp"])
    save_reward(r_1, paths["r1"])
    save_reward(r_2, paths["r2"])
    return mdp, r_1, r_2, paths, tmp_path


def _experiment_commands(parser, path=()):
    """(argv path, parser) of every subcommand that runs an experiment kind."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _experiment_commands(child, [*path, name])
    if parser.get_default("kind") is not None:
        yield list(path), parser


class TestRunExperiment:
    def test_starc_distance_dispatch(self, io_files):
        mdp, r_1, r_2, paths, _ = io_files
        config = ExperimentConfig(
            "starc-distance",
            {
                "mdp_file": str(paths["mdp"]),
                "reward_1_file": str(paths["r1"]),
                "reward_2_file": str(paths["r2"]),
            },
        )
        report = run_experiment(config)
        assert report["results"]["distance"] == pytest.approx(
            starc_distance(mdp, r_1, r_2).distance
        )

    def test_counterexample_gamma_report_verified(self):
        config = ExperimentConfig(
            "counterexample-gamma",
            {"mdp": {"seed": 3, "n_states": 3, "n_actions": 2}, "gamma_1": 0.9, "gamma_2": 0.95},
        )
        report = run_experiment(config)
        assert report["results"]["verified"] is True
        assert report["results"]["certificate"]["distance"] == pytest.approx(1.0, abs=1e-6)

    def test_determinism_modulo_timing(self):
        config = ExperimentConfig(
            "counterexample-perturb", {"mdp": {"seed": 5}, "delta": 1e-2, "seed": 5}
        )
        a = strip_timings(run_experiment(config))
        b = strip_timings(run_experiment(config))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInstance, match="kind"):
            ExperimentConfig("plot-everything")

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(InvalidInstance, match="eta"):
            ExperimentConfig("starc-distance", {"eta": 0.0})

    def test_misspelled_key_rejected(self):
        with pytest.raises(InvalidInstance, match=r"params\.gamma1"):
            ExperimentConfig("counterexample-gamma", {"gamma1": 0.9})
        # A *_file key is accepted where its stem is, and nowhere else.
        ExperimentConfig("counterexample-tau", {"mdp_1_file": "a.json", "mdp_2": {"seed": 1}})
        with pytest.raises(InvalidInstance, match=r"params\.mdp_file"):
            ExperimentConfig("gridworld-demo", {"mdp_file": "a.json"})

    def test_generator_spec_keys_checked(self):
        with pytest.raises(InvalidInstance, match=r"params\.mdp\.n_state:"):
            ExperimentConfig("starc-distance", {"mdp": {"n_state": 6}})
        with pytest.raises(InvalidInstance, match=r"params\.mdp_2\.scale:"):
            ExperimentConfig("counterexample-tau", {"mdp_2": {"scale": 2.0}})
        with pytest.raises(InvalidInstance, match=r"params\.reward_1\.n_states:"):
            ExperimentConfig("starc-distance", {"reward_1": {"n_states": 3}})
        with pytest.raises(InvalidInstance, match=r"params\.mdp: must be an object"):
            ExperimentConfig("starc-distance", {"mdp": 3})
        # An MDP spec takes random_mdp's parameters; a reward spec, its seed and scale.
        mdp_spec = {"seed": 2, "n_states": 3, "n_actions": 2, "concentration": 0.5, "discount": 0.8}
        reward_spec = {"seed": 4, "scale": 2.0}
        config = ExperimentConfig("models-eval", {"mdp": mdp_spec, "reward": reward_spec})
        mdp = random_mdp(**mdp_spec)
        expected = boltzmann_policy(mdp, random_reward(4, 3, 2, scale=2.0), 1.0)
        np.testing.assert_array_equal(run_experiment(config)["results"]["policy"], expected)

    def test_generator_spec_values_checked(self):
        # An unseeded spec would draw a different instance on every run.
        for path, params in (
            ("params.mdp.seed", {"mdp": {"seed": None}}),
            ("params.reward_1.seed", {"reward_1": {"seed": None}}),
            ("params.reward_2.seed", {"reward_2": {"seed": True}}),
            ("params.mdp.seed", {"mdp": {"seed": 1.0}}),
            ("params.mdp.n_states", {"mdp": {"n_states": "4"}}),
            ("params.mdp.n_states", {"mdp": {"n_states": 0}}),
            ("params.mdp.n_actions", {"mdp": {"n_actions": 2.0}}),
            ("params.mdp.n_actions", {"mdp": {"n_actions": False}}),
            ("params.mdp.concentration", {"mdp": {"concentration": "1"}}),
            ("params.mdp.discount", {"mdp": {"discount": math.nan}}),
            ("params.reward_1.scale", {"reward_1": {"scale": math.inf}}),
            ("params.reward_1.scale", {"reward_1": {"scale": None}}),
        ):
            with pytest.raises(InvalidInstance, match=rf"{re.escape(path)}: must be"):
                ExperimentConfig("starc-distance", params)
        ExperimentConfig("starc-distance", {"mdp": {"seed": np.int64(3), "discount": 0.5}, "reward_1": {"scale": 2}})
        assert set(reports._SPEC_VALUES) == reports._MDP_SPEC | reports._REWARD_SPEC


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        report = run_experiment(ExperimentConfig("gridworld-demo", {"n": 3}))
        out = tmp_path / "report.json"
        emit_report(report, "json", out)
        assert json.loads(out.read_text()) == json.loads(json.dumps(report))

    def test_non_finite_value_rejected_before_writing(self, tmp_path):
        report = {"schema": "starclab-report-v1", "results": {"epsilon": math.inf, "ids": [1.0, math.nan]}}
        out = tmp_path / "report.json"
        with pytest.raises(InvalidInstance, match="results.epsilon"):
            emit_report(report, "json", out)
        assert not out.exists()

    def test_csv_has_header_and_one_row(self, tmp_path):
        report = run_experiment(
            ExperimentConfig("starc-distance", {"mdp": {"seed": 1}, "reward_1": {"seed": 2}})
        )
        out = tmp_path / "report.csv"
        emit_report(report, "csv", out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "results.distance" in lines[0]

    def test_csv_rejects_list_field_before_writing(self, tmp_path):
        report = run_experiment(ExperimentConfig("models-eval", {"mdp": {"seed": 1}}))
        out = tmp_path / "report.csv"
        with pytest.raises(InvalidInstance, match="results.policy"):
            emit_report(report, "csv", out)
        assert not out.exists()


class TestCli:
    def test_starc_matches_library(self, io_files, capsys):
        mdp, r_1, r_2, paths, _ = io_files
        rc = main(
            [
                "starc",
                "--mdp",
                str(paths["mdp"]),
                "--reward1",
                str(paths["r1"]),
                "--reward2",
                str(paths["r2"]),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["distance"] == pytest.approx(
            starc_distance(mdp, r_1, r_2).distance
        )

    def test_oracle_same_order(self, io_files, capsys):
        _, _, _, paths, _ = io_files
        rc = main(
            [
                "oracle",
                "same-order",
                "--mdp",
                str(paths["mdp"]),
                "--reward1",
                str(paths["r1"]),
                "--reward2",
                str(paths["r1"]),
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["same_order"] is True

    def test_out_file_written(self, io_files):
        _, _, _, paths, tmp = io_files
        out = tmp / "cert.json"
        rc = main(
            ["counterexample", "perturb", "--delta", "1e-2", "--out", str(out), "--seed", "4"]
        )
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["results"]["verified"] is True

    def test_gridworld_demo_command(self, capsys):
        rc = main(["gridworld-demo", "--n", "3"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["certificate"]["distance"] >= 0.99

    def test_unused_tolerance_flags_rejected(self, io_files):
        _, _, _, paths, _ = io_files
        args = ["starc", "--mdp", str(paths["mdp"]), "--reward1", str(paths["r1"]), "--reward2", str(paths["r2"])]
        assert build_parser().parse_args(args).command == "starc"
        for flag in ("--tol-dp", "--tol-policy"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(args + [flag, "1e-6"])

    def test_csv_of_list_report_exits_validation(self, io_files, capsys):
        _, _, _, paths, tmp = io_files
        out = tmp / "policy.csv"
        rc = main(
            ["models", "eval", "--mdp", str(paths["mdp"]), "--reward", str(paths["r1"]),
             "--format", "csv", "--out", str(out)]
        )
        assert rc == EXIT_VALIDATION
        assert "results.policy" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_on_stdout(self, io_files, capsys):
        mdp, r_1, r_2, paths, _ = io_files
        rc = main(
            ["starc", "--mdp", str(paths["mdp"]), "--reward1", str(paths["r1"]), "--reward2", str(paths["r2"]),
             "--format", "csv"]
        )
        assert rc == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["results.distance"]) == pytest.approx(starc_distance(mdp, r_1, r_2).distance)

    def test_csv_of_list_report_on_stdout_exits_validation(self, capsys):
        rc = main(["gridworld-demo", "--format", "csv"])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "results.certificate" in captured.err
        assert captured.out == ""

    def test_misspelled_config_key_exits_validation(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "counterexample-gamma", "params": {"gamma1": 0.9}}))
        rc = main(["robustness", "check", "--config", str(config)])
        assert rc == EXIT_VALIDATION
        assert "params.gamma1" in capsys.readouterr().err

    def test_every_subcommand_maps_to_accepted_params(self):
        # Give every flag without a default a value, so each flag's param is
        # checked against the kind table.
        commands = 0
        for path, parser in _experiment_commands(build_parser()):
            argv = list(path)
            for action in parser._actions:
                if action.option_strings and action.default is None:
                    argv += [action.option_strings[0], "x.json"]
            config = _config_from_args(build_parser().parse_args(argv))
            assert config.kind == parser.get_default("kind")
            commands += 1
        assert commands == 8

    def test_every_optional_flag_changes_the_config(self):
        # --alpha is read only by the mce model, so it is set under --model mce.
        context = {("models", "eval", "--alpha"): ["--model", "mce"]}
        commands = 0
        for path, parser in _experiment_commands(build_parser()):
            required = []
            for action in parser._actions:
                if action.required:
                    required += [action.option_strings[0], "x.json"]
            for action in parser._actions:
                flag = action.option_strings[0] if action.option_strings else None
                if flag is None or action.required or flag in ("-h", "--format", "--out"):
                    continue
                if action.choices:
                    value = next(choice for choice in action.choices if choice != action.default)
                else:
                    value = "x.json" if action.default is None else str(2 * action.default + 1)
                argv = path + required + context.get((*path, flag), [])
                before = _config_from_args(build_parser().parse_args(argv))
                after = _config_from_args(build_parser().parse_args(argv + [flag, value]))
                assert after != before, (path, flag)
            commands += 1
        assert commands == 8

    def test_flags_a_command_does_not_read_are_refused(self, capsys):
        for argv in (
            ["starc", "--mdp", "m.json", "--reward1", "a.json", "--reward2", "b.json", "--seed", "3"],
            ["gridworld-demo", "--seed", "7"],
            ["robustness", "check", "--config", "c.json", "--seed", "1"],
            ["suite", "acceptance", "--format", "csv"],
            ["suite", "acceptance", "--out", "report.json"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_spec_that_is_not_an_object_exits_validation(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "starc-distance", "params": {"mdp": 3}}))
        rc = main(["robustness", "check", "--config", str(config)])
        assert rc == EXIT_VALIDATION
        assert "params.mdp:" in capsys.readouterr().err

    def test_generator_spec_values_exit_validation(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for params, path in (({"mdp": {"seed": None}}, "params.mdp.seed"), ({"mdp": {"n_states": "4"}}, "params.mdp.n_states")):
            config.write_text(json.dumps({"kind": "starc-distance", "params": params}))
            assert main(["robustness", "check", "--config", str(config)]) == EXIT_VALIDATION
            assert path in capsys.readouterr().err

    def test_bad_model_params_exit_validation_before_running(self, tmp_path, capsys, monkeypatch):
        def run_experiment(config):
            raise AssertionError("a bad model parameter reached the solver")

        monkeypatch.setattr("starclab.cli.run_experiment", run_experiment)
        config = tmp_path / "config.json"
        for kind, params, path in (
            ("models-eval", '{"model": {"kind": "boltzmann", "beta": 1, "temperature": 2}}', "params.model.temperature"),
            ("models-eval", '{"model": {"kind": "boltzmann", "beta": true}}', "params.model.beta"),
            ("counterexample-gamma", '{"beta": true}', "params.beta"),
            ("models-eval", '{"model": {"kind": "mce", "alpha": 1, "beta": -4}}', "params.model.beta"),
            ("counterexample-tau", '{"model_kind": "mce", "beta": -4}', "params.beta"),
            ("models-eval", '{"model": {"kind": "boltzmann", "beta": "2"}}', "params.model.beta"),
            ("models-eval", '{"model": "boltzmann"}', "params.model"),
            ("counterexample-gamma", '{"beta": "x"}', "params.beta"),
            ("models-eval", '{"model": {"kind": "boltzmann", "beta": NaN}}', "params.model.beta"),
            ("counterexample-perturb", '{"beta": NaN}', "params.beta"),
            ("models-eval", '{"model": {"kind": "boltzmann", "beta": 1e400}}', "params.model.beta"),
            ("gridworld-demo", '{"alpha": 1e400}', "params.alpha"),
            ("counterexample-gamma", '{"model_kind": "softmax"}', "params.model_kind"),
        ):
            config.write_text(f'{{"kind": "{kind}", "params": {params}}}')
            assert main(["robustness", "check", "--config", str(config)]) == EXIT_VALIDATION, params
            assert f"validation error: {path}:" in capsys.readouterr().err, params

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"kind": "not-a-kind"}))
        rc = main(["robustness", "check", "--config", str(bad)])
        assert rc == EXIT_VALIDATION
