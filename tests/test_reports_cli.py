import argparse
import ast
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starclab import InvalidInstance, boltzmann_policy, random_mdp, random_reward, starc_distance
from starclab.cli import EXIT_OK, EXIT_PIPELINE, EXIT_VALIDATION, _config_from_args, build_parser, main
from starclab import reports
from starclab.mdp import ConvergenceError, save_mdp, save_reward
from starclab.models import MODEL_KINDS
from starclab.reports import ExperimentConfig, emit_report, report_text, run_experiment, strip_timings


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
        # A kind that is not a string: a list or an object raised TypeError (unhashable type).
        for kind in (["starc-distance"], {"kind": "starc-distance"}, None, 3):
            with pytest.raises(InvalidInstance, match=rf"^kind: unknown experiment kind {re.escape(repr(kind))}; "):
                ExperimentConfig.from_dict({"kind": kind})

    def test_config_fields_are_kind_and_params(self):
        # A misspelled "param" was dropped, so the run took the default delta.
        with pytest.raises(InvalidInstance, match=r"^param: not a config field; expected one of \['kind', 'params'\]$"):
            ExperimentConfig.from_dict({"kind": "counterexample-perturb", "param": {"delta": 0.5}})
        config = ExperimentConfig.from_dict({"kind": "counterexample-perturb", "params": {"delta": 0.5}})
        assert config.params == {"delta": 0.5}

    def test_file_params_must_be_path_strings(self):
        # open() reads an integer as a file descriptor: 0 read standard input, 2 closed standard error.
        checked = set()
        for kind_name, kind in reports.EXPERIMENT_KINDS.items():
            for name in kind.mdps + kind.rewards:
                for bad in (0, 2, 7.5, True, None, "", "m\0.json", b"m.json", ["m.json"]):
                    with pytest.raises(InvalidInstance, match=rf"^params\.{name}_file: must be a path string, got "):
                        ExperimentConfig(kind_name, {f"{name}_file": bad})
                ExperimentConfig(kind_name, {f"{name}_file": "m.json"})
                checked.add(f"{name}_file")
        assert checked == {"mdp_file", "mdp_1_file", "mdp_2_file", "reward_file", "reward_1_file", "reward_2_file"}

    def test_spec_beside_its_file_refused(self):
        # The file was read and the spec ignored without a word.
        for kind, name in (
            ("starc-distance", "mdp"), ("starc-distance", "reward_2"), ("models-eval", "reward"), ("counterexample-tau", "mdp_1"),
        ):
            for spec in ({"seed": 1}, {}):
                with pytest.raises(InvalidInstance, match=rf"^params\.{name}_file: given beside params\.{name}; "):
                    ExperimentConfig(kind, {name: spec, f"{name}_file": "x.json"})
        ExperimentConfig("counterexample-tau", {"mdp_1": {"seed": 1}, "mdp_2_file": "x.json"})

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


    def test_bare_transition_config_runs_and_verifies(self):
        # Each MDP's seed defaults to its index, so mdp_1 and mdp_2 differ.
        report = run_experiment(ExperimentConfig("counterexample-tau"))
        assert report["results"]["verified"] is True
        cert = report["results"]["certificate"]
        assert cert["mdp_gen"] == random_mdp(0, 4, 3).to_dict()
        assert cert["mdp_eval"] == random_mdp(1, 4, 3).to_dict()

    def test_bare_reward_configs_draw_distinct_rewards(self):
        # Each reward's seed defaults to its index, so a bare config no longer
        # compares a reward with itself (distance 0.0, same order True).
        mdp = random_mdp(0, 4, 3)
        r_1, r_2 = random_reward(0, 4, 3), random_reward(1, 4, 3)
        results = run_experiment(ExperimentConfig("starc-distance"))["results"]
        assert results == starc_distance(mdp, r_1, r_2).to_dict()
        assert results["distance"] == pytest.approx(0.589, abs=1e-3)
        assert run_experiment(ExperimentConfig("same-order"))["results"] == {"same_order": False}
        # A one-reward kind keeps seed 0.
        policy = run_experiment(ExperimentConfig("models-eval"))["results"]["policy"]
        np.testing.assert_array_equal(policy, boltzmann_policy(mdp, r_1, 1.0))

    def test_every_option_has_a_value_rule(self):
        options = {key for kind in reports.EXPERIMENT_KINDS.values() for key in kind.options}
        assert options == set(reports._OPTION_VALUES) | set(reports._MODEL_OPTIONS)
        for path, kind, params in (
            ("params.seed", "counterexample-optimality", {"seed": -1}),
            ("params.seed", "same-order", {"seed": True}),
            ("params.n", "gridworld-demo", {"n": 1}),
            ("params.c", "counterexample-perturb", {"c": 0.0}),
            ("params.delta", "counterexample-perturb", {"delta": -1e-2}),
            ("params.delta", "counterexample-perturb", {"delta": math.inf}),
            ("params.gamma", "gridworld-demo", {"gamma": None}),
            ("params.gamma_2", "counterexample-gamma", {"gamma_2": "0.95"}),
        ):
            with pytest.raises(InvalidInstance, match=rf"{re.escape(path)}: must be"):
                ExperimentConfig(kind, params)
        ExperimentConfig("counterexample-perturb", {"c": 2, "delta": 1e-3, "seed": np.int64(4)})
        ExperimentConfig("gridworld-demo", {"n": np.int64(2), "gamma": 0.5})


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
        out.write_bytes(b"an earlier report")
        with pytest.raises(InvalidInstance, match="results.epsilon"):
            emit_report(report, "json", out)
        assert out.read_bytes() == b"an earlier report"

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
        out.write_bytes(b"an earlier report")
        with pytest.raises(InvalidInstance, match="results.policy"):
            emit_report(report, "csv", out)
        assert out.read_bytes() == b"an earlier report"

    @pytest.mark.parametrize("old_fmt, new_fmt", [("json", "json"), ("json", "csv"), ("csv", "json")])
    def test_short_report_over_a_longer_file_leaves_exactly_its_text(self, tmp_path, old_fmt, new_fmt):
        # The file is rewritten in place, not truncated on open: the old tail must be cut.
        long = run_experiment(ExperimentConfig("starc-distance", {}))
        short = {"schema": reports.SCHEMA_TAG, "results": {"distance": 0.25}}
        out = tmp_path / "report.out"
        emit_report(long, old_fmt, out)
        assert out.stat().st_size > len(report_text(short, new_fmt).encode())
        emit_report(short, new_fmt, out)
        assert out.read_bytes() == report_text(short, new_fmt).encode()

    def test_rewrite_keeps_the_inode_mode_and_links(self, tmp_path):
        out, link = tmp_path / "report.json", tmp_path / "link.json"
        out.write_text("x" * 10_000)
        out.chmod(0o640)
        os.link(out, link)
        before = out.stat()
        report = run_experiment(ExperimentConfig("gridworld-demo", {"n": 2}))
        emit_report(report, "json", out)
        after = out.stat()
        assert (after.st_ino, after.st_nlink, stat.S_IMODE(after.st_mode)) == (before.st_ino, 2, 0o640)
        assert link.read_bytes() == report_text(report, "json").encode()

    def test_new_file_gets_the_mode_open_for_writing_gives(self, tmp_path):
        report = {"schema": reports.SCHEMA_TAG, "results": {"distance": 0.25}}
        old_umask = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            emit_report(report, "json", tmp_path / "report.json")
        finally:
            os.umask(old_umask)
        assert (tmp_path / "report.json").stat().st_mode == (tmp_path / "reference").stat().st_mode


# One small config of every experiment kind.
FORMAT_CONFIGS = {
    "starc-distance": {},
    "models-eval": {"model": {"kind": "mce", "alpha": 0.5}},
    "same-order": {"mdp": {"n_states": 3, "n_actions": 2}},
    "counterexample-gamma": {"mdp": {"seed": 3, "n_states": 3, "n_actions": 2}},
    "counterexample-tau": {"model_kind": "mce"},
    "counterexample-perturb": {"mdp": {"seed": 5}, "delta": 1e-2, "seed": 5},
    "counterexample-optimality": {"mdp": {"n_states": 3, "n_actions": 2}},
    "gridworld-demo": {"n": 2},
}


def _floats(obj):
    """Every float in a report, in order."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _floats(value)


def _indent_calls(source: str) -> int:
    """The ``json.dump``/``json.dumps`` calls in ``source`` that pass ``indent``."""
    return sum(
        isinstance(node, ast.Call)
        and not {"dump", "dumps"}.isdisjoint((getattr(node.func, "id", None), getattr(node.func, "attr", None)))
        and any(keyword.arg == "indent" for keyword in node.keywords)
        for node in ast.walk(ast.parse(source))
    )


# The one function that may open a file for writing, and the flags that ask os.open to write.
WRITER = ("mdp.py", "write_file")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _write_paths(source: str, writer: str | None = None) -> list[str]:
    """The ways ``source``, outside the function named ``writer``, opens a file for writing.

    That is an ``open`` or ``fdopen`` call whose mode holds ``w``, ``a``,
    ``x`` or ``+`` (or is not a string literal), a ``write_text`` or
    ``write_bytes`` call, and any use of a name in ``WRITE_FLAGS``, such as
    ``O_TRUNC``.
    """
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.name == writer:
            return
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in WRITE_FLAGS:
            found.append(name)
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            os_open = called == "open" and getattr(getattr(node.func, "value", None), "id", None) == "os"
            mode = {k.arg: k.value for k in node.keywords}.get("mode", node.args[1] if len(node.args) > 1 else None)
            if called in ("open", "fdopen") and not os_open and mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value).isdisjoint("wax+")
            ):
                found.append(ast.unparse(node))
            if called in ("write_text", "write_bytes"):
                found.append(ast.unparse(node))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


class TestWritePath:
    @pytest.mark.parametrize("line", [
        'open(p, "w")', 'open(p, "a", newline="")', 'io.open(p, mode="xb")', 'os.fdopen(fd, "r+")',
        "open(p, mode)", "os.open(p, os.O_RDWR)", "from os import O_TRUNC",
        'Path(p).write_text("x")', 'p.write_bytes(b"x")',
    ])
    def test_every_write_form_is_read(self, line):
        assert len(_write_paths(line)) == 1

    @pytest.mark.parametrize("line", [
        "open(p)", 'open(p, "rb")', 'open(p, mode="r", encoding="utf-8")', "os.open(p, os.O_RDONLY)", "fh.write(t)",
    ])
    def test_reads_are_not_writes(self, line):
        assert _write_paths(line) == []

    def test_only_the_writer_opens_a_file_for_writing(self):
        # Every file the package writes goes through mdp.write_file, which
        # rewrites in place; an O_TRUNC open elsewhere would bring back its cost.
        package = Path(reports.__file__).parent
        found = {
            path.name: _write_paths(path.read_text(), WRITER[1] if path.name == WRITER[0] else None)
            for path in sorted(package.glob("*.py"))
        }
        assert {name: paths for name, paths in found.items() if paths} == {}
        assert _write_paths((package / WRITER[0]).read_text()) != []  # the writer is there, and is read


class TestReportFormat:
    def test_one_config_per_kind(self):
        assert set(FORMAT_CONFIGS) == set(reports.EXPERIMENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(FORMAT_CONFIGS))
    def test_json_is_one_line_with_every_float_bit_for_bit(self, kind):
        report = run_experiment(ExperimentConfig(kind, FORMAT_CONFIGS[kind]))
        text = report_text(report, "json")
        assert "\n" not in text
        back = json.loads(text)
        assert back == json.loads(json.dumps(report))
        floats = list(_floats(report))
        assert [x.hex() for x in _floats(back)] == [x.hex() for x in floats] and floats

    def test_cli_json_on_stdout_is_one_line(self, capsys):
        assert main(["gridworld-demo", "--n", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["results"]["verified"] is True

    @pytest.mark.parametrize("line", ["json.dumps(r, indent=2)", "json.dump(r, fh, indent=None)", "dumps(r, indent=1)"])
    def test_every_indent_call_form_is_read(self, line):
        assert _indent_calls(line) == 1

    def test_no_json_call_in_the_package_passes_indent(self):
        # Given an indent, json skips its C encoder for the pure-Python one.
        package = Path(reports.__file__).parent
        assert [path.name for path in package.glob("*.py") if _indent_calls(path.read_text())] == []


# Every flag of each experiment subcommand set (models eval once per weight
# flag its --model reads), and the params the flags made when each was
# mapped to its param by hand.
FLAG_PARAMS = [
    (["starc", "--mdp", "m.json", "--reward1", "a.json", "--reward2", "b.json"],
     "starc-distance", {"mdp_file": "m.json", "reward_1_file": "a.json", "reward_2_file": "b.json"}),
    (["models", "eval", "--mdp", "m.json", "--reward", "a.json", "--model", "mce", "--beta", "2", "--alpha", "0.5"],
     "models-eval", {"mdp_file": "m.json", "reward_file": "a.json", "model": {"kind": "mce", "alpha": 0.5}}),
    (["models", "eval", "--mdp", "m.json", "--reward", "a.json", "--model", "boltzmann", "--beta", "2", "--alpha", "0.5"],
     "models-eval", {"mdp_file": "m.json", "reward_file": "a.json", "model": {"kind": "boltzmann", "beta": 2.0}}),
    (["counterexample", "gamma", "--mdp", "m.json", "--gamma1", "0.8", "--gamma2", "0.85", "--beta", "2", "--seed", "3"],
     "counterexample-gamma", {"gamma_1": 0.8, "gamma_2": 0.85, "beta": 2.0, "seed": 3, "mdp_file": "m.json"}),
    (["counterexample", "tau", "--mdp1", "m.json", "--mdp2", "n.json", "--beta", "2"],
     "counterexample-tau", {"mdp_1_file": "m.json", "mdp_2_file": "n.json", "beta": 2.0}),
    (["counterexample", "perturb", "--mdp", "m.json", "--delta", "0.02", "--c", "3", "--beta", "2", "--seed", "4"],
     "counterexample-perturb", {"delta": 0.02, "c": 3.0, "beta": 2.0, "seed": 4, "mdp_file": "m.json"}),
    (["counterexample", "optimality", "--mdp", "m.json", "--seed", "5"],
     "counterexample-optimality", {"seed": 5, "mdp_file": "m.json"}),
    (["gridworld-demo", "--n", "4", "--gamma", "0.8", "--alpha", "0.5"],
     "gridworld-demo", {"n": 4, "gamma": 0.8, "alpha": 0.5}),
    (["oracle", "same-order", "--mdp", "m.json", "--reward1", "a.json", "--reward2", "b.json", "--seed", "6"],
     "same-order", {"mdp_file": "m.json", "reward_1_file": "a.json", "reward_2_file": "b.json", "seed": 6}),
]


def _raising(exc):
    """A stage double that raises ``exc``."""
    def stage(*args, **kwargs):
        raise exc
    return stage


NON_FINITE_REPORT = {"schema": reports.SCHEMA_TAG, "results": {"certificate": {"distance": math.nan}}}

# Where a failure is raised -> (argv, the stage replaced and its double, exit
# code, the start of the one stderr line).  In argv, {mdp}, {r1} and {tmp}
# are the input files and the test's directory, and {config} a config file
# holding CONFIGS[row], if it has one.
EXIT_CODES = {
    "run-invalid-instance": (["counterexample", "gamma"], ("run_experiment", _raising(InvalidInstance("no pair"))),
                             EXIT_VALIDATION, "validation error: no pair\n"),
    "run-convergence": (["counterexample", "gamma"], ("run_experiment", _raising(ConvergenceError("did not settle"))),
                        EXIT_PIPELINE, "pipeline error: did not settle\n"),
    "run-memory": (["counterexample", "gamma"], ("run_experiment", _raising(MemoryError("no room"))),
                   EXIT_PIPELINE, "pipeline error: no room\n"),
    "run-type": (["counterexample", "gamma"], ("run_experiment", _raising(TypeError("not a float"))),
                 EXIT_PIPELINE, "pipeline error: not a float\n"),
    # A valid count that no array can hold fails in the pipeline, not in validation.
    "run-cannot-allocate": (["robustness", "check", "--config", "{config}"], None, EXIT_PIPELINE, "pipeline error: "),
    "build-from-flags": (["counterexample", "gamma"], ("_config_from_args", _raising(KeyError("gamma_1"))),
                         EXIT_PIPELINE, "pipeline error: 'gamma_1'\n"),
    "build-from-config": (["robustness", "check", "--config", "{config}"],
                          ("read_json", _raising(RecursionError("too deep"))), EXIT_PIPELINE, "pipeline error: too deep\n"),
    "csv-list-field-out": (["models", "eval", "--mdp", "{mdp}", "--reward", "{r1}", "--format", "csv", "--out", "{tmp}/policy.csv"],
                           None, EXIT_VALIDATION, "validation error: report field results.policy is a list"),
    "csv-list-field-stdout": (["gridworld-demo", "--format", "csv"], None,
                              EXIT_VALIDATION, "validation error: report field results.certificate."),
    "json-non-finite": (["counterexample", "gamma"], ("run_experiment", lambda config: NON_FINITE_REPORT), EXIT_PIPELINE,
                        "pipeline error: report field results.certificate.distance is not finite; JSON cannot represent it\n"),
    "out-unwritable": (["gridworld-demo", "--n", "2", "--out", "{tmp}/missing/report.json"], None,
                       EXIT_PIPELINE, "pipeline error: [Errno 2] No such file or directory"),
}
CONFIGS = {
    "run-cannot-allocate": {"kind": "starc-distance", "params": {"mdp": {"n_states": 2**70}}},
}


class TestExitCodes:
    @pytest.mark.parametrize("row", EXIT_CODES)
    def test_failure_exits_with_its_code(self, row, io_files, capsys, monkeypatch):
        argv, double, code, err = EXIT_CODES[row]
        _, _, _, paths, tmp = io_files
        if double is not None:
            monkeypatch.setattr(f"starclab.cli.{double[0]}", double[1])
        if row in CONFIGS:
            (tmp / "config.json").write_text(json.dumps(CONFIGS[row]))
        files = {"mdp": paths["mdp"], "r1": paths["r1"], "tmp": tmp, "config": tmp / "config.json"}
        argv = [arg.format(**files) for arg in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        # One line, so no traceback, and no report.
        assert captured.err.startswith(err) and captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        if "--out" in argv:
            assert not Path(argv[argv.index("--out") + 1]).exists()


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

    @pytest.mark.skipif(
        not os.path.exists(os.devnull) or not stat.S_ISCHR(os.stat(os.devnull).st_mode),
        reason="the null device is not a character device here",
    )
    def test_out_to_the_null_device_exits_ok(self, capsys):
        # A device cannot be truncated; the writer only cuts regular files.
        assert main(["gridworld-demo", "--n", "2", "--out", os.devnull]) == EXIT_OK
        assert capsys.readouterr() == ("", "")

    def test_gridworld_demo_command(self, capsys):
        rc = main(["gridworld-demo", "--n", "3"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["certificate"]["distance"] >= 0.99

    def test_certificates_leave_at_distance_one_or_exit_validation(self, tmp_path, capsys):
        # Each of these either refused a pair the metric resolves or printed
        # "verified": true with distance 0.0.
        for argv in (["gamma", "--gamma2", "0.9000001"], ["perturb", "--c", "1e200", "--beta", "1e-200"]):
            assert main(["counterexample", *argv]) == EXIT_OK, argv
            results = json.loads(capsys.readouterr().out)["results"]
            assert results["verified"] is True and results["certificate"]["distance"] == pytest.approx(1.0, abs=1e-8)
        for flags in (["--delta", "1e-12"], ["--c", "1e9"]):
            assert main(["counterexample", "perturb", *flags]) == EXIT_VALIDATION, flags
            assert "triviality floor TRIVIAL_RTOL * c" in capsys.readouterr().err
        config = tmp_path / "tau.json"
        params = {"mdp_1": {"n_actions": 1}, "mdp_2": {"n_actions": 1}}
        config.write_text(json.dumps({"kind": "counterexample-tau", "params": params}))
        assert main(["robustness", "check", "--config", str(config)]) == EXIT_VALIDATION
        assert "the transition pair measures distance 0 under mdp_eval, not 1" in capsys.readouterr().err

    @pytest.mark.parametrize("gap", (1e-7, 1e-8, 1e-9, 1e-15))
    def test_nearly_parallel_transition_rows_exit_validation(self, near_kernel_pair, tmp_path, capsys, gap):
        # These pairs exited 2 with "internal error: mean constraints unsolvable".
        paths = [tmp_path / "mdp1.json", tmp_path / "mdp2.json"]
        for mdp, path in zip(near_kernel_pair(gap), paths):
            save_mdp(mdp, path)
        assert main(["counterexample", "tau", "--mdp1", str(paths[0]), "--mdp2", str(paths[1])]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation error: ")

    def test_unused_tolerance_flags_rejected(self, io_files):
        _, _, _, paths, _ = io_files
        args = ["starc", "--mdp", str(paths["mdp"]), "--reward1", str(paths["r1"]), "--reward2", str(paths["r2"])]
        assert build_parser().parse_args(args).command == "starc"
        for flag in ("--tol-dp", "--tol-policy"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(args + [flag, "1e-6"])

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
                elif flag.startswith("--gamma"):  # a discount stays in (0, 1)
                    value = str((action.default + 1) / 2)
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

    def test_bad_option_values_exit_validation(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for kind, params, path in (
            ("gridworld-demo", '{"n": "3"}', "params.n"),
            ("gridworld-demo", '{"n": 2.5}', "params.n"),
            ("counterexample-perturb", '{"delta": "x"}', "params.delta"),
            ("same-order", '{"seed": "x"}', "params.seed"),
            ("counterexample-perturb", '{"c": NaN}', "params.c"),
            ("counterexample-gamma", '{"gamma_1": 1.5}', "params.gamma_1"),
            ("counterexample-gamma", '{"gamma_2": 0}', "params.gamma_2"),
            ("gridworld-demo", '{"gamma": 1.5}', "params.gamma"),
            ("gridworld-demo", '{"gamma": 1}', "params.gamma"),
        ):
            config.write_text(f'{{"kind": "{kind}", "params": {params}}}')
            assert main(["robustness", "check", "--config", str(config)]) == EXIT_VALIDATION, params
            assert f"validation error: {path}:" in capsys.readouterr().err, params

    def test_huge_integer_concentration_runs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "starc-distance", "params": {"mdp": {"concentration": 2**70}}}))
        assert main(["robustness", "check", "--config", str(config)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["params"]["mdp"]["concentration"] == 2**70

    def test_malformed_input_files_exit_validation_naming_the_field(self, io_files, capsys):
        mdp, r_1, _, paths, tmp = io_files
        ragged_values = r_1.tolist()
        ragged_values[0][1] = ragged_values[0][1][:2]
        word_values = r_1.tolist()
        word_values[2][0][1] = "x"
        ragged_rows = mdp.to_dict()
        ragged_rows["transition"][1][0] = ragged_rows["transition"][1][0] + [0.0]
        cases = (
            ("--reward1", {"values": ragged_values}, "reward is ragged or not numeric"),
            ("--reward1", {"values": word_values}, "reward is ragged or not numeric"),
            ("--mdp", ragged_rows, "transition is ragged or not numeric"),
            ("--mdp", {**mdp.to_dict(), "discount": "0.9x"}, "discount: must be a number in (0, 1), got '0.9x'"),
            ("--mdp", {**mdp.to_dict(), "discount": "0.9"}, "discount: must be a number in (0, 1), got '0.9'"),
        )
        for flag, doc, message in cases:
            bad = tmp / "bad.json"
            bad.write_text(json.dumps(doc))
            files = {"--mdp": paths["mdp"], "--reward1": paths["r1"], "--reward2": paths["r2"], flag: bad}
            assert main(["starc", *(str(item) for pair in files.items() for item in pair)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_unreadable_or_malformed_input_files_exit_validation_naming_the_file(self, io_files, capsys):
        _, _, _, paths, tmp = io_files
        truncated = tmp / "truncated.json"
        truncated.write_text(paths["mdp"].read_text()[:40])
        missing = tmp / "missing.json"
        for bad, message in (
            (truncated, f"{truncated} is not valid JSON: "),
            (missing, f"cannot read {missing}: No such file or directory"),
            (tmp, f"cannot read {tmp}: Is a directory"),
        ):
            for flag in ("--mdp", "--reward1"):
                files = {"--mdp": paths["mdp"], "--reward1": paths["r1"], "--reward2": paths["r2"], flag: bad}
                assert main(["starc", *(str(item) for pair in files.items() for item in pair)]) == EXIT_VALIDATION
                assert capsys.readouterr().err.startswith(f"validation error: {message}")
            assert main(["robustness", "check", "--config", str(bad)]) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith(f"validation error: {message}")

    def test_input_file_that_is_not_an_object_exits_validation(self, io_files, capsys):
        _, _, _, paths, tmp = io_files
        bad = tmp / "three.json"
        bad.write_text("3")
        for flag, noun in (("--mdp", "MDP"), ("--reward1", "reward")):
            files = {"--mdp": paths["mdp"], "--reward1": paths["r1"], "--reward2": paths["r2"], flag: bad}
            assert main(["starc", *(str(item) for pair in files.items() for item in pair)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"validation error: {noun} document must be an object, got int\n"

    def test_config_that_is_not_an_object_exits_validation(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("3")
        assert main(["robustness", "check", "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: config must be an object, got int\n"

    def test_robustness_check_help_says_what_it_runs(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["robustness", "--help"])
        assert exit_.value.code == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert "check run any experiment kind from a JSON config" in help_text
        assert "four-condition" not in help_text

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"kind": "not-a-kind"}))
        rc = main(["robustness", "check", "--config", str(bad)])
        assert rc == EXIT_VALIDATION

    def test_bad_config_fields_exit_validation(self, io_files, capsys):
        _, _, _, paths, tmp = io_files
        config = tmp / "config.json"
        for doc, message in (
            ({"kind": ["starc-distance"]}, "kind: unknown experiment kind ['starc-distance']; "),
            ({"kind": "starc-distance", "params": {"reward_1_file": 7.5}}, "params.reward_1_file: must be a path string, got 7.5\n"),
            ({"kind": "starc-distance", "params": {"mdp": {"seed": 1}, "mdp_file": str(paths["mdp"])}},
             "params.mdp_file: given beside params.mdp; "),
            ({"kind": "counterexample-perturb", "param": {"delta": 0.5}}, "param: not a config field; "),
        ):
            config.write_text(json.dumps(doc))
            assert main(["robustness", "check", "--config", str(config)]) == EXIT_VALIDATION, doc
            captured = capsys.readouterr()
            assert captured.err.startswith(f"validation error: {message}") and captured.out == "", doc

    @pytest.mark.parametrize("fd", [0, 2])
    def test_file_descriptor_number_is_not_a_path(self, io_files, fd):
        # In a fresh process: 0 read the MDP piped to standard input and exited 0,
        # and 2 closed standard error and exited 1 printing nothing.
        _, _, _, paths, tmp = io_files
        config = tmp / "config.json"
        config.write_text(json.dumps({"kind": "starc-distance", "params": {"mdp_file": fd}}))
        src = str(Path(reports.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-m", "starclab.cli", "robustness", "check", "--config", str(config)],
            input=paths["mdp"].read_bytes(), capture_output=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (EXIT_VALIDATION, b"")
        assert done.stderr == f"validation error: params.mdp_file: must be a path string, got {fd}\n".encode()

    def test_every_flag_stores_under_the_param_it_sets(self):
        # _config_from_args keeps the flags whose names its kind accepts, so a
        # flag stored under any other name would be dropped.  The only flags
        # that are not params are the report flags and models eval's model flags.
        weights = {kind.weight for kind in MODEL_KINDS.values() if kind.weight}
        flags = {}
        for path, parser in _experiment_commands(build_parser()):
            accepted = reports.EXPERIMENT_KINDS[parser.get_default("kind")].accepted() | {"format", "out"}
            if path == ["models", "eval"]:
                accepted |= {"model", *weights}
            actions = [action for action in parser._actions if action.option_strings and action.dest != "help"]
            for action in actions:
                assert action.dest in accepted, (path, action.option_strings[0], action.dest)
            flags[tuple(path)] = {action.option_strings[0] for action in actions} - {"--format", "--out"}
        assert len(flags) == 8
        # Each row sets every flag of its subcommand, and gets the params those flags made before.
        covered = set()
        for argv, kind, params in FLAG_PARAMS:
            path = next(path for path in flags if tuple(argv[: len(path)]) == path)
            assert {arg for arg in argv if arg.startswith("--")} == flags[path], argv
            config = _config_from_args(build_parser().parse_args([*argv, "--format", "csv", "--out", "r.csv"]))
            assert (config.kind, config.params) == (kind, params), argv
            covered.add(path)
        assert covered == set(flags)
