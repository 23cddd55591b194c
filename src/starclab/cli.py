"""Command-line front end.

Every subcommand is a thin shell over library operations; an experiment
subcommand stores each flag under the param it sets (``--gamma1`` sets
``gamma_1``).  Exit codes: 0 success, 1 validation error, 2 pipeline error,
3 acceptance-suite failure.  ``main`` maps every failure in two blocks:
building and running the config (``InvalidInstance`` exits 1, any other
exception 2), then writing the report (a CSV list field exits 1; a
non-finite JSON value or an ``OSError`` exits 2).
"""

from __future__ import annotations

import argparse
import sys

from .mdp import InvalidInstance, read_json
from .models import MODEL_KINDS
from .reports import EXPERIMENT_KINDS, ExperimentConfig, emit_report, report_text, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PIPELINE = 2
EXIT_ACCEPTANCE = 3


def _add_common(parser: argparse.ArgumentParser, kind: str | None = None) -> None:
    """Add the report flags ``--format`` and ``--out``, and ``--seed`` where used.

    An experiment subcommand also names its experiment ``kind``, and takes
    ``--seed`` only if that kind reads a ``seed`` option.
    """
    if kind is not None and "seed" in EXPERIMENT_KINDS[kind].options:
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.set_defaults(kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starclab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("starc", help="distance between two reward files on one MDP")
    p.add_argument("--mdp", dest="mdp_file", required=True)
    p.add_argument("--reward1", dest="reward_1_file", required=True)
    p.add_argument("--reward2", dest="reward_2_file", required=True)
    _add_common(p, "starc-distance")

    p = sub.add_parser("models", help="behavioural-model operations")
    models_sub = p.add_subparsers(dest="models_command", required=True)
    pe = models_sub.add_parser("eval", help="evaluate a model on a reward")
    pe.add_argument("--mdp", dest="mdp_file", required=True)
    pe.add_argument("--reward", dest="reward_file", required=True)
    pe.add_argument("--model", default="boltzmann", choices=list(MODEL_KINDS))
    for weight in dict.fromkeys(kind.weight for kind in MODEL_KINDS.values() if kind.weight):
        pe.add_argument(f"--{weight}", type=float, default=1.0)
    _add_common(pe, "models-eval")

    p = sub.add_parser("robustness", help="robustness checking")
    rob_sub = p.add_subparsers(dest="robustness_command", required=True)
    pc = rob_sub.add_parser("check", help="run any experiment kind from a JSON config")
    pc.add_argument("--config", required=True, help="JSON experiment config file")
    _add_common(pc)

    p = sub.add_parser("counterexample", help="construct non-robustness certificates")
    ce_sub = p.add_subparsers(dest="scenario", required=True)
    pg = ce_sub.add_parser("gamma")
    pg.add_argument("--mdp", dest="mdp_file", default=None)
    pg.add_argument("--gamma1", dest="gamma_1", type=float, default=0.9)
    pg.add_argument("--gamma2", dest="gamma_2", type=float, default=0.95)
    pg.add_argument("--beta", type=float, default=1.0)
    _add_common(pg, "counterexample-gamma")
    pt = ce_sub.add_parser("tau")
    pt.add_argument("--mdp1", dest="mdp_1_file", required=True)
    pt.add_argument("--mdp2", dest="mdp_2_file", required=True)
    pt.add_argument("--beta", type=float, default=1.0)
    _add_common(pt, "counterexample-tau")
    pp = ce_sub.add_parser("perturb")
    pp.add_argument("--mdp", dest="mdp_file", default=None)
    pp.add_argument("--delta", type=float, default=1e-2)
    pp.add_argument("--c", type=float, default=1.0)
    pp.add_argument("--beta", type=float, default=1.0)
    _add_common(pp, "counterexample-perturb")
    po = ce_sub.add_parser("optimality")
    po.add_argument("--mdp", dest="mdp_file", default=None)
    _add_common(po, "counterexample-optimality")

    p = sub.add_parser("gridworld-demo", help="torus-gridworld transition counterexample")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_common(p, "gridworld-demo")

    p = sub.add_parser("oracle", help="brute-force oracles")
    orc_sub = p.add_subparsers(dest="oracle_command", required=True)
    ps = orc_sub.add_parser("same-order")
    ps.add_argument("--mdp", dest="mdp_file", required=True)
    ps.add_argument("--reward1", dest="reward_1_file", required=True)
    ps.add_argument("--reward2", dest="reward_2_file", required=True)
    _add_common(ps, "same-order")

    p = sub.add_parser("suite", help="verification suites")
    suite_sub = p.add_subparsers(dest="suite_command", required=True)
    suite_sub.add_parser("acceptance", help="run the 12-criterion acceptance suite")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the parsed flags whose names the kind accepts, leaving out ``None`` (a flag not given).

    ``--model`` and the weight flag its kind reads make up the one ``model`` param.
    """
    accepted = EXPERIMENT_KINDS[args.kind].accepted()
    params = {key: value for key, value in vars(args).items() if key in accepted and value is not None}
    if "model" in params:
        weight = MODEL_KINDS[args.model].weight
        params["model"] = {"kind": args.model, **({weight: getattr(args, weight)} if weight else {})}
    return ExperimentConfig(args.kind, params)


def _fail(code: int, exc: Exception) -> int:
    print(f"{'validation' if code == EXIT_VALIDATION else 'pipeline'} error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "suite":
        from .acceptance import run_all

        results = run_all()
        failed = [r for r in results if not r["passed"]]
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
        return EXIT_ACCEPTANCE if failed else EXIT_OK

    try:
        if args.command == "robustness":
            config = ExperimentConfig.from_dict(read_json(args.config))
        else:
            config = _config_from_args(args)
        report = run_experiment(config)
    except InvalidInstance as exc:
        return _fail(EXIT_VALIDATION, exc)
    except Exception as exc:
        return _fail(EXIT_PIPELINE, exc)

    try:
        if args.out:
            emit_report(report, args.format, args.out)
        else:
            # CSV text ends its rows itself; JSON text has no final newline.
            print(report_text(report, args.format), end="" if args.format == "csv" else "\n")
    except InvalidInstance as exc:
        # CSV cannot hold this kind's list fields: the format is the wrong
        # choice.  JSON cannot hold a non-finite result: the pipeline's fault.
        return _fail(EXIT_VALIDATION if args.format == "csv" else EXIT_PIPELINE, exc)
    except OSError as exc:
        return _fail(EXIT_PIPELINE, exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
