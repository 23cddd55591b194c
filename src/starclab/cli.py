"""Command-line front end.

Every subcommand is a thin shell over library operations.  Exit codes:
0 success, 1 validation error, 2 pipeline error, 3 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .mdp import InvalidInstance
from .models import MODEL_KINDS
from .reports import EXPERIMENT_KINDS, ExperimentConfig, emit_report, report_text, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PIPELINE = 2
EXIT_ACCEPTANCE = 3


def _add_common(
    parser: argparse.ArgumentParser,
    kind: str | None = None,
    params: Callable[[argparse.Namespace], dict] | None = None,
) -> None:
    """Add the report flags ``--format`` and ``--out``, and ``--seed`` where used.

    An experiment subcommand also names its experiment ``kind`` and passes
    ``params``, a function from its parsed flags to the experiment's params;
    a ``None`` param (an optional flag left out) is not passed on.  It takes
    ``--seed`` only if its kind reads a ``seed`` option.
    """
    if kind is not None and "seed" in EXPERIMENT_KINDS[kind].options:
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.set_defaults(kind=kind, params=params)


def _model(args: argparse.Namespace) -> dict:
    """The ``model`` param from --model and the weight flag that its kind reads."""
    weight = MODEL_KINDS[args.model].weight
    return {"kind": args.model, **({weight: getattr(args, weight)} if weight else {})}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starclab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("starc", help="distance between two reward files on one MDP")
    p.add_argument("--mdp", required=True)
    p.add_argument("--reward1", required=True)
    p.add_argument("--reward2", required=True)
    _add_common(p, "starc-distance", lambda a: {
        "mdp_file": a.mdp, "reward_1_file": a.reward1, "reward_2_file": a.reward2
    })

    p = sub.add_parser("models", help="behavioural-model operations")
    models_sub = p.add_subparsers(dest="models_command", required=True)
    pe = models_sub.add_parser("eval", help="evaluate a model on a reward")
    pe.add_argument("--mdp", required=True)
    pe.add_argument("--reward", required=True)
    pe.add_argument("--model", default="boltzmann", choices=list(MODEL_KINDS))
    for weight in dict.fromkeys(kind.weight for kind in MODEL_KINDS.values() if kind.weight):
        pe.add_argument(f"--{weight}", type=float, default=1.0)
    _add_common(pe, "models-eval", lambda a: {"mdp_file": a.mdp, "reward_file": a.reward, "model": _model(a)})

    p = sub.add_parser("robustness", help="robustness checking")
    rob_sub = p.add_subparsers(dest="robustness_command", required=True)
    pc = rob_sub.add_parser("check", help="four-condition check from a JSON config")
    pc.add_argument("--config", required=True, help="JSON experiment config file")
    _add_common(pc)

    p = sub.add_parser("counterexample", help="construct non-robustness certificates")
    ce_sub = p.add_subparsers(dest="scenario", required=True)
    pg = ce_sub.add_parser("gamma")
    pg.add_argument("--mdp", default=None)
    pg.add_argument("--gamma1", type=float, default=0.9)
    pg.add_argument("--gamma2", type=float, default=0.95)
    pg.add_argument("--beta", type=float, default=1.0)
    _add_common(pg, "counterexample-gamma", lambda a: {
        "gamma_1": a.gamma1, "gamma_2": a.gamma2, "beta": a.beta, "seed": a.seed, "mdp_file": a.mdp
    })
    pt = ce_sub.add_parser("tau")
    pt.add_argument("--mdp1", required=True)
    pt.add_argument("--mdp2", required=True)
    pt.add_argument("--beta", type=float, default=1.0)
    _add_common(pt, "counterexample-tau", lambda a: {
        "mdp_1_file": a.mdp1, "mdp_2_file": a.mdp2, "beta": a.beta
    })
    pp = ce_sub.add_parser("perturb")
    pp.add_argument("--mdp", default=None)
    pp.add_argument("--delta", type=float, default=1e-2)
    pp.add_argument("--c", type=float, default=1.0)
    pp.add_argument("--beta", type=float, default=1.0)
    _add_common(pp, "counterexample-perturb", lambda a: {
        "delta": a.delta, "c": a.c, "beta": a.beta, "seed": a.seed, "mdp_file": a.mdp
    })
    po = ce_sub.add_parser("optimality")
    po.add_argument("--mdp", default=None)
    _add_common(po, "counterexample-optimality", lambda a: {"seed": a.seed, "mdp_file": a.mdp})

    p = sub.add_parser("gridworld-demo", help="torus-gridworld transition counterexample")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_common(p, "gridworld-demo", lambda a: {"n": a.n, "gamma": a.gamma, "alpha": a.alpha})

    p = sub.add_parser("oracle", help="brute-force oracles")
    orc_sub = p.add_subparsers(dest="oracle_command", required=True)
    ps = orc_sub.add_parser("same-order")
    ps.add_argument("--mdp", required=True)
    ps.add_argument("--reward1", required=True)
    ps.add_argument("--reward2", required=True)
    _add_common(ps, "same-order", lambda a: {
        "mdp_file": a.mdp, "reward_1_file": a.reward1, "reward_2_file": a.reward2, "seed": a.seed
    })

    p = sub.add_parser("suite", help="verification suites")
    suite_sub = p.add_subparsers(dest="suite_command", required=True)
    suite_sub.add_parser("acceptance", help="run the 12-criterion acceptance suite")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment config an experiment subcommand's parsed flags describe."""
    params = {key: value for key, value in args.params(args).items() if value is not None}
    return ExperimentConfig(args.kind, params)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "suite":
        from .acceptance import run_all

        results = run_all()
        failed = [r for r in results if not r["passed"]]
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
        return EXIT_ACCEPTANCE if failed else EXIT_OK

    if args.command == "robustness":
        try:
            with open(args.config) as fh:
                config = ExperimentConfig.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, InvalidInstance) as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    else:
        try:
            config = _config_from_args(args)
        except InvalidInstance as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION

    try:
        report = run_experiment(config)
    except InvalidInstance as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE

    try:
        if args.out:
            emit_report(report, args.format, args.out)
        else:
            # CSV text ends its rows itself; JSON text has no final newline.
            print(report_text(report, args.format), end="" if args.format == "csv" else "\n")
    except InvalidInstance as exc:
        # CSV cannot hold this kind's list fields: the format is the wrong
        # choice.  JSON cannot hold a non-finite result: the pipeline's fault.
        if args.format == "csv":
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
