"""Command-line front end.

Every subcommand is a thin shell over library operations.  Exit codes:
0 success, 1 validation error, 2 pipeline error, 3 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .mdp import InvalidInstance
from .reports import ExperimentConfig, emit_report, report_json, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PIPELINE = 2
EXIT_ACCEPTANCE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starclab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("starc", help="distance between two reward files on one MDP")
    p.add_argument("--mdp", required=True)
    p.add_argument("--reward1", required=True)
    p.add_argument("--reward2", required=True)
    _add_common(p)

    p = sub.add_parser("models", help="behavioural-model operations")
    models_sub = p.add_subparsers(dest="models_command", required=True)
    pe = models_sub.add_parser("eval", help="evaluate a model on a reward")
    pe.add_argument("--mdp", required=True)
    pe.add_argument("--reward", required=True)
    pe.add_argument("--model", default="boltzmann", choices=["optimal_uniform", "boltzmann", "mce"])
    pe.add_argument("--beta", type=float, default=1.0)
    pe.add_argument("--alpha", type=float, default=1.0)
    _add_common(pe)

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
    _add_common(pg)
    pt = ce_sub.add_parser("tau")
    pt.add_argument("--mdp1", required=True)
    pt.add_argument("--mdp2", required=True)
    pt.add_argument("--beta", type=float, default=1.0)
    _add_common(pt)
    pp = ce_sub.add_parser("perturb")
    pp.add_argument("--mdp", default=None)
    pp.add_argument("--delta", type=float, default=1e-2)
    pp.add_argument("--c", type=float, default=1.0)
    pp.add_argument("--beta", type=float, default=1.0)
    _add_common(pp)
    po = ce_sub.add_parser("optimality")
    po.add_argument("--mdp", default=None)
    _add_common(po)

    p = sub.add_parser("gridworld-demo", help="torus-gridworld transition counterexample")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("oracle", help="brute-force oracles")
    orc_sub = p.add_subparsers(dest="oracle_command", required=True)
    ps = orc_sub.add_parser("same-order")
    ps.add_argument("--mdp", required=True)
    ps.add_argument("--reward1", required=True)
    ps.add_argument("--reward2", required=True)
    _add_common(ps)

    p = sub.add_parser("suite", help="verification suites")
    suite_sub = p.add_subparsers(dest="suite_command", required=True)
    pa = suite_sub.add_parser("acceptance", help="run the 12-criterion acceptance suite")
    _add_common(pa)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.command == "starc":
        return ExperimentConfig(
            "starc-distance",
            {"mdp_file": args.mdp, "reward_1_file": args.reward1, "reward_2_file": args.reward2},
        )
    if args.command == "models":
        model = {"kind": args.model}
        if args.model == "boltzmann":
            model["beta"] = args.beta
        elif args.model == "mce":
            model["alpha"] = args.alpha
        return ExperimentConfig(
            "models-eval", {"mdp_file": args.mdp, "reward_file": args.reward, "model": model}
        )
    if args.command == "oracle":
        return ExperimentConfig(
            "same-order",
            {
                "mdp_file": args.mdp,
                "reward_1_file": args.reward1,
                "reward_2_file": args.reward2,
                "seed": args.seed,
            },
        )
    if args.command == "counterexample":
        if args.scenario == "gamma":
            params = {"gamma_1": args.gamma1, "gamma_2": args.gamma2, "beta": args.beta, "seed": args.seed}
            if args.mdp:
                params["mdp_file"] = args.mdp
            return ExperimentConfig("counterexample-gamma", params)
        if args.scenario == "tau":
            return ExperimentConfig(
                "counterexample-tau",
                {"mdp_1_file": args.mdp1, "mdp_2_file": args.mdp2, "beta": args.beta},
            )
        if args.scenario == "perturb":
            params = {"delta": args.delta, "c": args.c, "beta": args.beta, "seed": args.seed}
            if args.mdp:
                params["mdp_file"] = args.mdp
            return ExperimentConfig("counterexample-perturb", params)
        params = {"seed": args.seed}
        if args.mdp:
            params["mdp_file"] = args.mdp
        return ExperimentConfig("counterexample-optimality", params)
    if args.command == "gridworld-demo":
        return ExperimentConfig(
            "gridworld-demo", {"n": args.n, "gamma": args.gamma, "alpha": args.alpha}
        )
    raise InvalidInstance(f"no experiment mapping for command {args.command!r}")


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
            print(report_json(report))
    except InvalidInstance as exc:
        # CSV cannot hold this kind's list fields: the format is the wrong
        # choice.  JSON cannot hold a non-finite result: the pipeline's fault.
        if args.out and args.format == "csv":
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
