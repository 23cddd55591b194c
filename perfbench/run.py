"""starclab benchmark: run one workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload robustness-audit --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()  # set-up time counts from here, before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 4  # extra cold set-ups, each in a fresh process, for the setup_s median
CLI_CALLS = 3
# One BLAS/OpenMP thread: on a 2-CPU host the default thread pools make
# run-to-run timings drift more.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up round, print the set-up time and exit")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def reference_loop_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: shows host speed drift."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def host_info(np, kernels) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "using_numba": kernels.USING_NUMBA,
            "cpus": os.cpu_count()}


def child_setups(args) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", "0", "--setup-only"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def cli_cold_call_ms(workdir) -> float:
    times = []
    for _ in range(CLI_CALLS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "starclab.cli", "counterexample", "gamma"], cwd=workdir,
                       env=child_env(), capture_output=True, timeout=120, check=True)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    try:
        import starclab
        import starclab.cli  # noqa: F401  (imports reports too)
    except ImportError as exc:
        print(f"cannot import starclab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(starclab.__file__).resolve().is_relative_to(SRC):
        print(f"starclab was imported from {starclab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        start = time.perf_counter()
        # The traced run also traces input generation, where solver-sweep
        # builds its one MDP, so mdp.construct_ms covers that construction.
        if tracer:
            tracer.install()
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        finally:
            if tracer:
                tracer.uninstall()
        workload.warmup()
        setup_s = import_s + time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + ([] if args.trace else child_setups(args))
        return measure(args, workload, tracer, setups, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_op(op) -> tuple[float, list[str]]:
    """Prepare, time and check one operation: (seconds, problems found)."""
    run, check = op.prepare()
    start = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # a failed operation: counted, and the run goes on
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, check(out)
    except Exception as exc:  # output the checks cannot read is wrong output
        return elapsed, [f"checking the output raised {type(exc).__name__}: {exc}"]


def measure(args, workload, tracer, setups, workdir) -> int:
    import numpy as np  # imported here, after main() has put src/ on the path
    import tracing
    from starclab import _kernels

    host = host_info(np, _kernels)
    host["ref_loop_ms_start"] = reference_loop_ms()
    durations, traced, untraced = [], [], []
    failures, by_kind = [], {}
    attempted = failed = 0
    correct = True
    peak_rss_mb = cached_mb = None
    begin = time.perf_counter()
    index = 0
    while attempted < workload.quota or time.perf_counter() - begin < args.seconds:
        # The traced run alternates traced and untraced rounds; the difference
        # between them is the tracing overhead.
        traced_round = tracer is not None and index % 2 == 1
        if traced_round:
            tracer.install()
        try:
            for op in workload.round(index):
                elapsed, problems = run_op(op)
                attempted += 1
                durations.append(1e3 * elapsed)
                (traced if traced_round else untraced).append(1e3 * elapsed)
                stats = by_kind.setdefault(op.kind, {"ops": 0, "failed": 0, "ms": []})
                stats["ops"] += 1
                stats["ms"].append(1e3 * elapsed)
                if problems:
                    failed += 1
                    stats["failed"] += 1
                    correct = correct and op.known_fault
                    if len(failures) < 20:
                        failures.append({"round": index, "kind": op.kind, "known_fault": op.known_fault,
                                         "problems": problems})
        finally:
            if traced_round:
                tracer.uninstall()
        index += 1
        if peak_rss_mb is None and attempted >= workload.quota:
            # Read after a fixed number of operations, so every run has built
            # the same number of MDPs and invariance bases.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            cached_mb = tracing.cached_basis_mb() if tracer else None
    host["ref_loop_ms_end"] = reference_loop_ms()
    print("host " + json.dumps(host))
    for failure in failures:
        print("failed " + json.dumps(failure))

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": index, "host": host,
              "failures": failures,
              "kinds": {k: {"ops": s["ops"], "failed": s["failed"], "p50_ms": statistics.median(s["ms"])}
                        for k, s in by_kind.items()}}
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": 1e3 * len(durations) / sum(durations),
            "op_p50_ms": statistics.median(durations),
            "op_tail_ms": float(np.percentile(durations, workload.tail_pct)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        result["setup_samples_s"] = setups
        result["durations_ms"] = [round(d, 3) for d in durations]
        result["tail_percentile"] = workload.tail_pct
    else:
        overhead = 100.0 * (statistics.mean(traced) / statistics.mean(untraced) - 1.0)
        extra = {"transforms.invariance_basis.cached_mb": cached_mb, "trace.overhead_pct": overhead,
                 "cli.cold_call_ms": cli_cold_call_ms(workdir)}
        from starclab.acceptance import run_all

        start = time.perf_counter()
        criteria = run_all(echo=lambda line: None)
        extra["acceptance.run_all_ms"] = 1e3 * (time.perf_counter() - start)
        # Criterion 9 fails by design (see the repository README); any other
        # failing criterion means the program is broken.
        unexpected = [i for i, c in enumerate(criteria, start=1) if not c["passed"] and i != 9]
        print(f"acceptance {sum(c['passed'] for c in criteria)}/{len(criteria)} passed;"
              " criterion 9 fails by design" + (f"; unexpected failures: {unexpected}" if unexpected else ""))
        correct = correct and not unexpected
        metrics = tracing.layer_metrics(tracer, len(traced), extra)
        result["call_tree"] = tracing.call_tree(tracer)
        result["traced_ops"] = len(traced)
    result["metrics"] = metrics
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
