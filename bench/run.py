"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload serve-mixed --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --out results.jsonl

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when a check failed.  ``--trace 1`` reports the
per-layer metrics and writes the spans to ``--trace-dir``.  ``--out``
appends one JSON record per run (the result plus seed, details and
environment) for ``bench/compare.py``.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The checkout root replaces this script's directory on the path, so
# bench/trace.py is only ever imported as ``bench.trace``.
sys.path[0] = ROOT
sys.path.insert(1, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

WORKLOAD_NAMES = ("serve-mixed", "timeline", "mine-fleet", "train")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--trace-dir", args.trace_dir]
        if args.out:
            command += ["--out", args.out]
        code = max(code, subprocess.run(command).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir",
                        default=os.path.join(ROOT, ".bench_work", "traces"))
    parser.add_argument("--out", help="append a JSON record per run here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import shutil

    from bench import workloads

    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print(f"# nproc {env['nproc']}  python {env['python']}  numpy "
          f"{env['numpy']}  {env['platform']}  BLAS threads "
          f"{env['blas_threads']}")
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_path = os.path.join(args.trace_dir,
                              f"trace-{args.workload}.json")
    started = time.perf_counter()
    try:
        record = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work_dir,
                               trace_path=trace_path,
                               prepared_dir=os.path.join(
                                   ROOT, ".bench_work", "prepared"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit) in sorted(record["details"].items()):
        print(f"  {name:<44} {value:>14.4f} {unit}")
    for name, metric in record["result"]["metrics"].items():
        print(f"= {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    for message in record["failures"]:
        print(f"! {message}")
    if args.trace:
        print(f"# spans written to {trace_path}")
    print(f"# run took {time.perf_counter() - started:.1f} s")
    if args.out:
        line = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                **record}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
