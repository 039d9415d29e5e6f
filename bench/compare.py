"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

A result set is a JSONL file, or a directory of them, of records that
``bench/run.py --out`` appends.  BASE is the parent commit, CHANGE the
commit under test.  Every (workload, metric) pair gets its own row with
each side's median, quartiles and run count, the change of the median,
the share of runs paired by seed that CHANGE won (ties count for
neither) and a verdict:

- ``better``: every CHANGE run beats every BASE run;
- ``unresolved``: either side's spread (interquartile range over
  median) is wider than the bound, so the runs cannot tell;
- ``worse``: the CHANGE median is worse than the BASE median by more
  than the bound;
- ``gain``: CHANGE wins at least 9 in 10 pairs and the medians differ
  by more than BASE's interquartile range and by more than a tenth of
  the bound;
- ``loss``: the same with CHANGE losing, a regression smaller than the
  bound that the runs still resolve;
- ``same``: none of the above.

``BENCHMARK.json`` has one bound per metric for all workloads, set by
the noisiest (serve-mixed); ``loss`` is what catches a smaller
regression on a steadier workload.  Per-layer metrics of traced runs
have no bound and get no verdict.

Each workload also gets a ``checks`` row: the failed and attempted
operations summed over each side's runs.  It is ``worse`` when any
CHANGE run failed its checks or CHANGE failed a larger share of its
operations than BASE; a faster program that gets answers wrong has not
gained.  The exit code is 1 when any row is ``worse``, ``loss`` or
``unresolved``.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from bench import stats  # noqa: E402

#: A ``gain`` or ``loss`` must also move the median by more than this
#: share of the bound.  Near-constant metrics such as ``rss_mb`` have an
#: interquartile range of almost 0, so without it two sets of the same
#: code differing by 0.2 % in every pair read as a resolved loss.
MIN_EFFECT = 0.1


def load_records(path: str) -> list:
    paths = ([os.path.join(path, name) for name in sorted(os.listdir(path))
              if name.endswith(".jsonl")] if os.path.isdir(path)
             else [path])
    records = []
    for file in paths:
        with open(file, encoding="utf-8") as handle:
            records += [json.loads(line) for line in handle if line.strip()]
    return records


def series(records: list) -> dict:
    """``{(workload, trace, metric): [(seed, value), ...]}``."""
    out: dict = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            key = (record["workload"], record["trace"], name)
            out.setdefault(key, []).append((record["seed"],
                                            metric["value"]))
    return out


def checks(records: list) -> dict:
    """``{workload: [incorrect runs, failed, attempted]}``."""
    out: dict = {}
    for record in records:
        result = record["result"]
        row = out.setdefault(record["workload"], [0, 0, 0])
        row[0] += not result["correct"]
        row[1] += result["failed"]
        row[2] += result["attempted"]
    return out


def checks_verdict(base: list, change: list) -> str:
    if change[0] or change[1] * base[2] > base[1] * change[2]:
        return "worse"
    return "same"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pairs(base: list, change: list) -> list:
    """Runs paired by seed when both sides have one run per seed,
    otherwise in order."""
    base_seeds = dict(base)
    change_seeds = dict(change)
    if (len(base_seeds) == len(base) and len(change_seeds) == len(change)
            and base_seeds.keys() & change_seeds.keys()):
        return [(base_seeds[s], change_seeds[s])
                for s in sorted(base_seeds.keys() & change_seeds.keys())]
    return [(a, b) for (_, a), (_, b) in zip(base, change)]


def verdict(base: list, change: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a = [v for _, v in base]
    b = [v for _, v in change]
    if min(sign * v for v in b) > max(sign * v for v in a):
        return "better"
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved"
    median_a, median_b = statistics.median(a), statistics.median(b)
    if sign * (median_a - median_b) > bound * abs(median_a):
        return "worse"
    paired = pairs(base, change)
    won = sum(sign * (y - x) > 0 for x, y in paired)
    lost = sum(sign * (y - x) < 0 for x, y in paired)
    q1, q3 = quartiles(a)
    moved = sign * (median_b - median_a)
    floor = max(q3 - q1, MIN_EFFECT * bound * abs(median_a))
    if paired and won >= 0.9 * len(paired) and moved > floor:
        return "gain"
    if paired and lost >= 0.9 * len(paired) and -moved > floor:
        return "loss"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    base_records = load_records(args.base)
    change_records = load_records(args.change)
    base = series(base_records)
    change = series(change_records)
    failing = 0
    header = (f"{'workload':<12} {'metric':<34} {'base median [q1, q3] n':>34}"
              f" {'change median [q1, q3] n':>34} {'change':>8} "
              f"{'won':>5}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(base.keys() & change.keys()):
        workload, trace, name = key
        a, b = base[key], change[key]
        values_a = [v for _, v in a]
        values_b = [v for _, v in b]
        median_a = statistics.median(values_a)
        median_b = statistics.median(values_b)
        result = won = "-"
        if not trace and name in bounds:
            metric = bounds[name]
            result = verdict(a, b, metric["better"], metric["bound"])
            failing += result in ("worse", "loss", "unresolved")
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = [sign * (y - x) > 0 for x, y in pairs(a, b)]
            won = f"{sum(wins) / len(wins):.2f}" if wins else "-"
        change_pct = (100.0 * (median_b - median_a) / abs(median_a)
                      if median_a else 0.0)

        def cell(median, values):
            q1, q3 = quartiles(values)
            return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"

        print(f"{workload:<12} {name:<34} {cell(median_a, values_a):>34} "
              f"{cell(median_b, values_b):>34} {change_pct:>+7.1f}% "
              f"{won:>5}  {result}")
    base_checks = checks(base_records)
    change_checks = checks(change_records)
    for workload in sorted(base_checks.keys() & change_checks.keys()):
        a, b = base_checks[workload], change_checks[workload]
        result = checks_verdict(a, b)
        failing += result == "worse"
        cells = [f"{bad} bad runs, {failed}/{attempted} failed"
                 for bad, failed, attempted in (a, b)]
        print(f"{workload:<12} {'checks':<34} {cells[0]:>34} {cells[1]:>34} "
              f"{'':>8} {'-':>5}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
