"""Run perfbench in two checkouts, pair by pair, and print the comparison table.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . smile:1:10 quote:1:5

Each spec is ``WORKLOAD:SEED[:PAIRS]``; PAIRS defaults to 10. Both
checkouts are byte-compiled first (``python -m compileall -q src`` in
each), so neither pays for compiling ``fairhedge`` in every process.
Then each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds 20`` once in each checkout, each from its own directory; even
pairs run the parent first and odd pairs the change first, so a drift of
the machine's speed during a pair does not always favour one side.

The table has one row per (workload, seed, metric): the parent's median
with the distance between its quartiles in brackets, the change's median
with its change relative to the parent's, the row's mark against the
bound that the change checkout's BENCHMARK.json fixes for the metric,
the number of pairs in which the change read lower, and whether the row
meets the claim rule: the change read lower in at least 9/10 of the
pairs, ties counting for neither, and its median is below the parent's
by more than the parent's quartile distance. Every metric perfbench
reports is better lower. The mark is ``ok`` when the change's median is
at most the parent's times (1 + bound), ``over`` when it is above that,
and ``unresolved`` when the parent's quartile distance exceeds bound
times its median, unless every change run read below every parent run. A
second table gives the failed operations each tree reported and the
median of its runs' request counts, read from each run's ``details:``
line: perfbench holds every output until a run ends, so a tree that
serves more requests reads a higher ``peak_rss_mb``. Progress goes to
stderr; ``--raw PATH`` also writes every run's final JSON line
there, one JSON object per run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
PAIRS = 10
SECONDS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--raw", type=Path, help="write each run's result here as JSON lines")
    parser.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED[:PAIRS]")
    args = parser.parse_args(argv)
    args.specs = [parse_spec(spec, parser) for spec in args.specs]
    return args


def parse_spec(spec: str, parser: argparse.ArgumentParser) -> tuple[str, int, int]:
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts[1:]):
        parser.error(f"spec must be WORKLOAD:SEED[:PAIRS], got {spec!r}")
    pairs = int(parts[2]) if len(parts) == 3 else PAIRS
    if pairs < 2:
        parser.error(f"quartiles need at least 2 pairs, got {spec!r}")
    return parts[0], int(parts[1]), pairs


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result of one perfbench run in checkout (see parse_run)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """A run's final JSON line, with the request count of its ``details:`` line as ``requests``."""
    lines = stdout.strip().splitlines()
    details = next(line for line in lines if line.startswith("details:"))
    requests = json.loads(details.removeprefix("details:"))["requests"]
    return {**json.loads(lines[-1]), "requests": requests}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and the distance between the first and third quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def read_bounds(checkout: Path) -> dict[str, float]:
    """The bound of each end-to-end metric in checkout's BENCHMARK.json."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}


def bound_mark(old: list[float], new: list[float], bound: float) -> str:
    """ok, over or unresolved: the change's runs new against the parent's runs old."""
    old_median, old_iqr = spread(old)
    if old_iqr > bound * old_median and not max(new) < min(old):
        return "unresolved"
    return "ok" if statistics.median(new) <= old_median * (1 + bound) else "over"


def table(results: dict, bounds: dict[str, float]) -> list[str]:
    lines = ["| workload (seed, pairs) | metric | parent | change | bound | lower | claim |",
             "|---|---|---|---|---|---|---|"]
    for (workload, seed), runs in results.items():
        pairs = len(runs["parent"])
        for metric in runs["parent"][0]["metrics"]:
            old = [r["metrics"][metric]["value"] for r in runs["parent"]]
            new = [r["metrics"][metric]["value"] for r in runs["change"]]
            old_median, old_iqr = spread(old)
            new_median = statistics.median(new)
            relative = 100.0 * (new_median - old_median) / old_median
            lower = sum(n < o for o, n in zip(old, new))
            claim = "yes" if 10 * lower >= 9 * pairs and old_median - new_median > old_iqr else "no"
            mark = bound_mark(old, new, bounds[metric])
            lines.append(
                f"| {workload} ({seed}, {pairs}) | {metric} | {old_median:.4g} [{old_iqr:.2g}] "
                f"| {new_median:.4g} ({relative:+.1f}%) | {mark} | {lower}/{pairs} | {claim} |"
            )
    lines += ["", "| workload (seed) | tree | failed / attempted | correct | requests |",
              "|---|---|---|---|---|"]
    for (workload, seed), runs in results.items():
        for tree in TREES:
            counts = sorted({f"{r['failed']} / {r['attempted']}" for r in runs[tree]})
            correct = all(r["correct"] for r in runs[tree])
            requests = statistics.median(r["requests"] for r in runs[tree])
            lines.append(f"| {workload} ({seed}) | {tree} | {', '.join(counts)} | {correct} "
                         f"| {requests:.0f} |")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bounds = read_bounds(checkouts["change"])
    for checkout in checkouts.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)
    results = {}
    with args.raw.open("w") if args.raw else contextlib.nullcontext() as raw:
        for workload, seed, pairs in args.specs:
            runs = results.setdefault((workload, seed), {tree: [] for tree in TREES})
            for pair in range(pairs):
                order = TREES if pair % 2 == 0 else TREES[::-1]
                for tree in order:
                    result = run_once(checkouts[tree], workload, seed)
                    runs[tree].append(result)
                    if raw:
                        print(json.dumps({"workload": workload, "seed": seed, "pair": pair,
                                          "tree": tree, **result}), file=raw, flush=True)
                print(f"{workload} seed {seed}: pair {pair + 1}/{pairs} done", file=sys.stderr)
    print("\n".join(table(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
