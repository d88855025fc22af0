"""fairhedge benchmark: one closed-loop client per workload, checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload quote --seed 1 --seconds 20 --trace 0

Workloads: quote, smile, validate, cli (see BENCHMARK.json for why each
exists). With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the workload untraced and then traced on the same
inputs, and prints the per-layer metrics. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Lines
before it give a table of the metrics, including informational ones that
BENCHMARK.json does not gate, and a ``details:`` JSON line with the
environment, input digest, sample counts and failure reasons.

The paper's reference numbers are checked before anything is timed; a
mismatch aborts the run with exit code 3. Every output is checked after
its timed interval. A request fails if it raises, returns an error marker
or fails its check; ``correct`` turns false only when a check finds a wrong
value, not when the program reports a failure itself. The library is
imported from ``src/`` of the checkout only; without it the run exits
nonzero and prints no result.

Timing on a shared machine: other load switches this machine between a
fast and a slow speed, and wall and CPU time both follow it. So a
``SpeedMeter`` (``perfbench/speed.py``) samples the speed every 20 ms with a
short burst of fixed code, also in the middle of a request, and each
request's time (its bursts taken out) is scaled to the reference speed by
the samples in and around it. The gated times, ``setup_s`` included, are
these scaled times; the raw medians are printed as ``*_raw`` lines (not
gated). ``latency_p50_ms`` is the median over distinct inputs of each
input's mean scaled time over the run's passes (inputs cycle in passes).
The run and its children stay on one CPU, the one the meter samples.

Operations: one operation is one distinct input of the run's pool, and it
fails if any of its requests fails. Every run covers its whole pool, so
``attempted`` and ``failed`` depend on the seed and the program only, not on
how many passes fit into ``--seconds``. BLAS runs on one thread
(``OPENBLAS_NUM_THREADS=1`` and friends, inherited by every subprocess):
its extra threads only spun on this two-core machine and took a core from
the rest of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedMeter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # set before anything imports numpy

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SETUP_PROBES = 7
IMPORT_PROBES = 5
TRACE_UNTRACED_SHARE = 0.4
TRACE_MAX_SPANS = 4_000_000  # about 100 MB of span arrays
READY = "setup-ready"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("quote", "smile", "validate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the ready time and exit (used to time set-up)")
    parser.add_argument("--smoke", action="store_true",
                        help="keep only the first two inputs of the pool (for the smoke test)")
    return parser.parse_args(argv)


def import_library() -> None:
    """Import fairhedge from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import fairhedge
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fairhedge from {SRC}: {exc}") from None
    location = Path(fairhedge.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"perfbench: fairhedge imported from {location}, not from {SRC}")


def environment(workload, loadavg: tuple[float, float, float]) -> dict:
    import numpy

    commit = None
    if (REPO / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "loadavg_at_start": loadavg,
        "input_digest": {workload.name: workload.digest()},
        "src_lines": src_lines,
    }


# -- statistics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    The value is the 11th largest sample, the (n - 10)/n quantile. Below 21
    samples that quantile is not above the median, and None is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


# -- running requests ---------------------------------------------------------


class Record:
    __slots__ = ("index", "start", "seconds", "scaled", "output", "failure", "wrong")

    def __init__(self, index: int, start: float, seconds: float, output, failure: str | None):
        self.index, self.start, self.seconds = index, start, seconds
        self.output, self.failure = output, failure
        self.scaled = seconds
        self.wrong = False


def timed(call, inputs, index: int) -> Record:
    """One request, timed; an exception is recorded as the request's failure."""
    start = time.perf_counter()
    try:
        output, failure = call(inputs[index]), None
    except Exception as exc:  # every failure is recorded, none stops the run
        output, failure = None, f"{type(exc).__name__}: {exc}"
    return Record(index, start, time.perf_counter() - start, output, failure)


def closed_loop(call, inputs, seconds: float) -> tuple[list[Record], float]:
    """Send the next request when the previous one returns, for ``seconds``.

    Cycles through ``inputs`` in order and runs each at least once, under a
    speed meter that sets each record's scaled time. Returns the records and
    the phase's wall time.
    """
    records: list[Record] = []
    with SpeedMeter() as meter:
        start = time.perf_counter()
        while True:
            spent = meter.spent
            rec = timed(call, inputs, len(records) % len(inputs))
            rec.seconds -= meter.spent - spent
            records.append(rec)
            now = time.perf_counter()
            if now - start >= seconds and len(records) >= len(inputs):
                break
    for rec in records:
        rec.scaled = rec.seconds * meter.scale(rec.start, rec.start + rec.seconds)
    return records, now - start


def check_records(workload, records: list[Record]) -> None:
    for rec in records:
        if rec.failure is not None:
            continue
        try:
            outcome = workload.check(workload.inputs[rec.index], rec.output)
        except (ValueError, KeyError, IndexError) as exc:  # unparsable output
            outcome = f"malformed output: {type(exc).__name__}: {exc}", True
        if outcome is not None:
            rec.failure, rec.wrong = outcome
        rec.output = None


def failure_summary(records: list[Record]) -> dict:
    kinds: dict[str, int] = {}
    for rec in records:
        if rec.failure is not None:
            kind = rec.failure.split(":")[0][:80]
            kinds[kind] = kinds.get(kind, 0) + 1
    examples = [r.failure[:300] for r in records if r.failure is not None][:5]
    return {"by_kind": kinds, "examples": examples}


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time fresh processes from spawn until they are ready to send a request.

    Returns the raw times and the times scaled by a speed meter in this
    process, which waits while each probe runs on the same CPU; the meter's
    bursts are taken out of both.
    """
    times, scaled = [], []
    meter = SpeedMeter()
    for _ in range(SETUP_PROBES):
        with meter:
            spent = meter.spent
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
                capture_output=True, text=True, cwd=REPO, check=False,
            )
        ready = [line for line in proc.stdout.splitlines() if line.startswith(READY)]
        if proc.returncode != 0 or not ready:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(ready[-1].split()[1]) - start - (meter.spent - spent))
        scaled.append(times[-1] * meter.scale(start, start + times[-1]))
    return times, scaled


def measure_imports() -> dict[str, float]:
    """Interpreter start, numpy import and fairhedge import, by subprocess differences."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    programs = {
        "bare": "pass",
        "numpy": "import numpy",
        "fairhedge": "import numpy, fairhedge",
    }
    samples: dict[str, list[float]] = {name: [] for name in programs}
    for _ in range(IMPORT_PROBES):
        for name, code in programs.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO, check=True)
            samples[name].append(time.perf_counter() - start)
    med = {name: statistics.median(values) * 1e3 for name, values in samples.items()}
    return {
        "cli.interpreter_ms": med["bare"],
        "cli.import_numpy_ms": med["numpy"] - med["bare"],
        "cli.import_fairhedge_ms": med["fairhedge"] - med["numpy"],
    }


# -- the two kinds of run -----------------------------------------------------


def mean_per_input(records: list[Record], attr: str = "scaled") -> dict[int, float]:
    """Each input's mean time (scaled, or raw with ``attr="seconds"``) over its successes."""
    times: dict[int, list[float]] = {}
    for rec in records:
        if rec.failure is None:
            times.setdefault(rec.index, []).append(getattr(rec, attr))
    return {index: statistics.fmean(values) for index, values in times.items()}


def end_to_end(args, workload) -> tuple[dict, dict, list[Record], dict]:
    """Gated metrics, informational metrics, records and details of one timed run."""
    children = workload.name == "cli"
    cpu0 = cpu_seconds(children)
    records, wall = closed_loop(workload.request, workload.inputs, args.seconds)
    cpu = cpu_seconds(children) - cpu0
    rss = peak_rss_mb(children)
    check_records(workload, records)
    ok = [r for r in records if r.failure is None]
    if not ok:
        raise SystemExit("perfbench: no request succeeded; latency is undefined")
    per_input = mean_per_input(records)
    p50 = statistics.median(per_input.values())
    tail_value, tail_pct = tail([r.scaled for r in ok]) or (p50, 50.0)
    setup_raw, setup = measure_setup(args)
    attempted, failed = operations(records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "setup_s_raw": (statistics.median(setup_raw), "s"),
        "latency_p50_ms_raw": (
            statistics.median(mean_per_input(records, "seconds").values()) * 1e3, "ms"),
        "latency_all_p50_ms_raw": (
            statistics.median(r.seconds for r in ok) * 1e3, "ms"),
        "goodput_per_s": (len(ok) / wall, "1/s"),
        "cpu_ms_per_request": (cpu / len(records) * 1e3, "ms"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    details = {
        "latency_tail_percentile": tail_pct,
        "successful_samples": len(ok),
        "requests": len(records),
        "distinct_inputs_succeeded": len(per_input),
        "passes": len(records) / len(workload.inputs),
        "timed_phase_s": wall,
        "setup_probes_s": setup,
        "setup_probes_raw_s": setup_raw,
        "info": {name: value for name, (value, _) in info.items()},
    }
    return metrics, info, records, details


def operations(records: list[Record]) -> tuple[int, int]:
    """Distinct inputs run, and those of them with a failed request."""
    failing = {r.index for r in records if r.failure is not None}
    return len({r.index for r in records}), len(failing)


def traced(args, workload) -> tuple[dict, dict, list[Record], dict]:
    from spans import VALIDATION_CHECKS, Tracer, TraceSummary

    call = workload.traced_request
    untraced, _ = closed_loop(call, workload.inputs, args.seconds * TRACE_UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    traced_records = []
    try:
        # Replay the untraced requests in order, so both phases see the same inputs.
        budget = args.seconds * (1.0 - TRACE_UNTRACED_SHARE)
        start = time.perf_counter()
        for rec in untraced:
            tracer.start_request()
            traced_records.append(timed(call, workload.inputs, rec.index))
            if time.perf_counter() - start >= budget or len(tracer.name_ids) >= TRACE_MAX_SPANS:
                break
    finally:
        tracer.uninstall()
    check_records(workload, untraced)
    check_records(workload, traced_records)

    n = len(traced_records)
    matched = [r.seconds for r in untraced[:n]]
    base = statistics.median(matched)
    overhead = (statistics.median(r.seconds for r in traced_records) - base) / base

    s = TraceSummary(tracer)

    def per_request(value: float) -> float:
        return value / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    quotes = s.count("equilibrium.minimize_writer_risk")
    metrics = {
        "core.std_normal_cdf.calls": (per_request(s.count("core.std_normal_cdf")), "count"),
        "core.implied_vol.self_ms": (per_request(s.self_seconds("core.implied_vol")) * 1e3, "ms"),
        "core.implied_vol.bs_evals_per_call": (
            ratio(s.count_with_parent("core.bs_call_price", "core.implied_vol"),
                  s.count("core.implied_vol")), "count"),
        "equilibrium.minimize_writer_risk.self_ms": (
            per_request(s.self_seconds("equilibrium.minimize_writer_risk")) * 1e3, "ms"),
        "equilibrium.writer_risk.calls_per_quote": (
            ratio(s.count("equilibrium.writer_risk"), quotes), "count"),
        "equilibrium.writer_risk.self_ms": (
            per_request(s.self_seconds("equilibrium.writer_risk")) * 1e3, "ms"),
        "equilibrium.writer_risk.error_frac": (
            ratio(s.errors("equilibrium.writer_risk"), s.count("equilibrium.writer_risk")),
            "ratio"),
        "equilibrium.fair_price.calls_per_quote": (
            ratio(s.count("equilibrium.fair_price"), quotes), "count"),
        "equilibrium.risk_thresholds.calls_per_quote": (
            ratio(s.count("equilibrium.risk_thresholds"), quotes), "count"),
        "equilibrium.volatility_smile.self_ms": (
            per_request(s.self_seconds("equilibrium.volatility_smile")) * 1e3, "ms"),
        "oracle.simulate_terminal.self_ms": (
            per_request(s.self_seconds("oracle.simulate_terminal")) * 1e3, "ms"),
        "oracle.simulate_terminal.paths_per_s": (
            ratio(sum(tracer.result_items.values()), s.total_seconds("oracle.simulate_terminal")),
            "1/s"),
        "oracle.simulate_terminal.bytes_computed": (
            per_request(sum(tracer.result_bytes.values())), "bytes"),
        "oracle.quad_expectation.calls": (per_request(s.count("oracle.quad_expectation")), "count"),
        "oracle.quad_expectation.self_ms": (
            per_request(s.self_seconds("oracle.quad_expectation")) * 1e3, "ms"),
        "oracle.quad_expectation.nodes_per_call": (
            ratio(sum(tracer.quad_nodes.values()), s.count("oracle.quad_expectation")), "count"),
        "oracle.mc_conditional_loss.self_ms": (
            per_request(s.self_seconds("oracle.mc_conditional_loss")) * 1e3, "ms"),
    }
    for check in VALIDATION_CHECKS:
        metrics[f"validation.{check}.self_ms"] = (
            per_request(s.self_seconds(f"validation.{check}")) * 1e3, "ms")
    metrics["validation.checks_failed"] = (per_request(len(tracer.check_failed)), "count")
    metrics["validation.checks_raised"] = (
        per_request(sum(s.errors(f"validation.{c}") for c in VALIDATION_CHECKS)), "count")
    for name, value in measure_imports().items():
        metrics[name] = (value, "ms")
    metrics.update(cli_main_times(workload, untraced))
    metrics["trace_overhead_frac"] = (overhead, "ratio")

    details = {
        "traced_requests": n,
        "untraced_requests": len(untraced),
        "spans": len(tracer.name_ids),
        "writer_risk_calls_in_first_request": s.count_in_request("equilibrium.writer_risk", 0),
        "untraced_p50_ms_on_replayed_inputs": base * 1e3,
    }
    return metrics, {}, untraced + traced_records, details


def cli_main_times(workload, records: list[Record]) -> dict:
    """In-process cli.main time per command; zero for workloads that never call it."""
    from workloads import CLI_COMMANDS

    by_command: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    if workload.name == "cli":
        for rec in records:
            by_command[workload.inputs[rec.index][0]].append(rec.seconds)
    return {
        f"cli.main.{c}.ms": (statistics.median(v) * 1e3 if v else 0.0, "ms")
        for c, v in by_command.items()
    }


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, where the speed meter samples."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    pin_to_one_cpu()
    import_library()
    from workloads import WORKLOADS, GateError, run_gate

    workload = WORKLOADS[args.workload](args.seed)
    if args.smoke:
        workload.inputs = workload.inputs[:2]
    try:
        run_gate()
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    workload.warm_up()
    if args.setup_probe:
        print(READY, time.perf_counter(), flush=True)
        return 0

    run = traced if args.trace else end_to_end
    metrics, info, records, details = run(args, workload)
    attempted, failed = operations(records)
    wrong = sum(r.wrong for r in records)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        wrong_answers=wrong, failures=failure_summary(records),
        environment=environment(workload, loadavg),
    )
    for name, (value, unit) in {**metrics, **info}.items():
        gated = "" if name in metrics else "  (not gated)"
        print(f"{args.workload:9s} {name:52s} {value:14.6g} {unit}{gated}")
    print("details:", json.dumps(details))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
