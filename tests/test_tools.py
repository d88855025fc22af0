"""Tests of tools/bench_pairs.py's reading and tabulating of perfbench runs; nothing is run."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(p50, requests):
    return {"correct": True, "attempted": 1024, "failed": 0, "requests": requests,
            "metrics": {"latency_p50_ms": {"value": p50, "unit": "ms"}}}


def test_parse_run_reads_the_final_line_and_the_request_count():
    final = {"correct": True, "attempted": 8, "failed": 0, "metrics": {}}
    stdout = "\n".join([
        "smile     latency_p50_ms      350.1 ms",
        "details: " + json.dumps({"requests": 57, "passes": 7.125}),
        json.dumps(final),
    ]) + "\n"
    assert load_bench_pairs().parse_run(stdout) == {**final, "requests": 57}


def test_the_failure_table_gives_each_trees_median_request_count():
    bench_pairs = load_bench_pairs()
    runs = {"parent": [result(2.0, n) for n in (6000, 6400, 6200)],
            "change": [result(1.7, n) for n in (7000, 7300, 7100)]}
    lines = bench_pairs.table({("quote", 1): runs}, {"latency_p50_ms": 0.25})
    assert lines[-3:] == [
        "|---|---|---|---|---|---|---|",
        "| quote (1) | parent | 0 / 1024 | True | 6200 | n/a | n/a |",
        "| quote (1) | change | 0 / 1024 | True | 7100 | n/a | n/a |",
    ]
    assert lines[2].startswith("| quote (1, 3) | latency_p50_ms | 2 [")
    assert lines[2].endswith("| 3/3 | yes |")


@pytest.mark.parametrize("parent, change, mark", [
    ((2.0, 2.1, 2.2), (2.3, 2.4, 2.5), "ok"),
    ((2.0, 2.1, 2.2), (2.7, 2.8, 2.9), "over"),
    ((1.0, 2.0, 3.0), (2.0, 2.1, 2.2), "unresolved"),
    ((1.0, 2.0, 3.0), (0.5, 0.6, 0.7), "ok"),
], ids=["within", "over", "spread", "spread-but-every-run-lower"])
def test_each_row_is_marked_against_its_bound(parent, change, mark):
    # Bound 0.25: the parent median 2.1 allows up to 2.625. The quartile distance of
    # 1, 2, 3 is 2, above 0.25 of its median, so only a change below every run resolves.
    runs = {"parent": [result(v, 1) for v in parent], "change": [result(v, 1) for v in change]}
    row = load_bench_pairs().table({("quote", 1): runs}, {"latency_p50_ms": 0.25})[2]
    assert row.split(" | ")[4] == mark


def test_the_failure_table_fits_peak_rss_on_the_request_count():
    # The parent's runs lie on 22.9 MB + 752 B per request. The change's runs lie
    # around the same slope on a base 1 MB higher, with noise that leaves the fit as is.
    def with_rss(requests, base, per_request, noise=0.0):
        run = result(1.0, requests)
        run["metrics"]["peak_rss_mb"] = {"value": base + requests * per_request / 2**20 + noise,
                                         "unit": "MB"}
        return run

    runs = {"parent": [with_rss(n, 22.9, 752) for n in (10_000, 12_000, 15_000)],
            "change": [with_rss(n, 23.9, 752, noise) for n, noise in
                       ((10_000, 0.1), (11_000, -0.2), (12_000, 0.1))]}
    lines = load_bench_pairs().table({("quote", 1): runs}, {"latency_p50_ms": 0.25,
                                                           "peak_rss_mb": 0.1})
    assert lines[-4].endswith("| rss base (MB) | rss per request (B) |")
    assert lines[-2].endswith("| 12000 | 22.9 | 752 |")
    assert lines[-1].endswith("| 11000 | 23.9 | 752 |")


def test_the_rss_fit_is_na_where_every_run_served_the_same_count():
    run = {**result(1.0, 500), "metrics": {"peak_rss_mb": {"value": 30.0, "unit": "MB"}}}
    assert load_bench_pairs().rss_fit([run, run, run]) == ("n/a", "n/a")


def test_the_bounds_are_read_from_the_checkouts_benchmark():
    bounds = load_bench_pairs().read_bounds(BENCH_PAIRS.parents[1])
    assert sorted(bounds) == ["latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "setup_s"]
