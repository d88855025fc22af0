"""Tests for the cross-check suite: each costly step runs once, values unchanged.

The suite builds one risk kernel for its checks, shares one quote between
its Monte Carlo and grid checks and one quadrature rule between every
tested hedge fraction's loss integrands, and the Monte Carlo check takes
its estimates from the oracle's one estimator, mc_conditional_loss, which
streams the sample block by block through running moments. These tests pin that
the shared and streamed versions give the values of the step-by-step,
whole-array ones (the streamed moments bit for bit those of a block-wise
boolean-index pass), and that a sample too small for a finite Monte Carlo
band, or a trial whose out-of-the-money price underflows to zero, fails
its check instead of raising or passing, while a trial call priced at its
intrinsic bound round-trips through its out-of-the-money put. Each
tolerance-bounded check passes at half its tolerance and fails at twice
it, with its exact detail text. The two threshold property checks test
the caller's kernel on a 100-point hedge grid, with the bits of numpy's
linspace, which the suite prices once for both, and fail, with a count,
when a cut point is out of order or a
log argument falls. The quadrature risk check skips and counts a hedge
fraction whose loss event has no weight on the rule, and a contract below
the premium floor raises EmptyDomain before any check runs.
"""

import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fairhedge.equilibrium as eq
import fairhedge.oracle as oracle
import fairhedge.validation as validation
from fairhedge import (
    DegenerateLoss,
    EmptyDomain,
    MarketParams,
    McConfig,
    NumericConfig,
    OptionContract,
    bs_call_price,
    expected_call_payoff_physical,
)
from fairhedge.core import rate_factors
from fairhedge.oracle import (
    RunningMoments,
    quad_expectation,
    realized_losses,
    simulate_terminal,
    terminal_chunks,
    terminal_price,
)
from fairhedge.validation import (
    _property_grid,
    _quadrature_risks,
    check_fair_play_identity,
    check_implied_vol_round_trip,
    check_mc_agreement,
    check_physical_parity,
    check_price_vs_quadrature,
    check_quote_grid_consistency,
    check_risks_vs_quadrature,
    check_threshold_arg_monotonicity,
    check_threshold_ordering,
    draw_suite,
    run_all_checks,
)


def call_check(check, params, contract, quote=None):
    """A check called with the arguments run_all_checks gives it, by parameter name."""
    given = {"params": params, "contract": contract, "kernel": eq._RiskKernel(params, contract),
             "quote": quote}
    return check(*(given[name] for name in inspect.signature(check).parameters))


# Patches that set a tolerance-bounded check's measured value to `value`, up to rounding.
def drive_rel_err(monkeypatch, value, quote):
    monkeypatch.setattr(validation, "rel_err", lambda a, b: value)


def drive_implied_vol(monkeypatch, value, quote):
    monkeypatch.setattr(
        validation, "_implied_vol_otm", lambda params, contract, price: params.volatility + value
    )


def drive_parity(monkeypatch, value, quote):
    put = validation.expected_put_payoff_physical

    def shifted(params, contract):
        call = validation.expected_call_payoff_physical(params, contract)
        exact = put(params, contract)
        return exact - value * max(1.0, abs(call), abs(exact))

    monkeypatch.setattr(validation, "expected_put_payoff_physical", shifted)


def drive_profits(monkeypatch, value, quote):
    monkeypatch.setattr(eq, "expected_profits", lambda p, c, x, price: (1.0, 1.0 + value))


def drive_neighbor(monkeypatch, value, quote):
    best = quote.report.writer_risk
    monkeypatch.setattr(
        eq._RiskKernel, "lowest_risk", lambda kernel, xs: (best - value, xs[0], None)
    )


# Each check by name: the check, its patch, its tolerance and the detail a value gives.
TOLERANCE_CHECKS = {
    "implied_vol_round_trip": (check_implied_vol_round_trip, drive_implied_vol, 1e-6,
                               "max abs err {:.3e} (tol 1e-06)"),
    "prices_vs_quadrature": (check_price_vs_quadrature, drive_rel_err, 1e-8,
                             "max rel err {:.3e} (tol 1e-08)"),
    "physical_put_call_parity": (check_physical_parity, drive_parity, 1e-10,
                                 "rel err {:.3e} (tol 1e-10)"),
    "fair_play_identity": (check_fair_play_identity, drive_profits, 1e-10,
                           "max abs gap {:.3e} (tol 1e-10)"),
    "risks_vs_quadrature": (check_risks_vs_quadrature, drive_rel_err, 1e-8,
                            "max rel err {:.3e} over 4 hedge fractions (tol 1e-08)"),
    "quote_grid_consistency": (check_quote_grid_consistency, drive_neighbor, 1e-9,
                               "neighbor improvement {:.3e} (tol 1e-09)"),
}


@pytest.mark.parametrize("name", list(TOLERANCE_CHECKS))
@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_tolerance_checks_pass_at_half_and_fail_at_twice_their_tolerance(
    monkeypatch, ref_params, ref_contract, name, factor, passed
):
    check, drive, tol, suffix = TOLERANCE_CHECKS[name]
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    drive(monkeypatch, factor * tol, quote)
    result = call_check(check, ref_params, ref_contract, quote)
    assert (result.name, result.passed) == (name, passed)
    assert result.detail.endswith(suffix.format(factor * tol)), result.detail


def quadrature_risk_by_four_rules(params, contract, x, price):
    """_quadrature_risks of one fair-priced report as four independent quad_expectation calls."""
    th = eq.risk_thresholds(params, contract, x, price)

    def w_loss(z):
        terminal = terminal_price(params, contract.expiry, z, params.drift)
        return realized_losses(params, contract, x, price, terminal)[1]

    def h_loss(z):
        terminal = terminal_price(params, contract.expiry, z, params.drift)
        return realized_losses(params, contract, x, price, terminal)[2]

    cuts = [th.d1, th.d, th.d2, th.d_prime]
    prob = quad_expectation(lambda z: (w_loss(z) > 0).astype(float), cuts)
    w_cond = quad_expectation(lambda z: np.maximum(w_loss(z), 0.0), cuts) / prob
    h_prob = quad_expectation(lambda z: (h_loss(z) > 0).astype(float), cuts)
    h_cond = quad_expectation(lambda z: np.maximum(h_loss(z), 0.0), cuts) / h_prob
    return prob, w_cond, h_cond


def test_quadrature_risk_equals_four_separate_rules():
    for params, contract, x in draw_suite(12, seed=31, threshold_window=8.0):
        report = eq.writer_risk(params, contract, x)
        (shared,) = _quadrature_risks(params, contract, [report])
        assert shared == quadrature_risk_by_four_rules(params, contract, x, report.fair_price)


def test_run_all_checks_quotes_once(monkeypatch, ref_params, ref_contract):
    calls = []
    original = eq.minimize_writer_risk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eq, "minimize_writer_risk", counted)
    results = run_all_checks(ref_params, ref_contract, mc_cfg=McConfig(paths=20_000))
    assert len(calls) == 1
    assert [r.name for r in results][-2:] == ["mc_agreement", "quote_grid_consistency"]
    assert all(r.passed for r in results)


def test_suite_builds_one_risk_kernel_besides_the_minimizers(
    monkeypatch, ref_params, ref_contract
):
    # run_all_checks passes its own kernel to every check that scores hedge
    # fractions; minimize_writer_risk builds the other. Each check built one before.
    constructions = []
    init = eq._RiskKernel.__init__

    def counted(kernel, *args):
        constructions.append(args)
        init(kernel, *args)

    monkeypatch.setattr(eq._RiskKernel, "__init__", counted)
    results = run_all_checks(ref_params, ref_contract, mc_cfg=McConfig(paths=10_000))
    assert all(r.passed for r in results)
    assert len(constructions) == 2


def test_single_path_fails_mc_check_without_warnings(ref_params, ref_contract):
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=1), quote)
    assert result.name == "mc_agreement"
    assert not result.passed
    assert result.detail == "writer_risk has 1 positive loss; a band needs at least 2; paths 1"


def test_no_writer_losses_fail_mc_check(monkeypatch, ref_params, ref_contract):
    # At the reference quote the writer gains when S(T) stays at the strike.
    monkeypatch.setattr(oracle, "terminal_chunks", lambda *args: iter([np.full(16, 100.0)]))
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=16), quote)
    assert not result.passed
    assert result.detail == "writer_risk has 0 positive losses; a band needs at least 2; paths 16"


def test_single_positive_loss_fails_mc_check(ref_params, ref_contract):
    # Three paths give one positive writer loss, whose standard error is inf:
    # an infinite band would pass any gap, so the check must fail instead.
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=3, seed=0), quote)
    assert not result.passed
    assert result.detail == "writer_risk has 1 positive loss; a band needs at least 2; paths 3"


@pytest.mark.parametrize(
    "terminal, detail",
    [
        ([200.0, 250.0, 100.0],
         "holder_risk has 1 positive loss; a band needs at least 2; paths 3"),
        ([200.0, 250.0], "holder_risk has 0 positive losses; a band needs at least 2; paths 2"),
    ],
    ids=["one_holder_loss", "no_holder_loss"],
)
def test_too_few_holder_losses_fail_mc_check(
    monkeypatch, ref_params, ref_contract, terminal, detail
):
    # At the reference quote the writer loses when S(T) is far above the
    # strike, and only the holder loses at S(T) = 100.
    monkeypatch.setattr(oracle, "terminal_chunks", lambda *args: iter([np.array(terminal)]))
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=len(terminal)), quote)
    assert (result.passed, result.detail) == (False, detail)


def whole_array_mc_moments(params, contract, cfg, quote):
    """The Monte Carlo check's estimates from the whole sample at once."""
    sample = simulate_terminal(params, contract.expiry, cfg)
    n = sample.size
    payoff = np.maximum(sample - contract.strike, 0.0)
    _, w_losses, h_losses = realized_losses(params, contract, quote.x_star, quote.price, sample)
    w_pos, h_pos = w_losses[w_losses > 0], h_losses[h_losses > 0]
    p_hat = float((w_losses > 0).mean())
    estimates = {
        "expected_call": (payoff.mean(), payoff.std(ddof=1) / math.sqrt(n)),
        "writer_risk": (w_pos.mean(), w_pos.std(ddof=1) / math.sqrt(w_pos.size)),
        "holder_risk": (h_pos.mean(), h_pos.std(ddof=1) / math.sqrt(h_pos.size)),
    }
    report = quote.report
    gaps = [
        (abs(expected_call_payoff_physical(params, contract) - estimates["expected_call"][0]),
         3.5 * estimates["expected_call"][1]),
        (abs(report.loss_prob - p_hat), 3.5 * math.sqrt(p_hat * (1.0 - p_hat) / n)),
        (abs(report.writer_risk - estimates["writer_risk"][0]), 3.5 * estimates["writer_risk"][1]),
        (abs(report.holder_risk - estimates["holder_risk"][0]), 3.5 * estimates["holder_risk"][1]),
    ]
    return p_hat, estimates, all(gap <= band for gap, band in gaps)


def blockwise_boolean_index_moments(params, contract, cfg, quote):
    """The streamed pass's three RunningMoments, selecting with v[v > 0]."""
    payoff, writer, holder = RunningMoments(), RunningMoments(), RunningMoments()
    for terminal in terminal_chunks(params, contract.expiry, cfg):
        payoff.add(np.maximum(terminal - contract.strike, 0.0))
        _, w, h = realized_losses(params, contract, quote.x_star, quote.price, terminal)
        writer.add(w[w > 0])
        holder.add(h[h > 0])
    return payoff, writer, holder


# The Monte Carlo pass is pinned on the reference market and, away from it,
# on three markets whose cut points lie inside [-8, 8].
WINDOWED_MARKETS = [(p, c) for p, c, _ in draw_suite(3, seed=31, threshold_window=8.0)]


@pytest.mark.parametrize(
    "market, paths",
    [pytest.param(None, 100_003, id="100003"), pytest.param(None, 2 * 262_144 + 3, id="524291")]
    + [pytest.param(m, 2 * 262_144 + 3, id=f"windowed{i}") for i, m in enumerate(WINDOWED_MARKETS)],
)
def test_streamed_mc_check_matches_whole_array_estimates(
    monkeypatch, ref_params, ref_contract, market, paths
):
    params, contract = market or (ref_params, ref_contract)
    moments = []

    class Recorded(RunningMoments):
        def __init__(self):
            super().__init__()
            moments.append(self)

    monkeypatch.setattr(oracle, "RunningMoments", Recorded)
    cfg = McConfig(paths=paths, seed=11)
    quote = eq.minimize_writer_risk(params, contract)
    result = check_mc_agreement(params, contract, cfg, quote)
    p_hat, estimates, passed = whole_array_mc_moments(params, contract, cfg, quote)
    reference = blockwise_boolean_index_moments(params, contract, cfg, quote)

    payoff, writer, holder = moments
    for streamed, expected in zip(moments, reference):
        assert (streamed.count, streamed.mean, streamed.m2) == (
            expected.count, expected.mean, expected.m2
        )
    assert writer.count / cfg.paths == p_hat
    for name, streamed in (("expected_call", payoff), ("writer_risk", writer),
                           ("holder_risk", holder)):
        est = streamed.estimate()
        mean, std_error = estimates[name]
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)
    assert result.passed == passed


@pytest.mark.parametrize("paths", [100_003, 2 * 262_144 + 3])
def test_mc_estimator_has_the_bits_of_blockwise_boolean_index_moments(
    ref_params, ref_contract, paths
):
    markets = [(ref_params, ref_contract), *WINDOWED_MARKETS[:1]]
    for params, contract in markets:
        quote = eq.minimize_writer_risk(params, contract)
        cfg = McConfig(paths=paths, seed=11)
        estimates = oracle.mc_conditional_loss(params, contract, quote.x_star, quote.price, cfg)
        reference = blockwise_boolean_index_moments(params, contract, cfg, quote)
        assert estimates == tuple(moments.estimate() for moments in reference)
        assert estimates[0].n_effective == paths


def test_mc_check_takes_its_estimates_from_the_oracle(monkeypatch, ref_params, ref_contract):
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    quote = replace(quote, report=replace(quote.report, loss_prob=0.3, writer_risk=5.0,
                                          holder_risk=3.0))
    cfg = McConfig(paths=1_000)
    expected_call = expected_call_payoff_physical(ref_params, ref_contract)
    calls = []

    def fixed(*args):
        calls.append(args)
        return (oracle.McEstimate(expected_call + 0.5, 0.2, 1_000),
                oracle.McEstimate(5.1, 0.04, 250), oracle.McEstimate(2.9, 0.02, 600))

    monkeypatch.setattr(oracle, "mc_conditional_loss", fixed)
    result = check_mc_agreement(ref_params, ref_contract, cfg, quote)
    assert calls == [(ref_params, ref_contract, quote.x_star, quote.price, cfg)]
    # p_hat = 250 / 1000 and its band 3.5 sqrt(0.25 * 0.75 / 1000) = 4.79e-02.
    assert (result.passed, result.detail) == (
        False,
        "expected_call gap 5.00e-01 (band 7.00e-01); loss_prob gap 5.00e-02 (band 4.79e-02); "
        "writer_risk gap 1.00e-01 (band 1.40e-01); holder_risk gap 1.00e-01 (band 7.00e-02); "
        "paths 1000",
    )


def test_mc_check_holds_no_path_sized_array(ref_params, ref_contract):
    # The whole-array check peaked at 24.1 MB for a million paths (8 MB per array).
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    tracemalloc.start()
    try:
        result = check_mc_agreement(ref_params, ref_contract, McConfig(), quote)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 6e6


def test_suite_traced_peak_stays_under_two_mib(ref_params, ref_contract):
    # With the chunk-sized draw buffer of 262,144 paths (2 MiB) the 1e6-path
    # suite peaked at about 3.5 MiB; blocks of 32,768 paths put it near 1.65.
    run_all_checks(ref_params, ref_contract, mc_cfg=McConfig(paths=10))
    tracemalloc.start()
    try:
        results = run_all_checks(ref_params, ref_contract, mc_cfg=McConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 2 * 2**20


def test_risks_check_shares_one_rule_between_its_fractions(monkeypatch, ref_params, ref_contract):
    rules = []
    original = oracle.quad_rule

    def recorded(breakpoints=()):
        rules.append(list(breakpoints))
        return original(breakpoints)

    monkeypatch.setattr(oracle, "quad_rule", recorded)
    result = call_check(check_risks_vs_quadrature, ref_params, ref_contract)
    assert result.passed
    assert len(rules) == 1 and len(rules[0]) == 4 * 4


def test_risks_check_cuts_its_rule_at_the_reports_it_holds(monkeypatch, ref_params, ref_contract):
    # The caller's kernel prices every fraction; the rule's breakpoints are its
    # reports' thresholds, so no kernel is built again to recompute them.
    constructions, threshold_calls = [], []
    init, thresholds = eq._RiskKernel.__init__, eq.risk_thresholds

    def counted(kernel, *args):
        constructions.append(args)
        init(kernel, *args)

    def counted_thresholds(*args):
        threshold_calls.append(args)
        return thresholds(*args)

    monkeypatch.setattr(eq._RiskKernel, "__init__", counted)
    monkeypatch.setattr(eq, "risk_thresholds", counted_thresholds)
    result = call_check(check_risks_vs_quadrature, ref_params, ref_contract)
    assert result.passed and result.detail.endswith(" over 4 hedge fractions (tol 1e-08)")
    assert (len(constructions), threshold_calls) == (1, [])


# At x = 0.75 the writer loses only on Z > d2 = 10.29 (d1 = -22.8), so the
# rule on z in [-10, 10] puts no weight on that loss event, whose closed-form
# probability is 4.0e-25; x = 0, 0.25 and 0.5 keep theirs.
NO_QUADRATURE_WEIGHT_AT_3_4 = (
    MarketParams(spot=100.0, drift=0.1, volatility=0.005, risk_free=0.05),
    OptionContract(strike=100.0, expiry=0.5),
)


def test_risks_check_skips_a_fraction_whose_loss_event_has_no_quadrature_weight():
    params, contract = NO_QUADRATURE_WEIGHT_AT_3_4
    report = eq.writer_risk(params, contract, 0.75)
    assert report.thresholds.d1 < -10 < 10 < report.thresholds.d2 and report.loss_prob > 0
    assert _quadrature_risks(params, contract, [report]) == [None]
    result = check_risks_vs_quadrature(params, contract, eq._RiskKernel(params, contract))
    assert result.passed, result.detail
    assert result.detail.endswith(" over 3 hedge fractions, 1 skipped (tol 1e-08)")
    results = run_all_checks(params, contract, mc_cfg=McConfig(paths=10_000))
    assert len(results) == 9


def test_risks_check_fails_when_it_tests_no_fraction(monkeypatch, ref_params, ref_contract):
    monkeypatch.setattr(validation, "_quadrature_risks", lambda p, c, reps: [None] * len(reps))
    result = call_check(check_risks_vs_quadrature, ref_params, ref_contract)
    assert (result.passed, result.detail) == (
        False, "max rel err 0.000e+00 over 0 hedge fractions, 4 skipped (tol 1e-08)"
    )


# Prints the details of the reference market's two quadrature checks.
QUADRATURE_DETAILS_SCRIPT = """
import json
from fairhedge import MarketParams, OptionContract, equilibrium, oracle
from fairhedge.validation import check_price_vs_quadrature, check_risks_vs_quadrature
oracle._PANELS = 2000  # 24,000 nodes, a sum long enough for OpenBLAS to split
params = MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)
contract = OptionContract(strike=100.0, expiry=1.0)
kernel = equilibrium._RiskKernel(params, contract)
details = [check_price_vs_quadrature(params, contract).detail,
           check_risks_vs_quadrature(params, contract, kernel).detail]
print(json.dumps(details))
"""


def test_quadrature_details_do_not_depend_on_the_blas_thread_count():
    """The quadrature sums run in one fixed order, whatever the BLAS thread count.

    A BLAS dot product may split a 24,000-node sum across threads, which
    changes its last bits and so the printed relative errors; on the
    reference market the risks check's detail then differs between one and
    two OpenBLAS threads. The shipped rule of about 600 nodes is too short
    for OpenBLAS to split, so the script runs the checks on a 2,000-panel
    rule, where a dot product in place of np.add.reduce fails this test. A
    host with one CPU runs both processes on one thread, so there this test
    cannot fail even for a thread-split sum.
    """
    details = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", QUADRATURE_DETAILS_SCRIPT],
                                capture_output=True, text=True, env=env, check=True)
        details.append(json.loads(result.stdout))
    assert details[0] == details[1]
    assert [detail.startswith("max rel err ") for detail in details[0]] == [True, True]


def test_suite_below_the_premium_floor_raises_empty_domain_before_any_check(monkeypatch):
    # The expected payoff rounds to -1.04e-322, so x_max and the property grid
    # are negative: a check would reject the hedge fraction as a config error.
    params = MarketParams(spot=100.0, drift=0.06, volatility=0.005, risk_free=0.0)
    contract = OptionContract(strike=102.0, expiry=0.01)
    assert eq._RiskKernel(params, contract).x_max < 0

    def first_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(validation, "check_implied_vol_round_trip", first_check)
    with pytest.raises(EmptyDomain, match="below 1e-08 of spot 100.0"):
        run_all_checks(params, contract, mc_cfg=McConfig(paths=10_000))


# A deep in-the-money call whose sigma = 0.05 trial call price sits exactly
# at its intrinsic bound; the trial's out-of-the-money put keeps its price.
BOUND_PRICED = (
    MarketParams(spot=128.3211, drift=0.0612, volatility=0.5394, risk_free=0.0129),
    OptionContract(strike=66.2214, expiry=2.6403),
)
# A deeper, shorter call whose sigma = 0.05 trial put price underflows to
# 0.0, so that trial has no implied vol.
ZERO_PRICED = (
    MarketParams(spot=68.6939, drift=0.152, volatility=0.5199, risk_free=0.0055),
    OptionContract(strike=34.7019, expiry=0.1251),
)


def test_trial_price_at_its_call_bound_passes_the_round_trip_check():
    params, contract = BOUND_PRICED
    trial = replace(params, volatility=0.05)
    discount = rate_factors(params, contract.expiry)[2]
    assert bs_call_price(trial, contract) <= params.spot - contract.strike * discount
    recovered = validation._implied_vol_otm(trial, contract, validation._otm_price(trial, contract))
    assert abs(recovered - 0.05) <= 1e-6
    assert check_implied_vol_round_trip(*BOUND_PRICED).passed


def test_suite_passes_every_check_when_a_round_trip_trial_sits_at_its_call_bound():
    results = run_all_checks(*BOUND_PRICED, mc_cfg=McConfig(paths=20_000))
    assert len(results) == 9
    assert [r.name for r in results if not r.passed] == []


def test_trial_with_zero_out_of_the_money_price_fails_the_round_trip_check():
    params, contract = ZERO_PRICED
    assert validation._otm_price(replace(params, volatility=0.05), contract) == 0.0
    result = check_implied_vol_round_trip(*ZERO_PRICED)
    assert not result.passed
    assert result.detail.startswith("sigma 0.05: PriceOutOfBounds: ")


def test_suite_reports_every_check_when_a_round_trip_trial_has_no_vol():
    results = run_all_checks(*ZERO_PRICED, mc_cfg=McConfig(paths=20_000))
    assert len(results) == 9
    failed = [r.name for r in results if not r.passed]
    assert failed == ["implied_vol_round_trip"]


def test_a_neighbour_without_a_risk_does_not_beat_the_quote(low_vol_market):
    quote = eq.minimize_writer_risk(*low_vol_market)
    with pytest.raises(DegenerateLoss):
        eq.writer_risk(*low_vol_market, quote.x_star + NumericConfig.minimizer_grid)
    result = check_quote_grid_consistency(eq._RiskKernel(*low_vol_market), quote)
    assert result.passed
    assert result.detail == "x_star 0.986973; neighbor improvement 0.000e+00 (tol 1e-09)"


def test_property_grid_has_the_bits_of_numpys_linspace(ref_params, ref_contract):
    def linspace_bits(upper):
        return [x.hex() for x in np.linspace(upper / 100, upper, 100).tolist()]

    kernels = [eq._RiskKernel(ref_params, ref_contract)]
    kernels += [eq._RiskKernel(p, c) for p, c, _ in draw_suite(200, seed=31)]
    for kernel in kernels:
        upper = validation._sampling_upper(kernel)
        assert [x.hex() for x in _property_grid(kernel)] == linspace_bits(upper)

    class Upper:  # a kernel whose sampling upper bound is u
        def __init__(self, u):
            self.x_max = u / (1.0 - validation._SAMPLING_MARGIN)

    for u in np.random.default_rng(7).uniform(1e-12, 1.0 - 1e-6, 20_000).tolist():
        kernel = Upper(u)
        upper = validation._sampling_upper(kernel)
        assert [x.hex() for x in _property_grid(kernel)] == linspace_bits(upper), u


def priced_grid(kernel):
    """The property grid with each hedge fraction's fair price, as run_all_checks passes it."""
    return [(x, kernel.fair_price(x)) for x in _property_grid(kernel)]


def property_check(check, params, contract):
    kernel = eq._RiskKernel(params, contract)
    return check(kernel, priced_grid(kernel))


def test_property_checks_pass_on_the_reference_and_drawn_markets(ref_params, ref_contract):
    markets = [(ref_params, ref_contract)] + [(p, c) for p, c, _ in draw_suite(24, seed=31)]
    for params, contract in markets:
        for check in (check_threshold_ordering, check_threshold_arg_monotonicity):
            result = property_check(check, params, contract)
            assert result.passed is True, (check.__name__, params, contract)
            assert result.detail == "0 violations in 100 hedge fractions"


def test_suite_prices_the_property_grid_once(monkeypatch, ref_params, ref_contract):
    # Both property checks read one priced grid; each priced it before.
    grid = set(_property_grid(eq._RiskKernel(ref_params, ref_contract)))
    priced = []
    original = eq._RiskKernel.fair_price

    def counted(kernel, x):
        if x in grid:
            priced.append(x)
        return original(kernel, x)

    monkeypatch.setattr(eq._RiskKernel, "fair_price", counted)
    results = run_all_checks(ref_params, ref_contract, mc_cfg=McConfig(paths=10_000))
    assert all(r.passed for r in results)
    assert sorted(priced) == sorted(grid) and len(grid) == 100
    details = {r.name: r.detail for r in results}
    assert details["threshold_ordering"] == "0 violations in 100 hedge fractions"
    assert details["threshold_arg_monotonicity"] == "0 violations in 100 hedge fractions"


def test_threshold_ordering_counts_the_hedge_fractions_with_d_prime_below_d(
    monkeypatch, ref_params, ref_contract
):
    # d' drops below d wherever the premium is under its value at x = 0.5:
    # on the reference grid (x_max > 1, so u = 1 - 1e-6) that is x = 0.51 u .. u.
    original = eq._RiskKernel._d_prime
    half_price = eq.fair_price(ref_params, ref_contract, 0.5)

    def d_prime(kernel, price):
        return kernel.d - 1.0 if price < half_price else original(kernel, price)

    monkeypatch.setattr(eq._RiskKernel, "_d_prime", d_prime)
    result = property_check(check_threshold_ordering, ref_params, ref_contract)
    assert result.passed is False
    assert result.detail == "50 violations in 100 hedge fractions"


def test_threshold_arg_monotonicity_fails_when_the_d2_argument_falls(
    monkeypatch, ref_params, ref_contract
):
    # With the premium e^{-rT} E[C(T)] (1 - x), the d2 log argument is
    # (K - x S0 e^{rT}) / (S0 (1 - x)) + E[C(T)] / S0, whose slope has the
    # sign of K - S0 e^{rT}: negative at the reference market, on every step.
    def fair_price(kernel, x):
        return kernel.discount * kernel.expected_payoff * (1 - x)

    monkeypatch.setattr(eq._RiskKernel, "fair_price", fair_price)
    result = property_check(check_threshold_arg_monotonicity, ref_params, ref_contract)
    assert result.passed is False
    assert result.detail == "99 violations in 100 hedge fractions"


def test_threshold_arg_monotonicity_reads_the_kernel_log_args(
    monkeypatch, ref_params, ref_contract
):
    # A fault in the kernel's d2 argument, falling on every grid step, shows in
    # the check: it tests the arguments that thresholds takes logs of.
    original = eq._RiskKernel.log_args

    def log_args(kernel, x, price):
        return original(kernel, x, price)[0], -x

    monkeypatch.setattr(eq._RiskKernel, "log_args", log_args)
    result = property_check(check_threshold_arg_monotonicity, ref_params, ref_contract)
    assert (result.passed, result.detail) == (False, "99 violations in 100 hedge fractions")


def test_retired_contract_free_monotonicity_draws_have_no_violations():
    # 50 draws at seed 2025 on the grid 0.01 .. min(0.99, 0.99 x_hi), which
    # check_threshold_arg_monotonicity used while it took no market. Criterion
    # 07 tests these draws on a grid bounded by 0.99 x_max, a different grid.
    violating = 0
    for params, contract, _ in draw_suite(50, seed=2025):
        kernel = eq._RiskKernel(params, contract)
        upper = min(0.99, kernel.x_hi * 0.99)
        assert upper > 0.02
        compounding = math.exp(params.risk_free * contract.expiry)
        xs = np.linspace(0.01, upper, 100)
        prices = np.array([kernel.fair_price(x) for x in xs.tolist()])
        dead_call = (xs * params.spot - prices) * compounding / (params.spot * xs)
        live_call = (contract.strike + (prices - xs * params.spot) * compounding) / (
            params.spot * (1.0 - xs)
        )
        if np.any(np.diff(dead_call) < -1e-12) or np.any(np.diff(live_call) < -1e-12):
            violating += 1
    assert violating == 0
