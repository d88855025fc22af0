"""Tests for the cross-check suite: each costly step runs once, values unchanged.

The suite shares one quote between its Monte Carlo and grid checks and one
quadrature rule between the four loss integrands, and the Monte Carlo check
streams its sample through running moments. These tests pin that the shared
and streamed versions give the values of the step-by-step, whole-array
ones, and that a sample too small for a finite Monte Carlo band, or a
trial price with no implied vol, fails its check instead of raising or
passing.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import fairhedge.equilibrium as eq
import fairhedge.validation as validation
from fairhedge import (
    MarketParams,
    McConfig,
    NumericConfig,
    OptionContract,
    QuadConfig,
    expected_call_payoff_physical,
    quad_expectation,
    simulate_terminal,
)
from fairhedge.oracle import RunningMoments, terminal_price
from fairhedge.validation import (
    check_implied_vol_round_trip,
    check_mc_agreement,
    draw_suite,
    quadrature_risk,
    run_all_checks,
)


def quadrature_risk_by_four_rules(params, contract, x, price, quad_cfg):
    """quadrature_risk as four independent quad_expectation calls."""
    th = eq.risk_thresholds(params, contract, x, price)

    def w_loss(z):
        terminal = terminal_price(params, contract.expiry, z)
        return eq.writer_loss(params, contract, x, price, terminal)

    def h_loss(z):
        return eq.holder_loss(params, contract, price, terminal_price(params, contract.expiry, z))

    cuts = [th.d1, th.d, th.d2, th.d_prime]
    prob = quad_expectation(lambda z: (w_loss(z) > 0).astype(float), quad_cfg, cuts)
    w_cond = quad_expectation(lambda z: np.maximum(w_loss(z), 0.0), quad_cfg, cuts) / prob
    h_prob = quad_expectation(lambda z: (h_loss(z) > 0).astype(float), quad_cfg, cuts)
    h_cond = quad_expectation(lambda z: np.maximum(h_loss(z), 0.0), quad_cfg, cuts) / h_prob
    return prob, w_cond, h_cond


def test_quadrature_risk_equals_four_separate_rules():
    cfg = QuadConfig()
    for params, contract, x in draw_suite(12, seed=31, threshold_window=8.0):
        price = eq.fair_price(params, contract, x)
        shared = quadrature_risk(params, contract, x, price, cfg)
        assert shared == quadrature_risk_by_four_rules(params, contract, x, price, cfg)


def test_run_all_checks_quotes_once(monkeypatch, ref_params, ref_contract):
    calls = []
    original = eq.minimize_writer_risk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eq, "minimize_writer_risk", counted)
    results = run_all_checks(
        ref_params, ref_contract, mc_cfg=McConfig(paths=20_000),
        ordering_draws=5, monotonicity_draws=5,
    )
    assert len(calls) == 1
    assert [r.name for r in results][-2:] == ["mc_agreement", "quote_grid_consistency"]
    assert all(r.passed for r in results)


def test_single_path_fails_mc_check_without_warnings(ref_params, ref_contract):
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=1), quote)
    assert result.name == "mc_agreement"
    assert not result.passed
    assert "at least 2 paths" in result.detail


def test_no_writer_losses_fail_mc_check(monkeypatch, ref_params, ref_contract):
    # At the reference quote the writer gains when S(T) stays at the strike.
    monkeypatch.setattr(validation, "terminal_chunks", lambda *args: iter([np.full(16, 100.0)]))
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=16), quote)
    assert not result.passed
    assert "no strictly positive losses" in result.detail


def test_single_positive_loss_fails_mc_check(ref_params, ref_contract):
    # Three paths give one positive writer loss, whose standard error is inf:
    # an infinite band would pass any gap, so the check must fail instead.
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=3, seed=0), quote)
    assert not result.passed
    assert result.detail == "writer_risk has 1 positive loss; a band needs at least 2; paths 3"


def whole_array_mc_moments(params, contract, cfg, quote):
    """The Monte Carlo check's estimates from the whole sample at once."""
    sample = simulate_terminal(params, contract.expiry, cfg)
    n = sample.size
    payoff = np.maximum(sample - contract.strike, 0.0)
    w_losses = eq.writer_loss(params, contract, quote.x_star, quote.price, sample)
    h_losses = eq.holder_loss(params, contract, quote.price, sample)
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


@pytest.mark.parametrize("chunk_size", [8192, 1_000_000])
def test_streamed_mc_check_matches_whole_array_estimates(
    monkeypatch, ref_params, ref_contract, chunk_size
):
    moments = []

    class Recorded(RunningMoments):
        def __init__(self):
            super().__init__()
            moments.append(self)

    monkeypatch.setattr(validation, "RunningMoments", Recorded)
    cfg = McConfig(paths=100_003, seed=11, chunk_size=chunk_size)
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    result = check_mc_agreement(ref_params, ref_contract, cfg, quote)
    p_hat, estimates, passed = whole_array_mc_moments(ref_params, ref_contract, cfg, quote)

    payoff, writer, holder = moments
    assert writer.count / cfg.paths == p_hat
    for name, streamed in (("expected_call", payoff), ("writer_risk", writer),
                           ("holder_risk", holder)):
        est = streamed.estimate()
        mean, std_error = estimates[name]
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)
    assert result.passed == passed


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


# A deep in-the-money call whose sigma = 0.05 trial prices exactly at its
# intrinsic bound, so that trial has no implied vol.
BOUND_PRICED = (
    MarketParams(spot=128.3211, drift=0.0612, volatility=0.5394, risk_free=0.0129),
    OptionContract(strike=66.2214, expiry=2.6403),
)


def test_trial_price_at_its_bound_fails_the_round_trip_check():
    result = check_implied_vol_round_trip(*BOUND_PRICED, NumericConfig())
    assert not result.passed
    assert result.detail.startswith("sigma 0.05: PriceOutOfBounds: price ")


def test_suite_reports_every_check_when_a_round_trip_trial_has_no_vol():
    results = run_all_checks(
        *BOUND_PRICED, mc_cfg=McConfig(paths=20_000), ordering_draws=5, monotonicity_draws=5
    )
    assert len(results) == 9
    failed = [r.name for r in results if not r.passed]
    assert failed == ["implied_vol_round_trip"]
