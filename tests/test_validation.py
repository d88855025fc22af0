"""Tests for the cross-check suite: each costly step runs once, values unchanged.

The suite shares one quote between its Monte Carlo and grid checks and one
quadrature rule between the four loss integrands, and the Monte Carlo check
streams its sample through running moments. These tests pin that the shared
and streamed versions give the values of the step-by-step, whole-array ones
(the streamed moments bit for bit those of a block-wise boolean-index
pass), and that a sample too small for a finite Monte Carlo band, or a
trial price with no implied vol, fails its check instead of raising or
passing. The two threshold property checks test the caller's market on a
100-point hedge grid and fail, with a count, when a cut point is out of
order or a log argument falls.
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
    OptionContract,
    expected_call_payoff_physical,
    quad_expectation,
    simulate_terminal,
)
from fairhedge.oracle import RunningMoments, terminal_chunks, terminal_price
from fairhedge.validation import (
    check_implied_vol_round_trip,
    check_mc_agreement,
    check_threshold_arg_monotonicity,
    check_threshold_ordering,
    draw_suite,
    quadrature_risk,
    run_all_checks,
)


def quadrature_risk_by_four_rules(params, contract, x, price):
    """quadrature_risk as four independent quad_expectation calls."""
    th = eq.risk_thresholds(params, contract, x, price)

    def w_loss(z):
        terminal = terminal_price(params, contract.expiry, z, params.drift)
        return eq.writer_loss(params, contract, x, price, terminal)

    def h_loss(z):
        terminal = terminal_price(params, contract.expiry, z, params.drift)
        return eq.holder_loss(params, contract, price, terminal)

    cuts = [th.d1, th.d, th.d2, th.d_prime]
    prob = quad_expectation(lambda z: (w_loss(z) > 0).astype(float), cuts)
    w_cond = quad_expectation(lambda z: np.maximum(w_loss(z), 0.0), cuts) / prob
    h_prob = quad_expectation(lambda z: (h_loss(z) > 0).astype(float), cuts)
    h_cond = quad_expectation(lambda z: np.maximum(h_loss(z), 0.0), cuts) / h_prob
    return prob, w_cond, h_cond


def test_quadrature_risk_equals_four_separate_rules():
    for params, contract, x in draw_suite(12, seed=31, threshold_window=8.0):
        price = eq.fair_price(params, contract, x)
        shared = quadrature_risk(params, contract, x, price)
        assert shared == quadrature_risk_by_four_rules(params, contract, x, price)


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


def blockwise_boolean_index_moments(params, contract, cfg, quote):
    """The streamed pass's three RunningMoments, selecting with v[v > 0]."""
    payoff, writer, holder = RunningMoments(), RunningMoments(), RunningMoments()
    for chunk in terminal_chunks(params, contract.expiry, cfg):
        for start in range(0, chunk.size, validation._MC_BLOCK):
            terminal = chunk[start : start + validation._MC_BLOCK]
            payoff.add(np.maximum(terminal - contract.strike, 0.0))
            v = eq.writer_loss(params, contract, quote.x_star, quote.price, terminal)
            writer.add(v[v > 0])
            v = eq.holder_loss(params, contract, quote.price, terminal)
            holder.add(v[v > 0])
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

    monkeypatch.setattr(validation, "RunningMoments", Recorded)
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
    result = check_implied_vol_round_trip(*BOUND_PRICED)
    assert not result.passed
    assert result.detail.startswith("sigma 0.05: PriceOutOfBounds: price ")


def test_suite_reports_every_check_when_a_round_trip_trial_has_no_vol():
    results = run_all_checks(*BOUND_PRICED, mc_cfg=McConfig(paths=20_000))
    assert len(results) == 9
    failed = [r.name for r in results if not r.passed]
    assert failed == ["implied_vol_round_trip"]


def test_property_checks_pass_on_the_reference_and_drawn_markets(ref_params, ref_contract):
    markets = [(ref_params, ref_contract)] + [(p, c) for p, c, _ in draw_suite(24, seed=31)]
    for params, contract in markets:
        for check in (check_threshold_ordering, check_threshold_arg_monotonicity):
            result = check(params, contract)
            assert result.passed is True, (check.__name__, params, contract)
            assert result.detail == "0 violations in 100 hedge fractions"


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
    result = check_threshold_ordering(ref_params, ref_contract)
    assert result.passed is False
    assert result.detail == "50 violations in 100 hedge fractions"


def test_threshold_arg_monotonicity_fails_when_the_d2_argument_falls(
    monkeypatch, ref_params, ref_contract
):
    # With the premium e^{-rT} E[C(T)] (1 - x), the d2 log argument is
    # (K - x S0 e^{rT}) / (S0 (1 - x)) + E[C(T)] / S0, whose slope has the
    # sign of K - S0 e^{rT}: negative at the reference market, on every step.
    def price(kernel, x):
        return kernel.discount * kernel.expected_payoff * (1 - x)

    monkeypatch.setattr(eq._RiskKernel, "price", price)
    result = check_threshold_arg_monotonicity(ref_params, ref_contract)
    assert result.passed is False
    assert result.detail == "99 violations in 100 hedge fractions"


def test_retired_contract_free_monotonicity_draws_have_no_violations():
    # 50 draws at seed 2025 on the grid 0.01 .. min(0.99, 0.99 x_hi), which
    # check_threshold_arg_monotonicity used while it took no market. Criterion
    # 07 tests these draws on a grid bounded by 0.99 x_max, a different grid.
    violating = 0
    for params, contract, _ in draw_suite(50, seed=2025):
        upper = min(0.99, eq._RiskKernel(params, contract).x_hi * 0.99)
        assert upper > 0.02
        compounding = math.exp(params.risk_free * contract.expiry)
        xs = np.linspace(0.01, upper, 100)
        prices = eq.fair_price(params, contract, xs)
        dead_call = (xs * params.spot - prices) * compounding / (params.spot * xs)
        live_call = (contract.strike + (prices - xs * params.spot) * compounding) / (
            params.spot * (1.0 - xs)
        )
        if np.any(np.diff(dead_call) < -1e-12) or np.any(np.diff(live_call) < -1e-12):
            violating += 1
    assert violating == 0
