"""Tests for the cross-check suite: each costly step runs once, values unchanged.

The suite shares one quote between its Monte Carlo and grid checks and one
quadrature rule between the four loss integrands, and the Monte Carlo check
streams its sample through running moments. These tests pin that the shared
and streamed versions give the values of the step-by-step, whole-array ones
(the streamed moments bit for bit those of a block-wise boolean-index
pass), and that a sample too small for a finite Monte Carlo band, or a
trial whose out-of-the-money price underflows to zero, fails its check
instead of raising or passing, while a trial call priced at its intrinsic
bound round-trips through its out-of-the-money put. Each
tolerance-bounded check passes at half its tolerance and fails at twice
it, with its exact detail text. The two threshold property
checks test the caller's market on a 100-point hedge grid and fail, with a
count, when a cut point is out of order or a log argument falls.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fairhedge.equilibrium as eq
import fairhedge.validation as validation
from fairhedge import (
    MarketParams,
    McConfig,
    OptionContract,
    bs_call_price,
    expected_call_payoff_physical,
    quad_expectation,
    simulate_terminal,
)
from fairhedge.core import rate_factors
from fairhedge.oracle import RunningMoments, terminal_chunks, terminal_price
from fairhedge.validation import (
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
    quadrature_risk,
    run_all_checks,
)


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
    original, best = eq.writer_risk, quote.report.writer_risk
    monkeypatch.setattr(
        eq, "writer_risk", lambda p, c, x: replace(original(p, c, x), writer_risk=best - value)
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
    args = (quote,) if check is check_quote_grid_consistency else ()
    result = check(ref_params, ref_contract, *args)
    assert (result.name, result.passed) == (name, passed)
    assert result.detail.endswith(suffix.format(factor * tol)), result.detail


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
    assert result.detail == "writer_risk has 1 positive loss; a band needs at least 2; paths 1"


def test_no_writer_losses_fail_mc_check(monkeypatch, ref_params, ref_contract):
    # At the reference quote the writer gains when S(T) stays at the strike.
    monkeypatch.setattr(validation, "terminal_chunks", lambda *args: iter([np.full(16, 100.0)]))
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
    monkeypatch.setattr(validation, "terminal_chunks", lambda *args: iter([np.array(terminal)]))
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
        prices = eq._RiskKernel(params, contract).price(xs)
        dead_call = (xs * params.spot - prices) * compounding / (params.spot * xs)
        live_call = (contract.strike + (prices - xs * params.spot) * compounding) / (
            params.spot * (1.0 - xs)
        )
        if np.any(np.diff(dead_call) < -1e-12) or np.any(np.diff(live_call) < -1e-12):
            violating += 1
    assert violating == 0
