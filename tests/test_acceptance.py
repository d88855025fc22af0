"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Reference scenario throughout: S0=100, mu=0.10, sigma=0.20,
r=0.05, T=1, K=100 unless a criterion says otherwise.
"""

import math
from dataclasses import replace

import numpy as np

from fairhedge import (
    MarketParams,
    McConfig,
    OptionContract,
    bs_call_price,
    d_plus_minus,
    expected_call_payoff_physical,
    expected_profits,
    fair_price,
    implied_vol,
    minimize_writer_risk,
    std_normal_cdf,
    volatility_smile,
    writer_risk,
)
from fairhedge.equilibrium import _RiskKernel, risk_thresholds
from fairhedge.oracle import mc_conditional_loss, quad_expectation, simulate_terminal, terminal_price
from fairhedge.validation import _quadrature_risks, draw_suite, rel_err

PARAMS = MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)
CONTRACT = OptionContract(strike=100.0, expiry=1.0)
MC = McConfig(paths=1_000_000, seed=12345)


def report(number: int, ok: bool, description: str, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {description}: {detail}")


def test_criterion_01_black_scholes_price():
    price = bs_call_price(PARAMS, CONTRACT)
    ok = abs(price - 10.45) <= 0.005
    report(1, ok, "Black-Scholes price 10.45 +- 0.005", f"got {price:.6f}")
    assert ok


def test_criterion_02_delta_hedge_writer_profit():
    x = std_normal_cdf(d_plus_minus(PARAMS, CONTRACT, PARAMS.risk_free)[0])
    _, writer = expected_profits(PARAMS, CONTRACT, x, bs_call_price(PARAMS, CONTRACT))
    ok = abs(writer - (-0.25)) <= 0.01
    report(2, ok, "delta-hedge writer profit -0.25 +- 0.01", f"got {writer:.6f} at x={x:.6f}")
    assert ok


def test_criterion_03_physical_expected_call_vs_oracles():
    closed = expected_call_payoff_physical(PARAMS, CONTRACT)
    kink = -(d_plus_minus(PARAMS, CONTRACT, PARAMS.drift)[1])
    quad = quad_expectation(
        lambda z: np.maximum(
            terminal_price(PARAMS, CONTRACT.expiry, z, PARAMS.drift) - CONTRACT.strike, 0.0
        ),
        breakpoints=[kink],
    )
    quad_gap = rel_err(closed, quad)

    sample = simulate_terminal(PARAMS, CONTRACT.expiry, MC)
    payoff = np.maximum(sample - CONTRACT.strike, 0.0)
    se = float(payoff.std(ddof=1) / math.sqrt(payoff.size))
    mc_gap = abs(closed - float(payoff.mean()))

    holder_profit = closed - bs_call_price(PARAMS, CONTRACT) * math.exp(0.05)
    ok = quad_gap <= 1e-8 and mc_gap <= 3.0 * se and abs(holder_profit - 3.68) <= 0.01
    report(
        3,
        ok,
        "expected call payoff vs oracles",
        f"closed {closed:.6f}, quad rel err {quad_gap:.2e} (tol 1e-08), "
        f"MC gap {mc_gap:.4f} (3 SE = {3 * se:.4f}); holder profit {holder_profit:.4f} "
        f"(~3.68, consistent with the 10.45 price and -0.25 writer profit; the reference "
        f"table's 3.58 disagrees with its own numbers by {abs(holder_profit - 3.58):.3f} "
        f"and is treated as a typo)",
    )
    assert ok
    # The discrepancy is documented, not matched: the oracle-backed value
    # is far from 3.58.
    assert abs(holder_profit - 3.58) > 0.05


def test_criterion_04_equilibrium_quote():
    quote = minimize_writer_risk(PARAMS, CONTRACT)
    ok = abs(quote.x_star - 0.7212) <= 5e-4 and abs(quote.price - 12.10) <= 0.01
    report(4, ok, "equilibrium quote x*=0.7212, price 12.10",
           f"got x*={quote.x_star:.6f}, price {quote.price:.6f}")
    assert ok


def test_criterion_05_smile_table():
    strikes = [90.0, 95.0, 100.0, 105.0, 110.0, 115.0]
    want_prices = [18.89, 15.28, 12.10, 9.38, 7.12, 5.30]
    want_vols = [0.2743, 0.2567, 0.2438, 0.2342, 0.2272, 0.2220]
    points = volatility_smile(PARAMS, strikes, 1.0)
    price_errs = [abs(p.price - w) for p, w in zip(points, want_prices)]
    vol_errs = [abs(p.implied_vol - w) for p, w in zip(points, want_vols)]
    vols = [p.implied_vol for p in points]
    decreasing = all(b < a for a, b in zip(vols, vols[1:]))
    ok = (
        max(price_errs) <= 0.02
        and max(vol_errs) <= 5e-4
        and decreasing
        and all(p.error is None for p in points)
    )
    report(5, ok, "smile table prices +-0.02, vols +-0.05pp, decreasing",
           f"max price err {max(price_errs):.4f}, max vol err {max(vol_errs) * 100:.4f}pp, "
           f"strictly decreasing: {decreasing}")
    assert ok


def test_criterion_06_threshold_ordering_1000_draws():
    violations = 0
    for params, contract, x in draw_suite(1000, seed=2024):
        th = risk_thresholds(params, contract, x, fair_price(params, contract, x))
        if math.isfinite(th.d1) and not th.d1 < th.d:
            violations += 1
        elif not (th.d < th.d2 and th.d < th.d_prime):
            violations += 1
    ok = violations == 0
    report(6, ok, "cut ordering d1<d<d2 and d<d' on 1000 draws", f"{violations} violations")
    assert ok


def test_criterion_07_threshold_argument_monotonicity():
    violations = 0
    draws = 0
    for params, contract, _ in draw_suite(1000, seed=2025):
        upper = min(0.99, 0.99 * _RiskKernel(params, contract).x_max)
        if upper <= 0.02:
            continue
        draws += 1
        compounding = math.exp(params.risk_free * contract.expiry)
        xs = np.linspace(0.01, upper, 100)
        prices = np.array([fair_price(params, contract, float(x)) for x in xs])
        dead_call = (xs * params.spot - prices) * compounding / (params.spot * xs)
        live_call = (contract.strike + (prices - xs * params.spot) * compounding) / (
            params.spot * (1.0 - xs)
        )
        if np.any(np.diff(dead_call) < -1e-12) or np.any(np.diff(live_call) < -1e-12):
            violations += 1
    ok = violations == 0 and draws >= 900
    report(7, ok, "threshold log arguments increasing in x",
           f"{violations} violating draws out of {draws} (100-point grids)")
    assert ok


def test_criterion_08_risks_vs_oracles():
    worst = 0.0
    for params, contract, x in draw_suite(1000, seed=2026, threshold_window=7.0):
        rep = writer_risk(params, contract, x)
        prob_q, gamma_w_q, gamma_h_q = _quadrature_risks(params, contract, [rep])[0]
        worst = max(
            worst,
            rel_err(rep.loss_prob, prob_q),
            rel_err(rep.writer_risk, gamma_w_q),
            rel_err(rep.holder_risk, gamma_h_q),
        )
    quad_ok = worst <= 1e-8

    rep = minimize_writer_risk(PARAMS, CONTRACT).report
    _, w_est, h_est = mc_conditional_loss(PARAMS, CONTRACT, rep.x, rep.fair_price, MC)
    # The writer loses on exactly the paths counted in its positive losses.
    p_hat = w_est.n_effective / MC.paths
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / MC.paths)
    mc_ok = (
        abs(rep.loss_prob - p_hat) <= 3.5 * p_se
        and abs(rep.writer_risk - w_est.mean) <= 3.5 * w_est.std_error
        and abs(rep.holder_risk - h_est.mean) <= 3.5 * h_est.std_error
    )
    ok = quad_ok and mc_ok
    report(8, ok, "risks and loss prob vs quadrature (1000 draws) and MC",
           f"max quad rel err {worst:.2e} (tol 1e-08); MC gaps "
           f"{abs(rep.loss_prob - p_hat):.2e}/{abs(rep.writer_risk - w_est.mean):.2e}/"
           f"{abs(rep.holder_risk - h_est.mean):.2e} within 3.5 SE bands "
           f"{3.5 * p_se:.2e}/{3.5 * w_est.std_error:.2e}/{3.5 * h_est.std_error:.2e}")
    assert ok


def test_criterion_09_fair_play_identity():
    worst = 0.0
    for x in (0.0, 0.25, 0.5, 0.7212, 0.99):
        price = fair_price(PARAMS, CONTRACT, x)
        holder, writer = expected_profits(PARAMS, CONTRACT, x, price)
        worst = max(worst, abs(holder - writer))
    ok = worst <= 1e-10
    report(9, ok, "fair-play identity at the fair price", f"max |holder-writer| {worst:.2e}")
    assert ok


def test_criterion_10_implied_vol_round_trip():
    worst = 0.0
    for sigma in (0.05, 0.1, 0.2, 0.4, 1.0):
        trial = replace(PARAMS, volatility=sigma)
        recovered = implied_vol(trial, CONTRACT, bs_call_price(trial, CONTRACT))
        worst = max(worst, abs(recovered - sigma))
    ok = worst <= 1e-6
    report(10, ok, "implied vol round trip", f"max abs err {worst:.2e} (tol 1e-06)")
    assert ok
