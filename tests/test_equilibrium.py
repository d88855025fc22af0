"""Tests for equilibrium pricing, conditional-loss risks and the smile.

Closed forms are cross-checked three ways: frozen quadrature values for
the reference scenario, live quadrature on random draws, and seeded Monte
Carlo within standard-error bands.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fairhedge import (
    DegenerateMarket,
    DomainError,
    EmptyDomain,
    ExpiredContract,
    MarketParams,
    McConfig,
    NonpositivePrice,
    NumericConfig,
    OptionContract,
    QuadConfig,
    expected_call_payoff_physical,
    expected_profits,
    fair_price,
    holder_loss,
    implied_vol,
    mc_conditional_loss,
    minimize_writer_risk,
    quad_expectation,
    risk_thresholds,
    revalue_at_time,
    simulate_terminal,
    volatility_smile,
    writer_loss,
    writer_risk,
)
from fairhedge.equilibrium import price_positive_x_max
from fairhedge.oracle import terminal_price
from fairhedge.validation import draw_suite, quadrature_risk, rel_err

# Frozen values for the reference scenario, verified against the
# quadrature oracle (agreement well under 1e-8 relative).
REF_EXPECTED_CALL = 14.665260653636608
FAIR_AT_0 = 13.950027451711716
FAIR_AT_HALF = 12.668250042311115
FAIR_AT_X_STAR = 12.101191716392288  # x = 0.7212
LOSS_PROB_AT_X_STAR = 0.3008380259431245
GAMMA_W_AT_X_STAR = 5.047978355281439
GAMMA_H_AT_X_STAR = 10.173921652397526


class TestFairPrice:
    def test_unhedged_price_is_discounted_expectation(self, ref_params, ref_contract):
        price = fair_price(ref_params, ref_contract, 0.0)
        expected = math.exp(-0.05) * expected_call_payoff_physical(ref_params, ref_contract)
        assert price == pytest.approx(expected, rel=1e-14)
        assert price == pytest.approx(FAIR_AT_0, rel=1e-12)

    def test_reference_values(self, ref_params, ref_contract):
        assert fair_price(ref_params, ref_contract, 0.5) == pytest.approx(FAIR_AT_HALF, rel=1e-12)
        assert fair_price(ref_params, ref_contract, 0.7212) == pytest.approx(12.10, abs=0.01)

    def test_strictly_decreasing_and_affine(self, ref_params, ref_contract):
        xs = [0.1, 0.3, 0.5]
        prices = [fair_price(ref_params, ref_contract, x) for x in xs]
        assert prices[0] > prices[1] > prices[2]
        second_difference = prices[0] - 2.0 * prices[1] + prices[2]
        assert abs(second_difference) <= 1e-10

    def test_slope_matches_hedge_cost(self, ref_params, ref_contract):
        edge = 100.0 * (math.exp(0.10) - math.exp(0.05)) * math.exp(-0.05)
        slope = (
            fair_price(ref_params, ref_contract, 0.6) - fair_price(ref_params, ref_contract, 0.4)
        ) / 0.2
        assert slope == pytest.approx(-0.5 * edge, rel=1e-10)

    def test_rejects_hedge_fraction_outside_unit_interval(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match="hedge fraction"):
            fair_price(ref_params, ref_contract, 1.0)
        with pytest.raises(ValueError, match="hedge fraction"):
            fair_price(ref_params, ref_contract, -0.1)

    def test_array_prices_equal_scalar_prices_bit_for_bit(self):
        """An array of x, as the monotonicity check passes, prices element by element."""
        for params, contract, _ in draw_suite(40, seed=25):
            upper = min(0.99, 0.99 * price_positive_x_max(params, contract))
            xs = np.linspace(0.0, upper, 100)
            scalar = [fair_price(params, contract, float(x)) for x in xs]
            assert fair_price(params, contract, xs).tolist() == scalar

    def test_array_prices_keep_the_scalar_domain_errors(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match="hedge fraction"):
            fair_price(ref_params, ref_contract, np.array([0.5, 1.0]))
        deep_otm = OptionContract(strike=300.0, expiry=0.25)
        with pytest.raises(NonpositivePrice):
            fair_price(ref_params, deep_otm, np.array([0.0, 0.5]))

    def test_price_crosses_zero_at_x_max(self):
        params = MarketParams(spot=100.0, drift=0.10, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=130.0, expiry=0.5)
        x_max = price_positive_x_max(params, contract)
        assert 0.0 < x_max < 1.0
        assert fair_price(params, contract, x_max * (1.0 - 1e-9)) > 0.0
        with pytest.raises(NonpositivePrice):
            fair_price(params, contract, min(x_max * (1.0 + 1e-9), 0.999))

    def test_deep_otm_price_collapses(self):
        # Premium of a far out-of-the-money short-dated call cannot cover
        # the hedge carry, so the fair price goes nonpositive.
        params = MarketParams(spot=100.0, drift=0.10, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=300.0, expiry=0.25)
        with pytest.raises(NonpositivePrice):
            fair_price(params, contract, 0.5)


class TestExpectedProfits:
    def test_delta_hedge_writer_profit(self, ref_params, ref_contract):
        """Hedging the reference call at its Black-Scholes delta and price
        leaves the writer about a quarter unit short on average."""
        from fairhedge import bs_call_price, d_plus_minus, std_normal_cdf

        x = std_normal_cdf(d_plus_minus(ref_params, ref_contract, 0.05)[0])
        price = bs_call_price(ref_params, ref_contract)
        holder, writer = expected_profits(ref_params, ref_contract, x, price)
        assert writer == pytest.approx(-0.25, abs=0.01)
        assert holder == pytest.approx(3.68, abs=0.01)

    def test_holder_profit_is_not_the_3_58_reference(self, ref_params, ref_contract):
        # The oracle-consistent holder profit is ~3.679; a reference table
        # lists 3.58, which is inconsistent with its own call price of
        # 10.45 (see the acceptance suite for the documented discrepancy).
        from fairhedge import bs_call_price

        price = bs_call_price(ref_params, ref_contract)
        holder, _ = expected_profits(ref_params, ref_contract, 0.5, price)
        assert holder == pytest.approx(3.678864203935822, rel=1e-10)
        assert abs(holder - 3.58) > 0.05

    def test_fair_price_equalizes_profits(self, ref_params, ref_contract):
        for x in (0.0, 0.2, 0.5, 0.7212, 0.99):
            price = fair_price(ref_params, ref_contract, x)
            holder, writer = expected_profits(ref_params, ref_contract, x, price)
            assert abs(holder - writer) <= 1e-10

    def test_profits_sum_to_hedge_edge(self, ref_params, ref_contract):
        for x in (0.1, 0.4, 0.8):
            holder, writer = expected_profits(ref_params, ref_contract, x, 11.0)
            edge = x * 100.0 * (math.exp(0.10) - math.exp(0.05))
            assert holder + writer == pytest.approx(edge, rel=1e-12)

    def test_writer_profit_affine_increasing_in_x(self, ref_params, ref_contract):
        writers = [expected_profits(ref_params, ref_contract, x, 10.0)[1] for x in (0.1, 0.3, 0.5)]
        assert writers[0] < writers[1] < writers[2]
        assert abs(writers[0] - 2.0 * writers[1] + writers[2]) <= 1e-10
        slope = (writers[2] - writers[0]) / 0.4
        assert slope == pytest.approx(100.0 * (math.exp(0.10) - math.exp(0.05)), rel=1e-10)

    def test_holder_profit_independent_of_x(self, ref_params, ref_contract):
        holders = {expected_profits(ref_params, ref_contract, x, 10.0)[0] for x in (0.0, 0.5, 0.9)}
        assert len(holders) == 1

    def test_rejects_nonpositive_price(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match="price"):
            expected_profits(ref_params, ref_contract, 0.5, 0.0)

    def test_full_hedge_accepted(self, ref_params, ref_contract):
        # A delta N(d+) that rounds to 1.0 is a valid hedge for the profit
        # formulas, which are affine in x; the risk formulas still need x < 1.
        holder, writer = expected_profits(ref_params, ref_contract, 1.0, 11.0)
        edge = 100.0 * (math.exp(0.10) - math.exp(0.05))
        assert holder + writer == pytest.approx(edge, rel=1e-12)
        with pytest.raises(ValueError, match="hedge fraction"):
            expected_profits(ref_params, ref_contract, 1.0 + 1e-12, 11.0)
        with pytest.raises(ValueError, match="hedge fraction"):
            writer_risk(ref_params, ref_contract, 1.0)


class TestRiskThresholds:
    def test_unhedged_writer_has_no_dead_call_loss(self, ref_params, ref_contract):
        price = fair_price(ref_params, ref_contract, 0.0)
        th = risk_thresholds(ref_params, ref_contract, 0.0, price)
        assert th.d1 == -math.inf

    def test_reference_ordering(self, ref_params, ref_contract):
        price = fair_price(ref_params, ref_contract, 0.7212)
        th = risk_thresholds(ref_params, ref_contract, 0.7212, price)
        assert math.isfinite(th.d1)
        assert th.d1 < th.d < th.d2
        assert th.d < th.d_prime
        # d has a hand-checkable value: (ln(K/S0) - mu T + sigma^2 T/2)/(sigma sqrt T)
        assert th.d == pytest.approx(-0.4, abs=1e-12)

    def test_loss_probability_matches_mc_frequency(self, ref_params, ref_contract):
        x = 0.7212
        price = fair_price(ref_params, ref_contract, x)
        th = risk_thresholds(ref_params, ref_contract, x, price)
        from fairhedge import std_normal_cdf

        prob = std_normal_cdf(th.d1) + std_normal_cdf(-th.d2)
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=1_000_000, seed=99))
        frequency = float((writer_loss(ref_params, ref_contract, x, price, sample) > 0).mean())
        se = math.sqrt(frequency * (1.0 - frequency) / sample.size)
        assert abs(prob - frequency) <= 3.0 * se

    def test_unhedged_d2_equals_holder_cut(self, ref_params, ref_contract):
        # With no shares the writer loses exactly when the holder wins, so
        # the x=0 writer cut coincides with d'.
        price = fair_price(ref_params, ref_contract, 0.0)
        th = risk_thresholds(ref_params, ref_contract, 0.0, price)
        assert th.d2 == pytest.approx(th.d_prime, rel=1e-14)

    def test_ordering_across_draws(self):
        for params, contract, x in draw_suite(300, seed=21):
            price = fair_price(params, contract, x)
            th = risk_thresholds(params, contract, x, price)
            if math.isfinite(th.d1):
                assert th.d1 < th.d
            assert th.d < th.d2
            assert th.d < th.d_prime

    def test_domain_error_on_underpriced_hedged_book(self, ref_params):
        # A price far below fair with a big stock position pushes the d2
        # log argument negative.
        contract = OptionContract(strike=10.0, expiry=1.0)
        with pytest.raises(DomainError):
            risk_thresholds(ref_params, contract, 0.9, 1.0)


class TestWriterPartialExpectations:
    def test_matches_quadrature(self, ref_params, ref_contract):
        x = 0.7212
        report = writer_risk(ref_params, ref_contract, x)
        th = report.thresholds
        partial_call, partial_stock = report.partial_call, report.partial_stock

        def terminal(z):
            return terminal_price(ref_params, 1.0, z)

        def in_loss_region(z):
            return (z <= th.d1) | (z > th.d2)

        call_oracle = quad_expectation(
            lambda z: np.maximum(terminal(z) - 100.0, 0.0) * in_loss_region(z),
            breakpoints=[th.d1, th.d, th.d2],
        )
        stock_oracle = quad_expectation(
            lambda z: terminal(z) * in_loss_region(z), breakpoints=[th.d1, th.d2]
        )
        assert partial_call == pytest.approx(call_oracle, rel=1e-8)
        assert partial_stock == pytest.approx(stock_oracle, rel=1e-8)

    def test_bounded_by_unconditional_expectations(self, ref_params, ref_contract):
        for x in (0.0, 0.3, 0.7212):
            report = writer_risk(ref_params, ref_contract, x)
            assert 0.0 <= report.partial_call <= REF_EXPECTED_CALL * (1 + 1e-12)
            assert 0.0 <= report.partial_stock <= 100.0 * math.exp(0.10) * (1 + 1e-12)


class TestWriterRisk:
    def test_reference_value_against_quadrature(self, ref_params, ref_contract):
        report = writer_risk(ref_params, ref_contract, 0.7212)
        assert report.writer_risk == pytest.approx(GAMMA_W_AT_X_STAR, rel=1e-12)
        assert report.loss_prob == pytest.approx(LOSS_PROB_AT_X_STAR, rel=1e-12)
        _, gamma_quad, _ = quadrature_risk(
            ref_params, ref_contract, 0.7212, report.fair_price, QuadConfig()
        )
        assert report.writer_risk == pytest.approx(gamma_quad, rel=1e-8)

    def test_unhedged_value_against_quadrature(self, ref_params, ref_contract):
        report = writer_risk(ref_params, ref_contract, 0.0)
        prob_quad, gamma_quad, _ = quadrature_risk(
            ref_params, ref_contract, 0.0, report.fair_price, QuadConfig()
        )
        assert report.thresholds.d1 == -math.inf
        assert report.writer_risk == pytest.approx(gamma_quad, rel=1e-8)
        assert report.loss_prob == pytest.approx(prob_quad, rel=1e-8)

    def test_against_monte_carlo(self, ref_params, ref_contract):
        report = writer_risk(ref_params, ref_contract, 0.7212)
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=1_000_000, seed=42))
        losses = writer_loss(ref_params, ref_contract, 0.7212, report.fair_price, sample)
        estimate = mc_conditional_loss(losses)
        assert abs(report.writer_risk - estimate.mean) <= 3.5 * estimate.std_error

    def test_positive_across_draws(self):
        for params, contract, x in draw_suite(200, seed=22):
            report = writer_risk(params, contract, x)
            assert report.writer_risk > 0.0
            assert report.holder_risk > 0.0
            assert 0.0 < report.loss_prob < 1.0

    def test_losses_of_scalar_terminal_prices_match_the_array_losses(
        self, ref_params, ref_contract
    ):
        terminal = np.array([60.0, 100.0, 131.5])
        writer = writer_loss(ref_params, ref_contract, 0.7212, 12.1, terminal)
        holder = holder_loss(ref_params, ref_contract, 12.1, terminal)
        for s, w, h in zip(terminal.tolist(), writer.tolist(), holder.tolist()):
            assert float(writer_loss(ref_params, ref_contract, 0.7212, 12.1, s)) == w
            assert float(holder_loss(ref_params, ref_contract, 12.1, s)) == h


class TestHolderRisk:
    def test_reference_value_against_quadrature(self, ref_params, ref_contract):
        value = writer_risk(ref_params, ref_contract, 0.7212).holder_risk
        assert value == pytest.approx(GAMMA_H_AT_X_STAR, rel=1e-12)
        price = fair_price(ref_params, ref_contract, 0.7212)
        _, _, gamma_quad = quadrature_risk(ref_params, ref_contract, 0.7212, price, QuadConfig())
        assert value == pytest.approx(gamma_quad, rel=1e-8)

    def test_capped_by_compounded_premium(self, ref_params, ref_contract):
        for x in (0.0, 0.25, 0.5, 0.7212, 0.99):
            price = fair_price(ref_params, ref_contract, x)
            assert 0.0 < writer_risk(ref_params, ref_contract, x).holder_risk < price * math.exp(0.05)

    def test_vanishing_strike_against_quadrature(self, ref_params):
        # K near zero: the holder only loses when S(T) falls below the
        # compounded premium plus the (tiny) strike.
        contract = OptionContract(strike=1e-6, expiry=1.0)
        value = writer_risk(ref_params, contract, 0.3).holder_risk
        price = fair_price(ref_params, contract, 0.3)
        _, _, gamma_quad = quadrature_risk(ref_params, contract, 0.3, price, QuadConfig())
        assert value == pytest.approx(gamma_quad, rel=1e-8)

    def test_against_monte_carlo(self, ref_params, ref_contract):
        value = writer_risk(ref_params, ref_contract, 0.7212).holder_risk
        price = fair_price(ref_params, ref_contract, 0.7212)
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=1_000_000, seed=42))
        estimate = mc_conditional_loss(holder_loss(ref_params, ref_contract, price, sample))
        assert abs(value - estimate.mean) <= 3.5 * estimate.std_error


class TestMinimizeWriterRisk:
    def test_reference_equilibrium(self, ref_params, ref_contract):
        quote = minimize_writer_risk(ref_params, ref_contract)
        assert quote.x_star == pytest.approx(0.7212, abs=5e-4)
        assert quote.price == pytest.approx(12.10, abs=0.01)
        assert quote.price == pytest.approx(fair_price(ref_params, ref_contract, quote.x_star))

    def test_reference_itm_strike(self, ref_params):
        quote = minimize_writer_risk(ref_params, OptionContract(strike=90.0, expiry=1.0))
        assert quote.price == pytest.approx(18.89, abs=0.02)

    def test_discrete_minimum_on_scan_grid(self, ref_params, ref_contract):
        quote = minimize_writer_risk(ref_params, ref_contract)
        best = quote.report.writer_risk
        for x in np.arange(0.0, 0.9991, 0.01):
            assert best <= writer_risk(ref_params, ref_contract, float(x)).writer_risk + 1e-12

    def test_empty_domain(self):
        params = MarketParams(spot=100.0, drift=0.10, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=1e6, expiry=0.1)
        with pytest.raises(EmptyDomain):
            minimize_writer_risk(params, contract)

    def test_premium_below_floor_is_not_quoted(self):
        # The expected payoff is 1.07e-113 here; quoting it would give
        # x* ~ 2e-112 at a premium of 5e-114 with d == d2 == d'.
        params = MarketParams(spot=1.0, drift=0.10, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=100.0, expiry=1.0)
        with pytest.raises(EmptyDomain, match="below 1e-08 of spot"):
            minimize_writer_risk(params, contract)

    def test_respects_minimizer_tolerance(self, ref_params, ref_contract):
        coarse = minimize_writer_risk(ref_params, ref_contract, NumericConfig(minimizer_tol=1e-4))
        fine = minimize_writer_risk(ref_params, ref_contract, NumericConfig(minimizer_tol=1e-8))
        assert abs(coarse.x_star - fine.x_star) <= 2e-4


class TestVolatilitySmile:
    STRIKES = [90.0, 95.0, 100.0, 105.0, 110.0, 115.0]
    PRICES = [18.89, 15.28, 12.10, 9.38, 7.12, 5.30]
    VOLS = [0.2743, 0.2567, 0.2438, 0.2342, 0.2272, 0.2220]

    def test_reference_table(self, ref_params):
        points = volatility_smile(ref_params, self.STRIKES, 1.0)
        for point, price, vol in zip(points, self.PRICES, self.VOLS):
            assert point.error is None
            assert point.price == pytest.approx(price, abs=0.02)
            assert point.implied_vol == pytest.approx(vol, abs=5e-4)

    def test_vols_strictly_decreasing_in_strike(self, ref_params):
        points = volatility_smile(ref_params, self.STRIKES, 1.0)
        vols = [p.implied_vol for p in points]
        assert all(b < a for a, b in zip(vols, vols[1:]))

    def test_single_strike_matches_quote_composition(self, ref_params, ref_contract):
        point = volatility_smile(ref_params, [100.0], 1.0)[0]
        quote = minimize_writer_risk(ref_params, ref_contract)
        assert point.price == quote.price
        assert point.x_star == quote.x_star
        assert point.implied_vol == implied_vol(ref_params, ref_contract, quote.price)

    def test_input_order_preserved(self, ref_params):
        shuffled = [105.0, 90.0, 115.0]
        points = volatility_smile(ref_params, shuffled, 1.0)
        assert [p.strike for p in points] == shuffled

    def test_unresolvable_strike_reported_not_raised(self, ref_params):
        points = volatility_smile(ref_params, [100.0, 1e6], 0.1)
        assert points[0].error is None
        assert points[1].error is not None
        assert "EmptyDomain" in points[1].error
        assert math.isnan(points[1].price)

    def test_degenerate_market_aborts_the_sweep(self):
        # A zero hedge edge holds at every strike, so no point is marked instead.
        params = MarketParams(spot=100.0, drift=1e-300, volatility=0.2, risk_free=0.0)
        with pytest.raises(DegenerateMarket, match="hedge edge"):
            volatility_smile(params, [90.0, 100.0], 1.0)

    def test_empty_strikes_rejected(self, ref_params):
        with pytest.raises(ValueError, match="strikes"):
            volatility_smile(ref_params, [], 1.0)

    def test_nonpositive_strike_rejected(self, ref_params):
        with pytest.raises(ValueError, match="strike"):
            volatility_smile(ref_params, [100.0, -5.0], 1.0)


class TestRevalueAtTime:
    def test_time_zero_is_identity(self, ref_params, ref_contract):
        assert revalue_at_time(ref_params, ref_contract, 0.0, 100.0) == minimize_writer_risk(
            ref_params, ref_contract
        )

    def test_reduces_to_short_dated_quote(self, ref_params, ref_contract):
        direct = minimize_writer_risk(ref_params, OptionContract(strike=100.0, expiry=0.5))
        revalued = revalue_at_time(ref_params, ref_contract, 0.5, 100.0)
        assert revalued == direct

    def test_shifted_quote_against_quadrature(self, ref_params, ref_contract):
        quote = revalue_at_time(ref_params, ref_contract, 0.5, 110.0)
        shifted_params = replace(ref_params, spot=110.0)
        shifted_contract = OptionContract(strike=100.0, expiry=0.5)
        prob_quad, gamma_quad, _ = quadrature_risk(
            shifted_params, shifted_contract, quote.x_star, quote.price, QuadConfig()
        )
        assert quote.report.writer_risk == pytest.approx(gamma_quad, rel=1e-8)
        assert quote.report.loss_prob == pytest.approx(prob_quad, rel=1e-8)

    def test_expired_contract(self, ref_params, ref_contract):
        with pytest.raises(ExpiredContract):
            revalue_at_time(ref_params, ref_contract, 1.0, 100.0)

    def test_negative_time_rejected(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match="time"):
            revalue_at_time(ref_params, ref_contract, -0.1, 100.0)


class TestSuiteProperties:
    def test_closed_forms_match_quadrature_across_draws(self):
        """Loss probability and both risks vs quadrature, windowed draws."""
        worst = 0.0
        for params, contract, x in draw_suite(60, seed=23, threshold_window=7.0):
            report = writer_risk(params, contract, x)
            prob_q, gamma_w_q, gamma_h_q = quadrature_risk(
                params, contract, x, report.fair_price, QuadConfig()
            )
            worst = max(
                worst,
                rel_err(report.loss_prob, prob_q),
                rel_err(report.writer_risk, gamma_w_q),
                rel_err(report.holder_risk, gamma_h_q),
            )
        assert worst <= 1e-8

    def test_threshold_argument_monotonicity(self):
        """The two log arguments behind d1 and d2 are increasing in x."""
        for params, contract, _ in draw_suite(100, seed=24):
            upper = min(0.99, 0.99 * price_positive_x_max(params, contract))
            if upper <= 0.02:
                continue
            compounding = math.exp(params.risk_free * contract.expiry)
            xs = np.linspace(0.01, upper, 100)
            prices = np.array([fair_price(params, contract, float(x)) for x in xs])
            dead_call = (xs * params.spot - prices) * compounding / (params.spot * xs)
            live_call = (contract.strike + (prices - xs * params.spot) * compounding) / (
                params.spot * (1.0 - xs)
            )
            assert np.all(np.diff(dead_call) >= -1e-12)
            assert np.all(np.diff(live_call) >= -1e-12)
