"""Tests for equilibrium pricing, conditional-loss risks and the smile.

Closed forms are cross-checked three ways: frozen quadrature values for
the reference scenario, live quadrature on random draws, and seeded Monte
Carlo within standard-error bands.
"""

import importlib.util
import itertools
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fairhedge import (
    DegenerateLoss,
    DegenerateMarket,
    DomainError,
    EmptyDomain,
    ExpiredContract,
    MarketParams,
    McConfig,
    NonpositivePrice,
    NumericConfig,
    OptionContract,
    PricingError,
    expected_call_payoff_physical,
    expected_profits,
    fair_price,
    implied_vol,
    minimize_writer_risk,
    revalue_at_time,
    std_normal_cdf,
    volatility_smile,
    writer_risk,
)
from fairhedge import equilibrium
from fairhedge.equilibrium import risk_thresholds
from fairhedge.oracle import (
    mc_conditional_loss,
    quad_expectation,
    realized_losses,
    simulate_terminal,
    terminal_price,
)
from fairhedge.validation import _quadrature_risks, check_physical_parity, draw_suite, rel_err

OUTPUT_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"

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

    def test_price_crosses_zero_at_x_max(self):
        params = MarketParams(spot=100.0, drift=0.10, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=130.0, expiry=0.5)
        x_max = equilibrium._RiskKernel(params, contract).x_max
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
        # An infinite price, too: the profits would be (-inf, inf).
        with pytest.raises(ValueError, match=r"^price must be finite, got inf$"):
            expected_profits(ref_params, ref_contract, 0.5, math.inf)

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
        writer = realized_losses(ref_params, ref_contract, x, price, sample)[1]
        frequency = float((writer > 0).mean())
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

    def test_nonpositive_price_rejected(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match=r"^price must be positive, got 0\.0$"):
            risk_thresholds(ref_params, ref_contract, 0.5, 0.0)
        # An infinite price, too: d2 and d' would be inf.
        with pytest.raises(ValueError, match=r"^price must be finite, got inf$"):
            risk_thresholds(ref_params, ref_contract, 0.5, math.inf)

    def test_log_args_are_the_raw_arguments_of_the_cut_points(self, ref_params, ref_contract):
        # The d1 argument keeps its sign where the cover x S0 - price is
        # negative (x = 0.01), and is -inf at x = 0, where nothing divides by x.
        kernel = equilibrium._RiskKernel(ref_params, ref_contract)
        args = {x: kernel.log_args(x, kernel.fair_price(x)) for x in (0.0, 0.01, 0.7212)}
        assert args[0.0][0] == -math.inf and -math.inf < args[0.01][0] < 0 < args[0.7212][0]

        def cut(arg):
            return (math.log(arg) + kernel.shift) / kernel.sig_sqrt_t if arg > 0 else -math.inf

        for x, (d1_arg, d2_arg) in args.items():
            th = kernel.thresholds(x, kernel.fair_price(x))
            assert (th.d1, th.d2) == (cut(d1_arg), cut(d2_arg))

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
            return terminal_price(ref_params, 1.0, z, ref_params.drift)

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
        _, gamma_quad, _ = _quadrature_risks(ref_params, ref_contract, [report])[0]
        assert report.writer_risk == pytest.approx(gamma_quad, rel=1e-8)

    def test_unhedged_value_against_quadrature(self, ref_params, ref_contract):
        report = writer_risk(ref_params, ref_contract, 0.0)
        prob_quad, gamma_quad, _ = _quadrature_risks(ref_params, ref_contract, [report])[0]
        assert report.thresholds.d1 == -math.inf
        assert report.writer_risk == pytest.approx(gamma_quad, rel=1e-8)
        assert report.loss_prob == pytest.approx(prob_quad, rel=1e-8)

    def test_against_monte_carlo(self, ref_params, ref_contract):
        report = writer_risk(ref_params, ref_contract, 0.7212)
        cfg = McConfig(paths=1_000_000, seed=42)
        _, estimate, _ = mc_conditional_loss(ref_params, ref_contract, 0.7212, report.fair_price, cfg)
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
        _, writer, holder = realized_losses(ref_params, ref_contract, 0.7212, 12.1, terminal)
        for s, w, h in zip(terminal.tolist(), writer.tolist(), holder.tolist()):
            scalar = realized_losses(ref_params, ref_contract, 0.7212, 12.1, s)
            assert float(scalar[1]) == w
            assert float(scalar[2]) == h

    def test_underflowed_loss_probability_raises(self):
        # Unhedged, the writer loses only above d2 = 39, and N(-39) ~ 1e-333 underflows to 0.
        params = MarketParams(spot=100.0, drift=0.1, volatility=1.0, risk_free=0.05)
        contract = OptionContract(strike=100.0 * math.exp(38.6), expiry=1.0)
        with pytest.raises(DegenerateLoss, match="underflowed to zero at x=0.0"):
            writer_risk(params, contract, 0.0)

    def test_underflowed_holder_loss_probability_raises(self):
        # At sigma sqrt(T) = 1e-21, d' is about -4,554 and N(d') underflows to 0,
        # while the writer's loss probability is 1.
        params = MarketParams(spot=100.0, drift=0.051, volatility=1e-20, risk_free=0.05)
        contract = OptionContract(strike=1.0, expiry=0.01)
        kernel = equilibrium._RiskKernel(params, contract)
        assert kernel.lowest_risk((0.0,))[2][3] == 1.0
        message = "^holder loss probability underflowed to zero at x=0.0$"
        with pytest.raises(DegenerateLoss, match=message):
            writer_risk(params, contract, 0.0)


def exact_risks(params, contract, x):
    """(price, loss_prob, gamma_W, gamma_H) of the writer_risk docstring's closed forms,
    evaluated with 60-digit mpmath at the exact float inputs."""
    import mpmath

    with mpmath.workdps(60):
        s0, mu, sig, r, k, t, x = map(mpmath.mpf, (
            params.spot, params.drift, params.volatility, params.risk_free,
            contract.strike, contract.expiry, x,
        ))
        s, n = sig * mpmath.sqrt(t), mpmath.ncdf
        grown, compounding = s0 * mpmath.exp(mu * t), mpmath.exp(r * t)
        d_mu = (mpmath.log(s0 / k) + (mu + sig**2 / 2) * t) / s
        payoff = grown * n(d_mu) - k * n(d_mu - s)
        price = (payoff - x * (grown - s0 * compounding) / 2) / compounding
        shift = sig**2 * t / 2 - mu * t
        if x * s0 <= price:  # the writer cannot lose on a dead call
            d1 = -mpmath.inf
        else:
            d1 = (mpmath.log((x * s0 - price) * compounding / (s0 * x)) + shift) / s
        d2 = (mpmath.log((k + (price - x * s0) * compounding) / (s0 * (1 - x))) + shift) / s
        prob = n(d1) + n(-d2)
        partial_call = grown * n(-(d2 - s)) - k * n(-d2)
        partial_stock = grown * (n(d1 - s) + n(-(d2 - s)))
        gamma_w = (partial_call - x * partial_stock) / prob + (x * s0 - price) * compounding
        d = (mpmath.log(k / s0) + shift) / s
        d_prime = (mpmath.log((k + price * compounding) / s0) + shift) / s
        in_band = grown * (n(d_prime - s) - n(d - s)) - k * (n(d_prime) - n(d))
        gamma_h = price * compounding - in_band / n(d_prime)
        return tuple(float(v) for v in (price, prob, gamma_w, gamma_h))


def exact_writer_risk(params, contract, x):
    """gamma_W of the writer_risk docstring's closed forms, evaluated with 60-digit mpmath."""
    return exact_risks(params, contract, x)[2]


class TestHighPrecisionReference:
    """report against exact_risks, with one relative budget for price, loss
    probability and both risks, over the 150 markets of draw_suite(150, seed=7)."""

    BUDGET = 1e-9
    BOUNDARY = 83  # the one market of the sample whose quote sits on x_hi

    @staticmethod
    def relative_errors(params, contract, x):
        report = writer_risk(params, contract, x)
        got = (report.fair_price, report.loss_prob, report.writer_risk, report.holder_risk)
        exact = exact_risks(params, contract, x)
        names = ("price", "loss_prob", "writer_risk", "holder_risk")
        return {name: abs(g - e) / abs(e) for name, g, e in zip(names, got, exact)}

    def test_interior_quotes_and_fixed_fractions_are_within_the_budget(self):
        on_boundary, checked = [], 0
        for index, (params, contract, _) in enumerate(draw_suite(150, seed=7)):
            x_hi = equilibrium._RiskKernel(params, contract).x_hi
            x_star = minimize_writer_risk(params, contract).x_star
            fractions = [x for x in (0.25, 0.5) if x <= x_hi]
            if x_star == x_hi:
                on_boundary.append(index)
            else:
                fractions.append(x_star)
            for x in fractions:
                errors = self.relative_errors(params, contract, x)
                assert max(errors.values()) <= self.BUDGET, (index, x, errors)
                checked += 1
        assert on_boundary == [self.BOUNDARY]
        assert checked == 437

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 5: a quote on x_hi keeps a premium off by 8.0e-4 "
        "and a holder risk off by 2.0e-3",
    )
    def test_the_boundary_quote_is_within_the_budget(self):
        params, contract, _ = list(draw_suite(150, seed=7))[self.BOUNDARY]
        x_star = minimize_writer_risk(params, contract).x_star
        errors = self.relative_errors(params, contract, x_star)
        assert max(errors.values()) <= self.BUDGET, errors


class TestSubnormalLossProbability:
    """A loss probability below the normal float range is no loss probability."""

    def test_low_volatility_quote_has_a_positive_risk_at_a_normal_loss_probability(
        self, low_vol_market
    ):
        quote = minimize_writer_risk(*low_vol_market)
        assert quote.x_star == 0.98697314453125
        assert quote.report.loss_prob >= sys.float_info.min
        assert quote.report.writer_risk > 0.0
        # d2 carries a 3.6e-13 relative error into tails of N(-d2) ~ 1e-308, and
        # the risk is 1.8e-5 from terms near 100: the float value sits 1.09e-8 off.
        exact = exact_writer_risk(*low_vol_market, quote.x_star)
        assert quote.report.writer_risk == pytest.approx(exact, rel=2e-8)

    def test_the_unmended_quote_has_no_risk(self, low_vol_market):
        with pytest.raises(DegenerateLoss, match="underflowed to a subnormal .* at x=0.987279296875"):
            writer_risk(*low_vol_market, 0.987279296875)

    def test_no_low_volatility_quote_has_a_nonpositive_risk(self):
        # 15 of these 18 markets quoted a risk <= 0 at a subnormal loss probability.
        for mu, r, moneyness in itertools.product((0.06, 0.1, 0.2), (0.0, 0.05), (0.8, 0.9, 0.97)):
            params = MarketParams(spot=100.0, drift=mu, volatility=0.005, risk_free=r)
            report = minimize_writer_risk(params, OptionContract(100.0 * moneyness, 0.01)).report
            assert report.writer_risk > 0.0 and report.loss_prob >= sys.float_info.min, params


class TestHolderRisk:
    def test_reference_value_against_quadrature(self, ref_params, ref_contract):
        report = writer_risk(ref_params, ref_contract, 0.7212)
        assert report.holder_risk == pytest.approx(GAMMA_H_AT_X_STAR, rel=1e-12)
        _, _, gamma_quad = _quadrature_risks(ref_params, ref_contract, [report])[0]
        assert report.holder_risk == pytest.approx(gamma_quad, rel=1e-8)

    def test_capped_by_compounded_premium(self, ref_params, ref_contract):
        for x in (0.0, 0.25, 0.5, 0.7212, 0.99):
            price = fair_price(ref_params, ref_contract, x)
            assert 0.0 < writer_risk(ref_params, ref_contract, x).holder_risk < price * math.exp(0.05)

    def test_vanishing_strike_against_quadrature(self, ref_params):
        # K near zero: the holder only loses when S(T) falls below the
        # compounded premium plus the (tiny) strike.
        contract = OptionContract(strike=1e-6, expiry=1.0)
        report = writer_risk(ref_params, contract, 0.3)
        _, _, gamma_quad = _quadrature_risks(ref_params, contract, [report])[0]
        assert report.holder_risk == pytest.approx(gamma_quad, rel=1e-8)

    def test_against_monte_carlo(self, ref_params, ref_contract):
        value = writer_risk(ref_params, ref_contract, 0.7212).holder_risk
        price = fair_price(ref_params, ref_contract, 0.7212)
        cfg = McConfig(paths=1_000_000, seed=42)
        _, _, estimate = mc_conditional_loss(ref_params, ref_contract, 0.7212, price, cfg)
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


class TestCompassRefinement:
    """The best scan point, refined by compass steps that halve down to minimizer_tol / 2."""

    LAST_STEP = NumericConfig.minimizer_grid / 2**11

    def test_quote_beats_its_grid_and_both_last_step_neighbours(self, ref_params, ref_contract):
        markets = [(ref_params, ref_contract)]
        markets += [(params, contract) for params, contract, _ in draw_suite(24, seed=31)]
        step = NumericConfig.minimizer_grid
        for params, contract in markets:
            quote = minimize_writer_risk(params, contract)
            kernel = equilibrium._RiskKernel(params, contract)
            hi = kernel.x_hi
            grid = [i * step for i in range(int(hi / step) + 1)] + [hi]
            neighbours = (quote.x_star - self.LAST_STEP, quote.x_star + self.LAST_STEP)
            grid += [x for x in neighbours if 0.0 <= x <= hi]
            assert quote.report.writer_risk <= kernel.lowest_risk(grid)[0], (params, contract)

    def test_reference_quote_evaluates_the_writer_terms_1024_times(
        self, ref_params, ref_contract, monkeypatch
    ):
        # 1,001 scan points (1e-3 grid plus x_hi), 2 per halving level for 11 levels, 1 report.
        calls = count_points(monkeypatch)
        minimize_writer_risk(ref_params, ref_contract)
        assert len(calls) == 1024

    def test_a_flat_risk_is_quoted_at_zero(self, ref_params, ref_contract, monkeypatch):
        inject(monkeypatch, lambda x, terms: (*terms[:6], 1.0))
        assert minimize_writer_risk(ref_params, ref_contract).x_star == 0.0

    def test_a_pricing_error_is_never_quoted(self, ref_params, ref_contract, monkeypatch):
        # The unpatched quote is x* = 0.7212; a raising band around it counts as infinite risk.
        def failing_band(x, terms):
            return DegenerateLoss(f"band at x={x}") if 0.70 <= x <= 0.74 else terms

        inject(monkeypatch, failing_band)
        quote = minimize_writer_risk(ref_params, ref_contract)
        assert not 0.70 <= quote.x_star <= 0.74
        assert math.isfinite(quote.report.writer_risk)


def count_points(monkeypatch):
    """Every x that lowest_risk is given, in order; the real loop still scores them."""
    calls = []
    lowest_risk = equilibrium._RiskKernel.lowest_risk

    def counted(kernel, xs):
        xs = list(xs)
        calls.extend(xs)
        return lowest_risk(kernel, xs)

    monkeypatch.setattr(equilibrium._RiskKernel, "lowest_risk", counted)
    return calls


def inject(monkeypatch, terms_at):
    """Stand in for lowest_risk, so that x has the terms terms_at(x, its real terms) gives.

    Its real terms are a 7-tuple or the PricingError they raise, and so may
    terms_at's be. The stand-in keeps the loop's rule: x scores the last term,
    or inf for an error; the first x seeds the minimum and only a strictly
    lower risk replaces it.
    """
    lowest_risk = equilibrium._RiskKernel.lowest_risk

    def stand_in(kernel, xs):
        best_risk, best_x, best = math.inf, None, None
        for x in xs:
            terms = terms_at(x, lowest_risk(kernel, (x,))[2])
            risk = math.inf if isinstance(terms, PricingError) else terms[6]
            if risk < best_risk or best is None:
                best_risk, best_x, best = risk, x, terms
        return best_risk, best_x, best

    monkeypatch.setattr(equilibrium._RiskKernel, "lowest_risk", stand_in)


def tuple_min_search(params, contract, terms_at=None):
    """The minimizer's search as it ran before one loop scored the grid: (x*, report).

    A min over (risk, x) pairs of the whole grid list, then compass steps that
    each take the min of [best] and the in-domain pairs at x* - step and x* + step,
    so ties go to the smaller x. A point scores the gamma_W of source_writer_terms,
    or inf where they raise; terms_at, as in inject, replaces them first.
    """
    kernel = equilibrium._RiskKernel(params, contract)
    kernel.require_quotable()

    def risk_at(x):
        try:
            terms = source_writer_terms(kernel, x)
        except PricingError as exc:
            terms = exc
        if terms_at is not None:
            terms = terms_at(x, terms)
        return math.inf if isinstance(terms, PricingError) else terms[6]

    step, hi = NumericConfig.minimizer_grid, kernel.x_hi
    grid = [i * step for i in range(int(hi / step) + 1)]
    if grid[-1] < hi:
        grid.append(hi)
    best = min((risk_at(x), x) for x in grid)
    while step > NumericConfig.minimizer_tol / 2:
        step /= 2
        centre = best[1]
        best = min([best] + [(risk_at(x), x) for x in (centre - step, centre + step) if 0 <= x <= hi])
    return best[1], kernel.report(best[1])


def quote_bits(search, params, contract):
    """x* and every RiskReport field as float.hex, or the type and message of the error."""
    try:
        x_star, report = search(params, contract)
    except PricingError as exc:
        return type(exc).__name__, str(exc)
    cuts = report.thresholds
    values = [getattr(report, f.name) for f in fields(report) if f.name != "thresholds"]
    values += [getattr(cuts, f.name) for f in fields(cuts)]
    return [x_star.hex()] + [v.hex() for v in values]


def one_loop_search(params, contract):
    quote = minimize_writer_risk(params, contract)
    return quote.x_star, quote.report


class TestOneLoopScan:
    """The scan scores its grid in lowest_risk's one loop, with the bits of the tuple min."""

    def test_quotes_have_the_bits_of_the_tuple_min_search(self):
        """The quote pool of seed 1 and the low-volatility grid, whose loss probabilities
        reach the float floor; the pool depends on perfbench/workloads.py (see digest_inputs)."""
        markets, lowvol = digest_inputs()
        for sigma, t, moneyness, mu, r in itertools.product(*lowvol.values()):
            markets.append((MarketParams(spot=100.0, drift=mu, volatility=sigma, risk_free=r),
                            OptionContract(strike=100.0 * moneyness, expiry=t)))
        raised = 0
        for params, contract in markets:
            expected = quote_bits(tuple_min_search, params, contract)
            assert quote_bits(one_loop_search, params, contract) == expected, (params, contract)
            raised += isinstance(expected, tuple)
        assert len(markets) == 1024 + 1440 and 0 < raised < 1440, raised

    def test_an_off_grid_x_hi_is_scored_after_the_grid(self, ref_params, monkeypatch):
        # x_hi = 0.2621 is x_max (1 - 1e-12), off the 1e-3 grid, and x* = 0.0767 is interior.
        contract = OptionContract(strike=150.0, expiry=1.0)
        x_hi = equilibrium._RiskKernel(ref_params, contract).x_hi
        calls = count_points(monkeypatch)
        quote = minimize_writer_risk(ref_params, contract)
        points = int(x_hi / 1e-3) + 1
        assert (points, round(quote.x_star, 4)) == (263, 0.0767)
        assert len(calls) == points + 1 + 22 + 1
        assert calls[points - 1] < x_hi == calls[points] and calls[-1] == quote.x_star

    def test_a_compass_tie_goes_to_the_smaller_x(self, ref_params, ref_contract, monkeypatch):
        # Risk 0 on |x - 0.5| <= 3e-4 and 1 elsewhere: the scan stops at 0.5, and every
        # compass step whose lower trial lands in the band moves x* down to it.
        def band(x, terms):
            return (*terms[:6], 0.0 if abs(x - 0.5) <= 3e-4 else 1.0)

        x_star, _ = tuple_min_search(ref_params, ref_contract, band)
        assert 0.4997 <= x_star < 0.49975
        inject(monkeypatch, band)
        assert minimize_writer_risk(ref_params, ref_contract).x_star == x_star

    def test_a_grid_where_every_point_raises_reports_at_zero(
        self, ref_params, ref_contract, monkeypatch
    ):
        calls = []

        def raising(x, terms):
            calls.append(x)
            return DegenerateLoss(f"no risk at x={x}")

        inject(monkeypatch, raising)
        with pytest.raises(DegenerateLoss, match="no risk at x=0.0$"):
            minimize_writer_risk(ref_params, ref_contract)
        # 1,001 scan points, the 11 compass trials above 0 (those below are outside
        # the domain), and the report at x* = 0.
        assert len(calls) == 1001 + 11 + 1 and calls[-1] == 0.0

    def test_lowest_risk_scores_a_point_without_a_risk_as_inf(self, ref_params):
        # Strike 150: the fair price is nonpositive past x_max = 0.2621.
        kernel = equilibrium._RiskKernel(ref_params, OptionContract(strike=150.0, expiry=1.0))
        risks = {x: kernel.report(x).writer_risk for x in (0.05, 0.1, 0.2)}
        risk, x, terms = kernel.lowest_risk([0.05, 0.2, 0.1])
        assert (risk, x, terms) == (risks[0.1], 0.1, kernel.lowest_risk((0.1,))[2])
        assert kernel.lowest_risk([0.5, 0.2])[:2] == (risks[0.2], 0.2)
        with pytest.raises(NonpositivePrice) as caught:
            kernel.report(0.5)
        assert kernel.lowest_risk((0.5,))[0] == math.inf
        # The seed's error is kept, so the one-point case raises it.
        risk, x, error = kernel.lowest_risk([0.5, 0.6])
        assert (risk, x, type(error), str(error)) == (
            math.inf, 0.5, NonpositivePrice, str(caught.value)
        )


    def test_a_tie_in_lowest_risk_keeps_the_earlier_x(self, ref_params, ref_contract):
        # 0.0 and -0.0 are one hedge fraction with bit-equal terms, so their risks tie; the
        # sign of the x returned says which was kept. inject's stand-in has its own rule.
        kernel = equilibrium._RiskKernel(ref_params, ref_contract)
        for xs in ([0.0, -0.0], [-0.0, 0.0]):
            _, x, _ = kernel.lowest_risk(xs)
            assert math.copysign(1.0, x) == math.copysign(1.0, xs[0])


class TestDenseScan:
    """The quote is checked against a dense scan over the sampled domain, not assumed unimodal."""

    def test_no_point_of_a_1e_4_scan_is_below_the_quote(self, ref_params, ref_contract):
        # draw_suite(60, seed=41) holds everywhere, the worst (quoted - dense) / |dense|
        # being -7.9e-12; the 1e-9 is that of quote_grid_consistency.
        markets = [(ref_params, ref_contract)]
        markets += [(params, contract) for params, contract, _ in draw_suite(60, seed=41)]
        for params, contract in markets:
            kernel = equilibrium._RiskKernel(params, contract)
            hi = kernel.x_hi
            dense = kernel.lowest_risk([i * 1e-4 for i in range(int(hi / 1e-4) + 1)] + [hi])[0]
            quoted = minimize_writer_risk(params, contract).report.writer_risk
            assert math.isfinite(dense) and quoted <= dense + 1e-9, (params, contract, quoted)


def digest_inputs():
    """The quote pool of seed 1 as (params, contract) pairs, and the low-volatility grid's axes.

    Both are read through tools/output_digest.py. The pool comes from
    perfbench/workloads.py (its WORKLOADS["quote"], _params and _contract),
    so a change there must keep them, or change this helper. sys.path and
    sys.modules are restored: no `workloads` module outlives the call.
    """
    saved_path, saved_workloads = sys.path[:], sys.modules.get("workloads")
    try:
        spec = importlib.util.spec_from_file_location("output_digest", OUTPUT_DIGEST)
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        pool = digest.workloads
        markets = [(pool._params(m), pool._contract(m)) for m in pool.WORKLOADS["quote"](1).inputs]
        return markets, digest.LOWVOL
    finally:
        sys.path[:] = saved_path
        if saved_workloads is None:
            sys.modules.pop("workloads", None)
        else:
            sys.modules["workloads"] = saved_workloads


def source_writer_terms(kernel, x):
    """lowest_risk's terms at x, rebuilt from the statements its loop copies: fair_price,
    thresholds and std_normal_cdf, in the loop's own order of the remaining operations."""
    price = kernel.fair_price(x)
    cuts = kernel.thresholds(x, price)
    d1, d2, s = cuts.d1, cuts.d2, kernel.sig_sqrt_t
    loss_prob = std_normal_cdf(d1) + std_normal_cdf(-d2)
    if not loss_prob >= sys.float_info.min:
        raise DegenerateLoss(f"loss probability {loss_prob} at x={x}")
    upper_tail_shifted = std_normal_cdf(-(d2 - s))
    partial_call = kernel.grown_spot * upper_tail_shifted - kernel.strike * std_normal_cdf(-d2)
    partial_stock = kernel.grown_spot * (std_normal_cdf(d1 - s) + upper_tail_shifted)
    gamma_w = (
        partial_call / loss_prob
        - x * partial_stock / loss_prob
        + x * kernel.spot * kernel.compounding
        - price * kernel.compounding
    )
    return price, d1, d2, loss_prob, partial_call, partial_stock, gamma_w


class TestScanObjective:
    def test_a_point_scores_inf_exactly_where_the_report_raises(self):
        """The scan's objective over the 1e-3 grid to the hedge cap, past x_hi included: a
        point scores the report's writer risk, or inf, keeping the error, where it raises."""
        compared = raised = 0
        for params, contract, _ in draw_suite(24, seed=31):
            kernel = equilibrium._RiskKernel(params, contract)
            for i in range(int(equilibrium.MAX_HEDGE_FRACTION / 1e-3) + 1):
                x = i * 1e-3
                risk, _, terms = kernel.lowest_risk((x,))
                try:
                    report = writer_risk(params, contract, x)
                except PricingError as exc:
                    assert risk == math.inf and type(terms) is type(exc), (params, contract, x)
                    raised += 1
                    continue
                assert risk.hex() == report.writer_risk.hex(), (params, contract, x)
                compared += 1
        assert compared > 10_000 and raised > 1_000

    def test_the_loops_terms_keep_the_bits_of_fair_price_thresholds_and_the_cdf(self):
        """lowest_risk's loop computes what fair_price, thresholds and std_normal_cdf state;
        a point's terms are theirs as float.hex, or the same PricingError that they raise.

        Markets: the 1,024 of the quote pool of seed 1 and every third market of
        the low-volatility grid, whose loss probabilities reach the float floor;
        the pool depends on perfbench/workloads.py (see digest_inputs).
        Each market takes every 8th point of the 1e-3 grid up to the hedge cap,
        at an offset that turns with the market, plus its x_hi.
        """
        markets, lowvol = digest_inputs()
        for sigma, t, moneyness, mu, r in itertools.islice(
            itertools.product(*lowvol.values()), 0, None, 3
        ):
            markets.append((MarketParams(spot=100.0, drift=mu, volatility=sigma, risk_free=r),
                            OptionContract(strike=100.0 * moneyness, expiry=t)))
        last = int(equilibrium.MAX_HEDGE_FRACTION / 1e-3)
        compared, raised = 0, set()
        for index, (params, contract) in enumerate(markets):
            kernel = equilibrium._RiskKernel(params, contract)
            if kernel.below_premium_floor:  # never scanned; its x_hi can be below 0
                continue
            for x in [i * 1e-3 for i in range(index % 8, last + 1, 8)] + [kernel.x_hi]:
                got = kernel.lowest_risk((x,))[2]
                try:
                    expected = source_writer_terms(kernel, x)
                except PricingError as exc:
                    assert type(got) is type(exc), (params, contract, x)
                    raised.add(type(exc))
                    continue
                assert [v.hex() for v in got] == [v.hex() for v in expected], (params, contract, x)
                compared += 1
        assert compared > 150_000, compared
        assert raised == {NonpositivePrice, DegenerateLoss}

    def test_one_full_report_per_quote(self, ref_params, ref_contract, monkeypatch):
        calls = []
        report = equilibrium._RiskKernel.report

        def counted(kernel, x):
            calls.append(x)
            return report(kernel, x)

        monkeypatch.setattr(equilibrium._RiskKernel, "report", counted)
        quote = minimize_writer_risk(ref_params, ref_contract)
        assert calls == [quote.x_star]


class TestResultRecords:
    def records(self, params, contract):
        quote = minimize_writer_risk(params, contract)
        point = volatility_smile(params, [contract.strike], contract.expiry)[0]
        check = check_physical_parity(params, contract)
        return [quote, quote.report, quote.report.thresholds, point, check]

    def test_records_are_slotted(self, ref_params, ref_contract):
        for record in self.records(ref_params, ref_contract):
            assert not hasattr(record, "__dict__"), type(record).__name__
            with pytest.raises(FrozenInstanceError):
                setattr(record, fields(record)[0].name, 1.0)

    def test_records_refuse_an_undeclared_attribute(self, ref_params, ref_contract):
        # CPython 3.11 raises TypeError here, from the zero-argument super()
        # in the __setattr__ that frozen slotted dataclasses generate.
        untouched = self.records(ref_params, ref_contract)
        for record, twin in zip(self.records(ref_params, ref_contract), untouched):
            with pytest.raises((AttributeError, TypeError)):
                record.extra = 1.0
            assert record == twin and not hasattr(record, "extra"), type(record).__name__

    def test_records_keep_the_dataclass_protocols(self, ref_params, ref_contract):
        again = self.records(ref_params, ref_contract)
        for record, twin in zip(self.records(ref_params, ref_contract), again):
            assert record == twin and hash(record) == hash(twin)
            assert pickle.loads(pickle.dumps(record)) == record
            assert replace(record) == record
            assert type(record)(**{k: getattr(record, k) for k in asdict(record)}) == record
        quote, report, thresholds, point, _ = again
        assert asdict(quote)["report"]["thresholds"] == asdict(thresholds)
        assert replace(report, x=0.5) != report
        assert replace(point, error="E").error == "E"


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

    @pytest.mark.parametrize("k", [-900, -200, 200, 660, 900])
    def test_a_power_of_two_scale_of_spot_and_strikes_scales_the_smile(self, ref_params, k):
        # A power-of-two scale is exact, so every price scales to the bit. Without its
        # start in power-of-two units, the implied vol is nan at k = 660 and 900.
        scale = 2.0**k
        points = volatility_smile(ref_params, self.STRIKES, 1.0)
        scaled = volatility_smile(
            replace(ref_params, spot=ref_params.spot * scale), [s * scale for s in self.STRIKES], 1.0
        )
        for point, other in zip(points, scaled):
            assert other.x_star.hex() == point.x_star.hex() and other.error is None
            for name in ("price", "writer_risk", "holder_risk"):
                assert getattr(other, name) == getattr(point, name) * scale, (k, name)
            assert other.loss_prob.hex() == point.loss_prob.hex()
            assert abs(other.implied_vol - point.implied_vol) <= 1e-13

    def test_input_order_preserved(self, ref_params):
        shuffled = [105.0, 90.0, 115.0]
        points = volatility_smile(ref_params, shuffled, 1.0)
        assert [p.strike for p in points] == shuffled

    def test_unresolvable_strike_reported_not_raised(self, ref_params):
        points = volatility_smile(ref_params, [100.0, 1e6], 0.1)
        assert points[0].error is None
        assert points[1].error is not None
        assert "EmptyDomain" in points[1].error
        assert points[1].strike == 1e6
        for name in ("price", "x_star", "implied_vol", "writer_risk", "holder_risk", "loss_prob"):
            assert math.isnan(getattr(points[1], name)), name

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

    def test_non_finite_strike_rejected_by_name(self, ref_params):
        with pytest.raises(ValueError, match="^strike must be finite, got inf$"):
            volatility_smile(ref_params, [math.inf, 100.0], 1.0)


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
        (risks,) = _quadrature_risks(shifted_params, shifted_contract, [quote.report])
        prob_quad, gamma_quad, _ = risks
        assert quote.report.writer_risk == pytest.approx(gamma_quad, rel=1e-8)
        assert quote.report.loss_prob == pytest.approx(prob_quad, rel=1e-8)

    def test_expired_contract(self, ref_params, ref_contract):
        with pytest.raises(ExpiredContract):
            revalue_at_time(ref_params, ref_contract, 1.0, 100.0)

    def test_negative_time_rejected(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match="time"):
            revalue_at_time(ref_params, ref_contract, -0.1, 100.0)

    def test_nonpositive_spot_rejected(self, ref_params, ref_contract):
        with pytest.raises(ValueError, match=r"^spot_at_t must be positive, got 0\.0$"):
            revalue_at_time(ref_params, ref_contract, 0.5, 0.0)


class TestSuiteProperties:
    def test_closed_forms_match_quadrature_across_draws(self):
        """Loss probability and both risks vs quadrature, windowed draws."""
        worst = 0.0
        for params, contract, x in draw_suite(60, seed=23, threshold_window=7.0):
            report = writer_risk(params, contract, x)
            prob_q, gamma_w_q, gamma_h_q = _quadrature_risks(params, contract, [report])[0]
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
            upper = min(0.99, 0.99 * equilibrium._RiskKernel(params, contract).x_max)
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
