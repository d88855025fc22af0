"""Tests for the Black-Scholes analytics and drift-mu expectations.

Reference case: S=100, K=100, T=1, r=0.05, sigma=0.20 (call ~ 10.4506),
with drift mu=0.10 for the real-world expectations. Expectation values are
cross-checked against the quadrature engine and, for the normal CDF,
against mpmath evaluated at 30 digits.
"""

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairhedge.core as core
import fairhedge.equilibrium as eq

from fairhedge import (
    BracketExhausted,
    DegenerateMarket,
    MarketParams,
    NumericConfig,
    OptionContract,
    PriceOutOfBounds,
    bs_call_price,
    d_plus_minus,
    expected_call_payoff_physical,
    implied_vol,
    std_normal_cdf,
    volatility_smile,
)
from fairhedge.core import (
    _implied_vol_otm,
    _otm_price,
    expected_put_payoff_physical,
    rate_factors,
)
from fairhedge.oracle import quad_expectation
from fairhedge.validation import _ROUND_TRIP_SIGMAS, draw_suite

# Quadrature-derived values for the reference scenario, frozen from the
# oracle below (rel err of the closed forms against it is asserted too).
REF_EXPECTED_CALL = 14.665260653636608
REF_EXPECTED_PUT = 4.148168846071833

# High-precision CDF value from mpmath.ncdf at 30 digits.
N_035 = 0.6368306511756191


def quad_expected_payoff(params, contract, growth, kind="call"):
    """Quadrature oracle for E[(S(T)-K)^+] or E[(K-S(T))^+] at a growth rate."""
    t = contract.expiry
    loc = (growth - 0.5 * params.volatility**2) * t
    scale = params.volatility * math.sqrt(t)
    kink = -(d_plus_minus(params, contract, growth)[1])

    def payoff(z):
        s = params.spot * np.exp(loc + scale * z)
        gross = s - contract.strike if kind == "call" else contract.strike - s
        return np.maximum(gross, 0.0)

    return quad_expectation(payoff, breakpoints=[kink])


class TestDomainTypes:
    def test_rejects_nonpositive_spot(self):
        with pytest.raises(ValueError, match="spot"):
            MarketParams(spot=0.0, drift=0.1, volatility=0.2, risk_free=0.05)

    def test_rejects_nonpositive_volatility(self):
        with pytest.raises(ValueError, match="volatility"):
            MarketParams(spot=100.0, drift=0.1, volatility=0.0, risk_free=0.05)

    def test_rejects_drift_not_above_risk_free(self):
        with pytest.raises(ValueError, match="drift"):
            MarketParams(spot=100.0, drift=0.05, volatility=0.2, risk_free=0.05)

    def test_rejects_bad_contract(self):
        with pytest.raises(ValueError, match="strike"):
            OptionContract(strike=0.0, expiry=1.0)
        with pytest.raises(ValueError, match="expiry"):
            OptionContract(strike=100.0, expiry=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["spot", "drift", "volatility", "risk_free", "strike", "expiry"])
    def test_rejects_non_finite_field_naming_it(self, field, value):
        fields = {"spot": 100.0, "drift": 0.1, "volatility": 0.2, "risk_free": 0.05,
                  "strike": 100.0, "expiry": 1.0}
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            MarketParams(**{k: fields[k] for k in ("spot", "drift", "volatility", "risk_free")})
            OptionContract(strike=fields["strike"], expiry=fields["expiry"])

    def test_numeric_config_is_a_fixed_record(self):
        cfg = NumericConfig()
        assert (cfg.vol_bracket, cfg.minimizer_grid, cfg.minimizer_tol) == ((1e-4, 5.0), 1e-3, 1e-6)
        with pytest.raises(TypeError):
            NumericConfig(minimizer_grid=1e-4)
        with pytest.raises(AttributeError):
            cfg.minimizer_grid = 1e-4
        assert not hasattr(cfg, "root_tol")


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_limits(self):
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_reference_value(self):
        assert std_normal_cdf(0.35) == pytest.approx(N_035, abs=1e-14)

    def test_against_mpmath_grid(self):
        """Absolute error below 1e-12 against a 30-digit evaluation."""
        import mpmath

        mpmath.mp.dps = 30
        for z in np.linspace(-8.0, 8.0, 161):
            exact = float(mpmath.ncdf(mpmath.mpf(float(z))))
            assert abs(std_normal_cdf(float(z)) - exact) <= 1e-12

    def test_monotone_nondecreasing(self):
        grid = np.linspace(-12.0, 12.0, 2001)
        values = [std_normal_cdf(float(z)) for z in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestDPlusMinus:
    def test_risk_free_growth(self, ref_params, ref_contract):
        d_plus, d_minus = d_plus_minus(ref_params, ref_contract, 0.05)
        assert d_plus == pytest.approx(0.35, abs=1e-12)
        assert d_minus == pytest.approx(0.15, abs=1e-12)

    def test_drift_growth(self, ref_params, ref_contract):
        d_plus, d_minus = d_plus_minus(ref_params, ref_contract, 0.10)
        assert d_plus == pytest.approx(0.60, abs=1e-12)
        assert d_minus == pytest.approx(0.40, abs=1e-12)

    def test_cancelling_numerator(self, ref_params, ref_contract):
        """growth*T = -sigma^2 T / 2 makes d_plus vanish at the money."""
        d_plus, _ = d_plus_minus(ref_params, ref_contract, -0.02)
        assert d_plus == pytest.approx(0.0, abs=1e-14)

    # 1.5e154 squares past the float range while 0.5 sigma^2 still fits.
    @pytest.mark.parametrize("sigma, expiry", [(1e300, 1.0), (1.5e154, 1.0), (1e154, 4.0)])
    def test_overflowing_sigma_squared_t_is_a_domain_error(self, ref_contract, sigma, expiry):
        params = MarketParams(spot=100.0, drift=0.1, volatility=sigma, risk_free=0.05)
        with pytest.raises(DegenerateMarket, match="sigma\\^2 T overflows"):
            d_plus_minus(params, replace(ref_contract, expiry=expiry), params.drift)

    def test_gap_is_sigma_root_t(self):
        for params, contract, _ in draw_suite(50, seed=11):
            d_plus, d_minus = d_plus_minus(params, contract, params.drift)
            gap = params.volatility * math.sqrt(contract.expiry)
            assert d_plus - d_minus == pytest.approx(gap, rel=1e-12)


class TestRateFactors:
    def test_factors_are_the_three_exponentials(self, ref_params):
        assert rate_factors(ref_params, 2.0) == (math.exp(0.2), math.exp(0.1), math.exp(-0.1))

    @pytest.mark.parametrize(
        "drift, risk_free, expiry",
        [(800.0, 0.05, 1.0), (0.1, 0.05, 20_000.0), (0.1, -800.0, 1.0)],
        ids=["growth-overflows", "long-horizon", "discount-overflows"],
    )
    def test_factor_outside_the_float_range_is_a_domain_error(self, drift, risk_free, expiry):
        params = MarketParams(spot=100.0, drift=drift, volatility=0.2, risk_free=risk_free)
        contract = OptionContract(strike=100.0, expiry=expiry)
        for compute in (bs_call_price, expected_call_payoff_physical, expected_put_payoff_physical):
            with pytest.raises(DegenerateMarket, match="growth factors"):
                compute(params, contract)


class TestBsCallPrice:
    def test_reference_price(self, ref_params, ref_contract):
        assert bs_call_price(ref_params, ref_contract) == pytest.approx(10.45, abs=5e-3)

    def test_worthless_strike_is_the_stock(self, ref_params):
        price = bs_call_price(ref_params, OptionContract(strike=1e-9, expiry=1.0))
        assert price == pytest.approx(100.0, abs=1e-6)

    def test_matches_quadrature_out_of_the_money(self, ref_params):
        contract = OptionContract(strike=120.0, expiry=1.0)
        oracle = math.exp(-0.05) * quad_expected_payoff(ref_params, contract, 0.05)
        assert bs_call_price(ref_params, contract) == pytest.approx(oracle, rel=1e-8)

    def test_increasing_in_volatility(self, ref_params, ref_contract):
        prices = [
            bs_call_price(replace(ref_params, volatility=sig), ref_contract)
            for sig in np.linspace(0.05, 1.0, 20)
        ]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_decreasing_in_strike(self, ref_params):
        prices = [
            bs_call_price(ref_params, OptionContract(strike=k, expiry=1.0))
            for k in np.linspace(60.0, 160.0, 21)
        ]
        assert all(b < a for a, b in zip(prices, prices[1:]))

    def test_inside_no_arbitrage_bounds(self):
        # Strict bounds need a representable time value, so moneyness is
        # kept moderate; deep-ITM low-vol corners collapse to the intrinsic
        # value at double precision.
        for params, contract, _ in draw_suite(100, seed=12):
            price = bs_call_price(params, contract)
            lower = max(
                params.spot - contract.strike * math.exp(-params.risk_free * contract.expiry),
                0.0,
            )
            assert lower - 1e-12 * params.spot <= price < params.spot
        params = MarketParams(spot=100.0, drift=0.1, volatility=0.2, risk_free=0.05)
        for strike in np.linspace(80.0, 120.0, 9):
            contract = OptionContract(strike=float(strike), expiry=1.0)
            lower = max(100.0 - strike * math.exp(-0.05), 0.0)
            assert lower < bs_call_price(params, contract) < 100.0


class TestPhysicalExpectations:
    def test_reference_call_value(self, ref_params, ref_contract):
        value = expected_call_payoff_physical(ref_params, ref_contract)
        assert value == pytest.approx(REF_EXPECTED_CALL, rel=1e-12)
        oracle = quad_expected_payoff(ref_params, ref_contract, 0.10)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_reference_put_value(self, ref_params, ref_contract):
        value = expected_put_payoff_physical(ref_params, ref_contract)
        assert value == pytest.approx(REF_EXPECTED_PUT, rel=1e-12)
        oracle = quad_expected_payoff(ref_params, ref_contract, 0.10, kind="put")
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_drift_equal_rate_reduces_to_compounded_bs(self, ref_params, ref_contract):
        # Test-only bypass of the drift > risk_free invariant: with mu = r
        # the expectation is exactly the compounded Black-Scholes price.
        degenerate = replace(ref_params, drift=0.05 + 1e-12)
        object.__setattr__(degenerate, "drift", 0.05)
        value = expected_call_payoff_physical(degenerate, ref_contract)
        expected = math.exp(0.05) * bs_call_price(ref_params, ref_contract)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_worthless_strike_gives_lognormal_mean(self, ref_params):
        contract = OptionContract(strike=1e-9, expiry=1.0)
        value = expected_call_payoff_physical(ref_params, contract)
        assert value == pytest.approx(100.0 * math.exp(0.10), abs=1e-6)

    def test_worthless_strike_put_is_zero(self, ref_params):
        contract = OptionContract(strike=1e-9, expiry=1.0)
        assert expected_put_payoff_physical(ref_params, contract) == pytest.approx(0.0, abs=1e-12)

    def test_deep_itm_put(self, ref_params):
        """With K=1000 the put pays K - S(T) almost surely."""
        contract = OptionContract(strike=1000.0, expiry=1.0)
        value = expected_put_payoff_physical(ref_params, contract)
        assert value == pytest.approx(1000.0 - 100.0 * math.exp(0.10), rel=1e-12)
        oracle = quad_expected_payoff(ref_params, contract, 0.10, kind="put")
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_parity_across_draws(self):
        """call - put = S0 e^{mu T} - K to 1e-10 relative."""
        for params, contract, _ in draw_suite(200, seed=13):
            call = expected_call_payoff_physical(params, contract)
            put = expected_put_payoff_physical(params, contract)
            forward = params.spot * math.exp(params.drift * contract.expiry) - contract.strike
            scale = max(1.0, abs(call), abs(put))
            assert abs(call - put - forward) <= 1e-10 * scale

    def test_beats_compounded_bs_price_across_draws(self):
        """Positive drift edge: E[(S-K)^+] > e^{rT} C_BS whenever mu > r."""
        for params, contract, _ in draw_suite(200, seed=14):
            compounded = math.exp(params.risk_free * contract.expiry) * bs_call_price(
                params, contract
            )
            assert expected_call_payoff_physical(params, contract) > compounded

    def test_all_three_match_quadrature_across_draws(self):
        for params, contract, _ in draw_suite(50, seed=15):
            t = contract.expiry
            bs_oracle = math.exp(-params.risk_free * t) * quad_expected_payoff(
                params, contract, params.risk_free
            )
            call_oracle = quad_expected_payoff(params, contract, params.drift)
            put_oracle = quad_expected_payoff(params, contract, params.drift, kind="put")
            assert bs_call_price(params, contract) == pytest.approx(bs_oracle, rel=1e-8)
            assert expected_call_payoff_physical(params, contract) == pytest.approx(
                call_oracle, rel=1e-8
            )
            assert expected_put_payoff_physical(params, contract) == pytest.approx(
                put_oracle, rel=1e-8, abs=1e-10
            )

    def test_an_overflowing_grown_spot_is_a_domain_error(self):
        # e^(mu T) = e is finite; S0 e^(mu T) is not, so no expected payoff is.
        params = MarketParams(spot=1e308, drift=0.1, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=90.0, expiry=10.0)
        for compute in (expected_call_payoff_physical, expected_put_payoff_physical):
            with pytest.raises(DegenerateMarket, match=r"S0 e\^\(mu T\) overflows"):
                compute(params, contract)


class TestImpliedVol:
    def test_reference_round_trip(self, ref_params, ref_contract):
        vol = implied_vol(ref_params, ref_contract, 10.45)
        assert vol == pytest.approx(0.20, abs=1e-3)

    def test_reference_equilibrium_price(self, ref_params, ref_contract):
        vol = implied_vol(ref_params, ref_contract, 12.10)
        assert vol == pytest.approx(0.2438, abs=5e-4)

    def test_price_at_spot_rejected(self, ref_params, ref_contract):
        with pytest.raises(PriceOutOfBounds):
            implied_vol(ref_params, ref_contract, 100.0)

    def test_price_below_intrinsic_rejected(self, ref_params):
        contract = OptionContract(strike=50.0, expiry=1.0)
        floor = 100.0 - 50.0 * math.exp(-0.05)
        with pytest.raises(PriceOutOfBounds):
            implied_vol(ref_params, contract, floor - 0.5)

    def test_nonpositive_price_rejected(self, ref_params, ref_contract):
        with pytest.raises(PriceOutOfBounds):
            implied_vol(ref_params, ref_contract, 0.0)

    def test_bracket_exhausted(self, ref_params):
        # Vols above and below the bracket (1e-4, 5): sigma = 6 at the money,
        # and sigma = 5e-5 at the forward strike, whose price stays well
        # above its no-arbitrage floor, so neither is PriceOutOfBounds.
        for sigma, strike in ((6.0, 100.0), (5e-5, 100.0 * math.exp(0.05))):
            contract = OptionContract(strike=strike, expiry=1.0)
            price = bs_call_price(replace(ref_params, volatility=sigma), contract)
            with pytest.raises(BracketExhausted):
                implied_vol(ref_params, contract, price)

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2, 0.4, 1.0])
    def test_round_trip_within_1e6(self, ref_params, ref_contract, sigma):
        trial = replace(ref_params, volatility=sigma)
        recovered = implied_vol(trial, ref_contract, bs_call_price(trial, ref_contract))
        assert abs(recovered - sigma) <= 1e-6

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1e-300])
    def test_round_trip_at_an_extreme_price_scale(self, ref_params, scale):
        # Corrado-Miller's start squares prices; past about 1e154 the squares overflowed to nan.
        params = replace(ref_params, spot=scale)
        contract = OptionContract(strike=scale, expiry=1.0)
        assert abs(implied_vol(params, contract, bs_call_price(params, contract)) - 0.2) <= 1e-12

    def test_round_trip_away_from_the_money(self, ref_params):
        for strike in (70.0, 130.0):
            contract = OptionContract(strike=strike, expiry=0.5)
            price = bs_call_price(ref_params, contract)
            assert implied_vol(ref_params, contract, price) == pytest.approx(0.20, abs=1e-6)

    def test_solved_price_matches_within_root_tol(self, ref_params, ref_contract):
        vol = implied_vol(ref_params, ref_contract, 12.10)
        reproduced = bs_call_price(replace(ref_params, volatility=vol), ref_contract)
        assert abs(reproduced - 12.10) <= 1e-9

    def test_smile_inversions_take_few_prices(self, monkeypatch):
        # 45 is the price count of a bisection down to a 1e-12 wide interval.
        counts, prices = [], [0]
        pricer, invert = core._otm_price_vega, eq.implied_vol

        def counted_pricer(*args):
            prices[0] += 1
            return pricer(*args)

        def recorded_invert(*args):
            prices[0] = 0
            vol = invert(*args)
            counts.append(prices[0])
            return vol

        monkeypatch.setattr(core, "_otm_price_vega", counted_pricer)
        monkeypatch.setattr(eq, "implied_vol", recorded_invert)
        for params, contract, _ in draw_suite(24):
            strikes = (params.spot * np.linspace(0.5, 1.5, 50)).tolist()
            volatility_smile(params, strikes, contract.expiry)
        assert len(counts) > 24 * 40
        assert statistics.median(counts) <= 8
        assert max(counts) <= 45


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(
    spot=st.floats(50.0, 200.0),
    moneyness=st.floats(0.5, 1.5),
    risk_free=st.floats(0.0, 0.08),
    expiry=st.floats(0.1, 3.0),
    sigma=st.sampled_from(_ROUND_TRIP_SIGMAS),
)
def test_out_of_the_money_round_trip_over_the_drawn_domain(
    spot, moneyness, risk_free, expiry, sigma
):
    """draw_suite's market ranges x the round-trip check's trial sigmas.

    The drift does not enter a price, so it is fixed inside draw_suite's range.
    """
    params = MarketParams(spot, risk_free + 0.1, sigma, risk_free)
    contract = OptionContract(strike=spot * moneyness, expiry=expiry)
    price = _otm_price(params, contract)
    if price == 0.0:
        with pytest.raises(PriceOutOfBounds):
            _implied_vol_otm(params, contract, price)
    else:
        assert abs(_implied_vol_otm(params, contract, price) - sigma) <= 1e-10
