"""Black-Scholes analytics and real-world (drift mu) expectations.

The stock follows geometric Brownian motion with drift mu under the
real-world measure and drift r under the risk-neutral one, so the terminal
price is S(T) = S0 * exp((g - sigma^2/2) T + sigma sqrt(T) Z) with Z
standard normal and g the relevant growth rate. Everything here is a scalar
closed form built from the standard normal CDF:

- rate_factors:     e^{mu T}, e^{rT} and e^{-rT}, the one place they are formed
- d_plus_minus:     the d+/d- pair for an arbitrary growth rate
- bs_call_price:    risk-neutral Black-Scholes call price
- expected_call_payoff_physical / expected_put_payoff_physical:
                    undiscounted expected payoffs under the drift-mu measure
- implied_vol:      inversion of bs_call_price in sigma, by safeguarded Newton
                    on the price of the out-of-the-money option

Rates are annual with continuous compounding; times are in years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketExhausted, DegenerateMarket, PriceOutOfBounds

__all__ = [
    "MarketParams",
    "OptionContract",
    "NumericConfig",
    "McConfig",
    "std_normal_cdf",
    "rate_factors",
    "d_plus_minus",
    "bs_call_price",
    "expected_call_payoff_physical",
    "expected_put_payoff_physical",
    "implied_vol",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_finite(record, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class MarketParams:
    """Market environment under the real-world measure.

    Attributes:
        spot: Current stock price S0, must be positive.
        drift: Annual drift mu of the stock under the real-world measure.
        volatility: Annual volatility sigma, must be positive.
        risk_free: Annual risk-free rate r.

    Every field must be finite. The buyer's premise drift > risk_free is a
    standing assumption of the whole model; construction fails if it does
    not hold.
    """

    spot: float
    drift: float
    volatility: float
    risk_free: float

    def __post_init__(self) -> None:
        _check_finite(self, ("spot", "drift", "volatility", "risk_free"))
        if not self.spot > 0:
            raise ValueError(f"spot must be positive, got {self.spot}")
        if not self.volatility > 0:
            raise ValueError(f"volatility must be positive, got {self.volatility}")
        if not self.drift > self.risk_free:
            raise ValueError(
                f"drift must exceed risk_free, got drift={self.drift} "
                f"risk_free={self.risk_free}"
            )


@dataclass(frozen=True)
class OptionContract:
    """European call contract: finite strike K and expiry T in years, both positive."""

    strike: float
    expiry: float

    def __post_init__(self) -> None:
        _check_finite(self, ("strike", "expiry"))
        if not self.strike > 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not self.expiry > 0:
            raise ValueError(f"expiry must be positive, got {self.expiry}")


class NumericConfig:
    """The fixed tolerances and search settings of the numeric routines.

    A read-only record: it takes no arguments and its instances hold no state.

    Attributes:
        vol_bracket: Volatility interval that brackets the implied-vol solver's
            Newton iteration; a root outside it raises BracketExhausted.
        minimizer_grid: Step of the coarse scan that the refinement starts from.
        minimizer_tol: The refinement halves its step until it is at most half this.
    """

    __slots__ = ()
    vol_bracket = (1e-4, 5.0)
    minimizer_grid = 1e-3
    minimizer_tol = 1e-6


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo sample size and seed of the oracles in fairhedge.oracle.

    Paths are generated in chunks of oracle._CHUNK paths, each chunk from its
    own stream derived from (seed, chunk index), so the sample is defined
    bit for bit by (paths, seed), no matter how chunks are scheduled. The
    chunk is the unit of the random stream; the work and the memory of a
    pass come in blocks of oracle._BLOCK paths drawn in turn from that stream.
    """

    paths: int = 1_000_000
    seed: int = 12345

    def __post_init__(self) -> None:
        for name, value in (("paths", self.paths), ("seed", self.seed)):
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF N(z), accurate to well below 1e-12 absolute.

    Evaluated through the complementary error function, which keeps full
    relative precision in the tails; +-infinity map to 1 and 0.
    """
    return 0.5 * math.erfc(-z / _SQRT2)


def rate_factors(params: MarketParams, expiry: float) -> tuple[float, float, float]:
    """Growth e^{mu T}, compounding e^{rT} and discount e^{-rT} over the horizon.

    Raises:
        DegenerateMarket: If a factor overflows or underflows to zero, so no
            price or risk over this horizon has floating-point meaning.
    """
    mu_t, r_t = params.drift * expiry, params.risk_free * expiry
    try:
        growth, compounding, discount = math.exp(mu_t), math.exp(r_t), math.exp(-r_t)
    except OverflowError:
        growth = compounding = discount = math.inf
    if not (
        0.0 < growth < math.inf and 0.0 < compounding < math.inf and 0.0 < discount < math.inf
    ):
        raise DegenerateMarket(
            f"growth factors leave the float range: drift*T = {mu_t}, risk_free*T = {r_t}"
        )
    return growth, compounding, discount


def _sig_sqrt_t(sigma: float, expiry: float) -> float:
    """sigma sqrt(T); DegenerateMarket if sigma^2 T overflows or sigma sqrt(T) underflows to zero.

    No d+- has floating-point meaning in either case.
    """
    if not math.isfinite(sigma * sigma * expiry):
        raise DegenerateMarket(f"sigma^2 T overflows: sigma = {sigma}, T = {expiry}")
    sig_sqrt_t = sigma * math.sqrt(expiry)
    if sig_sqrt_t == 0.0:
        raise DegenerateMarket(f"sigma*sqrt(T) underflows to zero: sigma = {sigma}, T = {expiry}")
    return sig_sqrt_t


def d_plus_minus(
    params: MarketParams, contract: OptionContract, growth: float
) -> tuple[float, float]:
    """The d+ and d- arguments for an arbitrary growth rate.

    d+- = [ln(S0/K) + growth*T +- sigma^2 T / 2] / (sigma sqrt(T))

    With growth = risk_free these are the Black-Scholes arguments; with
    growth = drift they parameterize real-world exercise probabilities.
    d+ - d- equals sigma*sqrt(T) exactly.

    Args:
        params: Market environment.
        contract: Strike and expiry.
        growth: Growth rate to use (typically params.risk_free or params.drift).

    Returns:
        Tuple (d_plus, d_minus).
    """
    sig, t = params.volatility, contract.expiry
    sig_sqrt_t = _sig_sqrt_t(sig, t)
    d_plus = (
        math.log(params.spot / contract.strike) + growth * t + 0.5 * sig * sig * t
    ) / sig_sqrt_t
    return d_plus, d_plus - sig_sqrt_t


def bs_call_price(params: MarketParams, contract: OptionContract) -> float:
    """Black-Scholes price of the European call.

    C = S0 N(d+) - K e^{-rT} N(d-), with d+- taken at the risk-free rate.
    """
    d_plus, d_minus = d_plus_minus(params, contract, params.risk_free)
    discount = rate_factors(params, contract.expiry)[2]
    return params.spot * std_normal_cdf(d_plus) - discount * contract.strike * std_normal_cdf(d_minus)


def _grown_spot(params: MarketParams, expiry: float) -> float:
    """S0 e^{mu T}; DegenerateMarket if it overflows, so no expected payoff is finite."""
    grown_spot = params.spot * rate_factors(params, expiry)[0]
    if grown_spot == math.inf:
        raise DegenerateMarket(
            f"S0 e^(mu T) overflows: spot = {params.spot}, drift*T = {params.drift * expiry}"
        )
    return grown_spot


def expected_call_payoff_physical(params: MarketParams, contract: OptionContract) -> float:
    """Expected call payoff E[(S(T) - K)^+] under the real-world drift.

    Equals S0 e^{mu T} N(d+) - K N(d-) with d+- taken at the drift. This is
    an undiscounted expectation, not a price.

    Raises:
        DegenerateMarket: If S0 e^{mu T} overflows.
    """
    d_plus, d_minus = d_plus_minus(params, contract, params.drift)
    grown_spot = _grown_spot(params, contract.expiry)
    return grown_spot * std_normal_cdf(d_plus) - contract.strike * std_normal_cdf(d_minus)


def expected_put_payoff_physical(params: MarketParams, contract: OptionContract) -> float:
    """Expected put payoff E[(K - S(T))^+] under the real-world drift.

    Mirror image of the call formula: K N(-d-) - S0 e^{mu T} N(-d+). The two
    expectations satisfy call - put = S0 e^{mu T} - K (payoff parity).
    """
    d_plus, d_minus = d_plus_minus(params, contract, params.drift)
    grown_spot = _grown_spot(params, contract.expiry)
    return contract.strike * std_normal_cdf(-d_minus) - grown_spot * std_normal_cdf(-d_plus)


def _otm_price_vega(spot: float, strike_pv: float, sig_sqrt_t: float) -> tuple[float, float]:
    """Out-of-the-money Black-Scholes price and its derivative in sigma sqrt(T).

    The option is the put when strike_pv = K e^{-rT} < S0, else the call; it
    is priced directly, not through put-call parity, so its price keeps full
    relative precision however deep in the money the call is. The derivative
    S0 phi(d+) is the same for both.
    """
    d_plus = math.log(spot / strike_pv) / sig_sqrt_t + 0.5 * sig_sqrt_t
    d_minus = d_plus - sig_sqrt_t
    if strike_pv < spot:
        price = strike_pv * std_normal_cdf(-d_minus) - spot * std_normal_cdf(-d_plus)
    else:
        price = spot * std_normal_cdf(d_plus) - strike_pv * std_normal_cdf(d_minus)
    return price, spot * math.exp(-0.5 * d_plus * d_plus) / _SQRT_2PI


def _otm_price(params: MarketParams, contract: OptionContract) -> float:
    """Black-Scholes price of the out-of-the-money option (see _otm_price_vega)."""
    strike_pv = contract.strike * rate_factors(params, contract.expiry)[2]
    sig_sqrt_t = _sig_sqrt_t(params.volatility, contract.expiry)
    return _otm_price_vega(params.spot, strike_pv, sig_sqrt_t)[0]


def _implied_vol_otm(params: MarketParams, contract: OptionContract, otm_price: float) -> float:
    """Volatility at which the out-of-the-money price (see _otm_price_vega) is otm_price.

    A safeguarded Newton iteration on log(price) (Numerical Recipes'
    rtsafe), started from Corrado and Miller's closed-form estimate: a
    Newton step that leaves the bracket, or is not at most half the
    previous step, is replaced by a bisection of the bracket. The iteration
    stops at a step under 1e-12 in sigma.

    Raises:
        PriceOutOfBounds: If otm_price is not positive, so no implied
            volatility exists.
        BracketExhausted: If the root lies outside NumericConfig.vol_bracket.
    """
    if not otm_price > 0.0:
        raise PriceOutOfBounds(f"out-of-the-money price {otm_price} is not positive")
    spot, sqrt_t = params.spot, math.sqrt(contract.expiry)
    strike_pv = contract.strike * rate_factors(params, contract.expiry)[2]
    lo, hi = NumericConfig.vol_bracket
    if (
        _otm_price_vega(spot, strike_pv, lo * sqrt_t)[0] > otm_price
        or _otm_price_vega(spot, strike_pv, hi * sqrt_t)[0] < otm_price
    ):
        option = "put" if strike_pv < spot else "call"
        raise BracketExhausted(
            f"implied vol for out-of-the-money {option} price {otm_price} lies outside "
            f"the bracket {NumericConfig.vol_bracket}"
        )
    # Corrado-Miller in out-of-the-money terms; the square root is dropped
    # where its argument is negative (deep out of the money). The prices are
    # taken in units of a power of two near the larger of spot and strike, so
    # the squares cannot overflow, and the scale is exact, so it keeps the bits.
    unit = math.ldexp(1.0, -math.frexp(max(spot, strike_pv))[1])
    scaled_spot, scaled_strike = spot * unit, strike_pv * unit
    moneyness = abs(scaled_spot - scaled_strike)
    half = otm_price * unit + 0.5 * moneyness
    root = math.sqrt(max(half * half - moneyness * moneyness / math.pi, 0.0))
    guess = _SQRT_2PI * (half + root) / ((scaled_spot + scaled_strike) * sqrt_t)
    sigma = min(max(guess, lo), hi)
    log_target, last_step = math.log(otm_price), hi - lo
    # Newton steps shrink at least geometrically and each bisection halves
    # the bracket, so the loop ends long before its cap; a root typically
    # takes four or five prices after the two bracket ends.
    for _ in range(200):
        price, vega = _otm_price_vega(spot, strike_pv, sigma * sqrt_t)
        if price < otm_price:
            lo = sigma
        else:
            hi = sigma
        # d log(price) / d sigma = vega sqrt(T) / price; a price or vega
        # that underflows to zero, or a step that overflows, forces a bisection.
        if price > 0.0 and vega > 0.0:
            step = (math.log(price) - log_target) * (price / vega) / sqrt_t
        else:
            step = math.inf
        if not (lo <= sigma - step <= hi and abs(step) <= 0.5 * abs(last_step)):
            step = sigma - 0.5 * (lo + hi)
        sigma -= step
        last_step = step
        if abs(step) <= 1e-12:
            break
    return sigma


def implied_vol(params: MarketParams, contract: OptionContract, observed_price: float) -> float:
    """Volatility at which the Black-Scholes call price matches observed_price.

    Inverts the out-of-the-money option (_implied_vol_otm): the call itself
    when K e^{-rT} >= S0, else the put, whose price observed_price - (S0 -
    K e^{-rT}) follows by put-call parity. The out-of-the-money price is
    strictly increasing in sigma and keeps full relative precision in its
    tail, where an in-the-money call price sits on its intrinsic floor.

    Args:
        params: Market environment (its volatility field is ignored).
        contract: Strike and expiry.
        observed_price: Price to invert; must lie strictly between the
            no-arbitrage bounds (S0 - K e^{-rT})^+ and S0.

    Returns:
        The implied volatility.

    Raises:
        PriceOutOfBounds: If observed_price is outside the no-arbitrage
            bounds, so no implied volatility exists.
        BracketExhausted: If the root lies outside NumericConfig.vol_bracket.
    """
    discount = rate_factors(params, contract.expiry)[2]
    lower = max(params.spot - contract.strike * discount, 0.0)
    if not lower < observed_price < params.spot:
        raise PriceOutOfBounds(
            f"price {observed_price} outside the no-arbitrage interval "
            f"({lower}, {params.spot})"
        )
    return _implied_vol_otm(params, contract, observed_price - lower)
