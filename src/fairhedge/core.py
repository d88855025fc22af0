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
- implied_vol:      bisection inversion of bs_call_price in sigma

Rates are annual with continuous compounding; times are in years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BracketExhausted, DegenerateMarket, PriceOutOfBounds

__all__ = [
    "MarketParams",
    "OptionContract",
    "NumericConfig",
    "std_normal_cdf",
    "rate_factors",
    "d_plus_minus",
    "bs_call_price",
    "expected_call_payoff_physical",
    "expected_put_payoff_physical",
    "implied_vol",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MarketParams:
    """Market environment under the real-world measure.

    Attributes:
        spot: Current stock price S0, must be positive.
        drift: Annual drift mu of the stock under the real-world measure.
        volatility: Annual volatility sigma, must be positive.
        risk_free: Annual risk-free rate r.

    The buyer's premise drift > risk_free is a standing assumption of the
    whole model; construction fails if it does not hold.
    """

    spot: float
    drift: float
    volatility: float
    risk_free: float

    def __post_init__(self) -> None:
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
    """European call contract: strike K and expiry T in years."""

    strike: float
    expiry: float

    def __post_init__(self) -> None:
        if not self.strike > 0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not self.expiry > 0:
            raise ValueError(f"expiry must be positive, got {self.expiry}")


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and search settings for the numeric routines.

    Attributes:
        vol_bracket: Volatility interval searched by the implied-vol solver.
        root_tol: Absolute price tolerance for the implied-vol root.
        minimizer_grid: Step of the coarse scan bracketing the risk minimum.
        minimizer_tol: Width tolerance of the golden-section refinement.
    """

    vol_bracket: tuple[float, float] = (1e-4, 5.0)
    root_tol: float = 1e-10
    minimizer_grid: float = 1e-3
    minimizer_tol: float = 1e-6

    def __post_init__(self) -> None:
        lo, hi = self.vol_bracket
        if not lo > 0:
            raise ValueError(f"vol_bracket lower bound must be positive, got {lo}")
        if not hi > lo:
            raise ValueError(f"vol_bracket must be increasing, got {self.vol_bracket}")
        for name in ("root_tol", "minimizer_grid", "minimizer_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


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
    sig_sqrt_t = sig * math.sqrt(t)
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


def expected_call_payoff_physical(params: MarketParams, contract: OptionContract) -> float:
    """Expected call payoff E[(S(T) - K)^+] under the real-world drift.

    Equals S0 e^{mu T} N(d+) - K N(d-) with d+- taken at the drift. This is
    an undiscounted expectation, not a price.
    """
    d_plus, d_minus = d_plus_minus(params, contract, params.drift)
    growth = rate_factors(params, contract.expiry)[0]
    return params.spot * growth * std_normal_cdf(d_plus) - contract.strike * std_normal_cdf(d_minus)


def expected_put_payoff_physical(params: MarketParams, contract: OptionContract) -> float:
    """Expected put payoff E[(K - S(T))^+] under the real-world drift.

    Mirror image of the call formula: K N(-d-) - S0 e^{mu T} N(-d+). The two
    expectations satisfy call - put = S0 e^{mu T} - K (payoff parity).
    """
    d_plus, d_minus = d_plus_minus(params, contract, params.drift)
    growth = rate_factors(params, contract.expiry)[0]
    return contract.strike * std_normal_cdf(-d_minus) - params.spot * growth * std_normal_cdf(-d_plus)


def implied_vol(
    params: MarketParams,
    contract: OptionContract,
    observed_price: float,
    cfg: NumericConfig | None = None,
) -> float:
    """Volatility at which the Black-Scholes price matches observed_price.

    The call price is strictly increasing in sigma, so plain bisection over
    cfg.vol_bracket is guaranteed to converge once the root is bracketed.

    Args:
        params: Market environment (its volatility field is ignored).
        contract: Strike and expiry.
        observed_price: Price to invert; must lie strictly between the
            no-arbitrage bounds (S0 - K e^{-rT})^+ and S0.
        cfg: Numeric settings; defaults to NumericConfig().

    Returns:
        The implied volatility.

    Raises:
        PriceOutOfBounds: If observed_price is outside the no-arbitrage
            bounds, so no implied volatility exists.
        BracketExhausted: If the root lies outside cfg.vol_bracket.
    """
    if cfg is None:
        cfg = NumericConfig()
    discount = rate_factors(params, contract.expiry)[2]
    lower = max(params.spot - contract.strike * discount, 0.0)
    if not lower < observed_price < params.spot:
        raise PriceOutOfBounds(
            f"price {observed_price} outside the no-arbitrage interval "
            f"({lower}, {params.spot})"
        )

    def price_gap(sigma: float) -> float:
        return bs_call_price(replace(params, volatility=sigma), contract) - observed_price

    lo, hi = cfg.vol_bracket
    if price_gap(lo) > 0 or price_gap(hi) < 0:
        raise BracketExhausted(
            f"implied vol for price {observed_price} lies outside "
            f"the bracket {cfg.vol_bracket}"
        )
    # Bisect the sigma interval down to well below any useful tolerance;
    # ~60 halvings of a width-5 bracket reach 1e-12 in sigma.
    width_tol = min(1e-12, cfg.root_tol)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gap = price_gap(mid)
        if gap == 0.0:
            return mid
        if gap < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= width_tol:
            break
    return 0.5 * (lo + hi)
