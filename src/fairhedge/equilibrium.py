"""Equilibrium pricing and conditional-loss risk for a statically hedged call.

The writer sells a non-traded call for a premium C, holds x shares and the
premium remainder in the money market until expiry, and both sides measure
outcomes under the real-world drift mu > r. Requiring equal expected
profits for holder and writer pins the premium as a function of x:

    C_x = e^{-rT} (E[(S(T)-K)^+] - x S0 (e^{mu T} - e^{rT}) / 2)

which is affine and strictly decreasing in x. The remaining degree of
freedom is fixed by minimizing the writer's risk, defined as the expected
loss conditional on the loss being positive. Both parties' risks have
closed forms driven by four standardized-normal cut points:

    d   boundary of the exercise event S(T) > K
    d1  upper edge of the writer's loss region when the call dies
        (may be -inf when x S0 <= C_x and that region is empty)
    d2  lower edge of the writer's loss region when the call pays
    d'  upper edge of the holder's loss region

The writer loses on {Z <= d1} or {Z > d2}; the holder loses on {Z < d'}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MarketParams,
    NumericConfig,
    OptionContract,
    expected_call_payoff_physical,
    implied_vol,
    rate_factors,
    std_normal_cdf,
)
from .errors import (
    DegenerateLoss,
    DegenerateMarket,
    DomainError,
    EmptyDomain,
    ExpiredContract,
    NonpositivePrice,
    PricingError,
)

__all__ = [
    "MAX_HEDGE_FRACTION",
    "RiskThresholds",
    "RiskReport",
    "EquilibriumQuote",
    "SmilePoint",
    "fair_price",
    "price_positive_x_max",
    "expected_profits",
    "risk_thresholds",
    "writer_risk",
    "minimize_writer_risk",
    "volatility_smile",
    "revalue_at_time",
    "writer_loss",
    "holder_loss",
]

# The risk formulas assume x in [0, 1); d2 diverges as x -> 1, so the
# minimizer searches up to this right endpoint.
MAX_HEDGE_FRACTION = 1.0 - 1e-6

# Contracts whose expected payoff falls below this fraction of spot are not
# quoted: such a premium perturbs the strike by less than one ulp, so the
# cut points collapse (d == d2 == d') and their strict ordering is lost.
_PREMIUM_FLOOR = 1e-8

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class RiskThresholds:
    """Standardized-normal cut points delimiting the loss events.

    Satisfies d1 < d < d2 whenever d1 is finite, and d < d_prime.
    """

    d1: float
    d: float
    d2: float
    d_prime: float


@dataclass(frozen=True)
class RiskReport:
    """Risk picture of one hedge fraction at its fair price."""

    x: float
    fair_price: float
    loss_prob: float
    partial_call: float
    partial_stock: float
    writer_risk: float
    holder_risk: float
    thresholds: RiskThresholds


@dataclass(frozen=True)
class EquilibriumQuote:
    """Risk-minimizing hedge fraction and the premium it implies."""

    x_star: float
    price: float
    report: RiskReport


@dataclass(frozen=True)
class SmilePoint:
    """One strike of a smile sweep; error is set when the point is unresolvable."""

    strike: float
    price: float
    x_star: float
    implied_vol: float
    writer_risk: float
    holder_risk: float
    loss_prob: float
    error: str | None = None


def _check_hedge_fraction(x: float) -> None:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"hedge fraction must lie in [0, 1), got {x}")


class _RiskKernel:
    """The closed forms of one (market, contract), with every x-free term computed once.

    The expected payoff, discount and compounding factors, the hedge edge,
    the zero crossing x_max of the premium, the premium-floor test, the cut
    point d and the x-free constants of d1, d2 and d' are fixed at
    construction; the holder's N(d) terms are added on the first report.
    Construction raises DegenerateMarket when a growth factor leaves the
    float range (from rate_factors) or the hedge edge is zero in floating
    point, so x_max would divide by zero.
    The methods evaluate the formulas at any x in one fixed operation
    order, so the public wrappers and the minimizer's scan give identical
    bits for identical inputs.
    """

    def __init__(self, params: MarketParams, contract: OptionContract) -> None:
        s0, sig, mu, t = params.spot, params.volatility, params.drift, contract.expiry
        self.spot, self.strike = s0, contract.strike
        growth, self.compounding, self.discount = rate_factors(params, t)
        carry = growth - self.compounding
        edge_scale = 0.5 * s0 * carry * self.discount
        if not edge_scale > 0:
            raise DegenerateMarket(
                f"hedge edge S0 (e^(mu T) - e^(r T)) is zero in floating point: "
                f"drift*T = {mu * t}, risk_free*T = {params.risk_free * t}"
            )
        self.expected_payoff = expected_call_payoff_physical(params, contract)
        self.below_premium_floor = self.expected_payoff < _PREMIUM_FLOOR * s0
        self.edge = s0 * carry
        self.x_max = self.discount * self.expected_payoff / edge_scale
        self.grown_spot = s0 * growth
        self.sig_sqrt_t = sig * math.sqrt(t)
        self.shift = 0.5 * sig * sig * t - mu * t
        self.d = (math.log(contract.strike / s0) + self.shift) / self.sig_sqrt_t
        self._holder_cdfs: tuple[float, float] | None = None

    def price(self, x):
        """Fair premium at x, a float or elementwise over an array; unchecked."""
        return self.discount * (self.expected_payoff - 0.5 * x * self.edge)

    def fair_price(self, x: float) -> float:
        _check_hedge_fraction(x)
        price = self.price(x)
        if not price > 0:
            raise NonpositivePrice(f"fair price at x={x} is {price}; no quote exists")
        return price

    def thresholds(self, x: float, price: float) -> RiskThresholds:
        s0, sig_sqrt_t, shift, compounding = self.spot, self.sig_sqrt_t, self.shift, self.compounding
        stock_cover = x * s0 - price
        if stock_cover <= 0:
            d1 = -math.inf
        else:
            d1 = (math.log(stock_cover * compounding / (s0 * x)) + shift) / sig_sqrt_t
        d2_arg = (self.strike + (price - x * s0) * compounding) / (s0 * (1.0 - x))
        if d2_arg <= 0:
            raise DomainError(f"d2 log argument is nonpositive ({d2_arg}) at x={x}")
        d2 = (math.log(d2_arg) + shift) / sig_sqrt_t
        d_prime = (math.log((self.strike + price * compounding) / s0) + shift) / sig_sqrt_t
        return RiskThresholds(d1=d1, d=self.d, d2=d2, d_prime=d_prime)

    def report(self, x: float) -> RiskReport:
        price = self.fair_price(x)
        th = self.thresholds(x, price)
        d1, d2, d_prime = th.d1, th.d2, th.d_prime
        sig_sqrt_t, grown_spot, strike = self.sig_sqrt_t, self.grown_spot, self.strike
        compounding = self.compounding
        # Survival probabilities are N(-z), not 1 - N(z), to keep relative
        # precision in the tails; a -inf d1 contributes nothing.
        upper_tail = std_normal_cdf(-d2)
        loss_prob = std_normal_cdf(d1) + upper_tail
        if loss_prob <= 0.0:
            raise DegenerateLoss(f"writer loss probability underflowed to zero at x={x}")
        upper_tail_shifted = std_normal_cdf(-(d2 - sig_sqrt_t))
        partial_call = grown_spot * upper_tail_shifted - strike * upper_tail
        partial_stock = grown_spot * (std_normal_cdf(d1 - sig_sqrt_t) + upper_tail_shifted)
        gamma_w = (
            partial_call / loss_prob
            - x * partial_stock / loss_prob
            + x * self.spot * compounding
            - price * compounding
        )
        if self._holder_cdfs is None:
            self._holder_cdfs = (std_normal_cdf(self.d), std_normal_cdf(self.d - sig_sqrt_t))
        cdf_d, cdf_d_shifted = self._holder_cdfs
        cdf_d_prime = std_normal_cdf(d_prime)
        in_band_payoff = grown_spot * (
            std_normal_cdf(d_prime - sig_sqrt_t) - cdf_d_shifted
        ) - strike * (cdf_d_prime - cdf_d)
        return RiskReport(
            x=x,
            fair_price=price,
            loss_prob=loss_prob,
            partial_call=partial_call,
            partial_stock=partial_stock,
            writer_risk=gamma_w,
            holder_risk=price * compounding - in_band_payoff / cdf_d_prime,
            thresholds=th,
        )


def fair_price(
    params: MarketParams, contract: OptionContract, x: float | np.ndarray
) -> float | np.ndarray:
    """Premium equating holder's and writer's expected profits, given x shares.

    Affine and strictly decreasing in x (slope -S0 (e^{mu T}-e^{rT}) e^{-rT}/2).
    x is a float, or a numpy array priced elementwise with the same bits.

    Raises:
        NonpositivePrice: If the formula gives a nonpositive premium (for an
            array, anywhere on it), which happens for deep out-of-the-money
            contracts with large x.
    """
    if not isinstance(x, np.ndarray):
        return _RiskKernel(params, contract).fair_price(x)
    if not np.all((x >= 0.0) & (x < 1.0)):
        raise ValueError("hedge fractions must lie in [0, 1)")
    prices = _RiskKernel(params, contract).price(x)
    if not np.all(prices > 0):
        raise NonpositivePrice("fair price is nonpositive on part of the x array; no quote exists")
    return prices


def price_positive_x_max(params: MarketParams, contract: OptionContract) -> float:
    """Hedge fraction where the fair price crosses zero; positive on [0, x_max).

    Callers stay a relative margin inside it, since the price is only
    meaningful well above the rounding noise of the expected payoff.
    """
    return _RiskKernel(params, contract).x_max


def expected_profits(
    params: MarketParams, contract: OptionContract, x: float, price: float
) -> tuple[float, float]:
    """Expected holder and writer profits at expiry for a given premium.

    Holder: E[(S(T)-K)^+] - price e^{rT}, independent of x.
    Writer: x S0 (e^{mu T} - e^{rT}) + price e^{rT} - E[(S(T)-K)^+],
    affine increasing in x. The two always sum to x S0 (e^{mu T} - e^{rT}).
    Both are affine in x, so the full hedge x = 1 is accepted here even
    though the risk formulas need x < 1.

    Returns:
        Tuple (holder, writer).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"hedge fraction must lie in [0, 1], got {x}")
    if not price > 0:
        raise ValueError(f"price must be positive, got {price}")
    growth, compounding, _ = rate_factors(params, contract.expiry)
    expected_payoff = expected_call_payoff_physical(params, contract)
    compounded = price * compounding
    edge = x * params.spot * (growth - compounding)
    return expected_payoff - compounded, edge + compounded - expected_payoff


def risk_thresholds(
    params: MarketParams, contract: OptionContract, x: float, price: float
) -> RiskThresholds:
    """Cut points of the writer's and holder's loss regions.

    When x S0 <= price the writer cannot lose on a dead call, the
    corresponding log argument is nonpositive, and d1 is -inf.

    Raises:
        DomainError: If the d2 log argument is nonpositive (inputs outside
            the valid regime; cannot happen at a fair price with x < 1).
    """
    _check_hedge_fraction(x)
    if not price > 0:
        raise ValueError(f"price must be positive, got {price}")
    return _RiskKernel(params, contract).thresholds(x, price)


def writer_risk(params: MarketParams, contract: OptionContract, x: float) -> RiskReport:
    """Full risk report at hedge fraction x, priced at the fair premium.

    The writer's risk is the expected loss conditional on a positive loss:

        gamma_W = E[C 1_loss]/P - x E[S 1_loss]/P + x S0 e^{rT} - C_x e^{rT}

    with P = N(d1) + N(-d2) the loss probability and, for s = sigma sqrt(T),
    the partial expectations over the loss event

        E[C(T) 1_loss] = S0 e^{mu T} N(-(d2 - s)) - K N(-d2)
        E[S(T) 1_loss] = S0 e^{mu T} (N(d1 - s) + N(-(d2 - s))).

    The holder's risk, below the compounded premium C_x e^{rT}, is

        gamma_H = C_x e^{rT} - (S0 e^{mu T} [N(d'-s) - N(d-s)] - K [N(d') - N(d)]) / N(d').

    Raises:
        NonpositivePrice: If the fair price at x is nonpositive.
        DegenerateLoss: If the loss probability underflows to zero.
    """
    return _RiskKernel(params, contract).report(x)


def writer_loss(
    params: MarketParams,
    contract: OptionContract,
    x: float,
    price: float,
    terminal: np.ndarray,
) -> np.ndarray:
    """Realized writer loss C(T) - x (S(T) - S0 e^{rT}) - price e^{rT}.

    Vectorized over terminal prices; the definitional counterpart of the
    closed-form risk, used by the simulation and quadrature cross-checks.
    """
    s = np.asarray(terminal, dtype=float)
    compounding = rate_factors(params, contract.expiry)[1]
    # In place on two buffers, in the formula's operation order so the bits match it.
    loss = np.subtract(s, contract.strike, out=np.empty_like(s))
    np.maximum(loss, 0.0, out=loss)
    hedge = np.subtract(s, params.spot * compounding)
    hedge *= x
    loss -= hedge
    loss -= price * compounding
    return loss


def holder_loss(
    params: MarketParams,
    contract: OptionContract,
    price: float,
    terminal: np.ndarray,
) -> np.ndarray:
    """Realized holder loss price e^{rT} - C(T), vectorized over terminal prices."""
    s = np.asarray(terminal, dtype=float)
    loss = np.subtract(s, contract.strike, out=np.empty_like(s))
    np.maximum(loss, 0.0, out=loss)
    return np.subtract(price * rate_factors(params, contract.expiry)[1], loss, out=loss)


def _golden_section(objective, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal scalar function on [lo, hi]; returns the midpoint."""
    width = hi - lo
    if width <= tol:
        return 0.5 * (lo + hi)
    a = lo + _INV_PHI_SQ * width
    b = lo + _INV_PHI * width
    f_a, f_b = objective(a), objective(b)
    steps = int(math.ceil(math.log(tol / width) / math.log(_INV_PHI)))
    for _ in range(steps - 1):
        if f_a < f_b:
            hi, b, f_b = b, a, f_a
            width *= _INV_PHI
            a = lo + _INV_PHI_SQ * width
            f_a = objective(a)
        else:
            lo, a, f_a = a, b, f_b
            width *= _INV_PHI
            b = lo + _INV_PHI * width
            f_b = objective(b)
    return 0.5 * (lo + hi)


def minimize_writer_risk(
    params: MarketParams, contract: OptionContract, cfg: NumericConfig | None = None
) -> EquilibriumQuote:
    """Hedge fraction minimizing the writer's risk, and the premium it implies.

    A coarse scan with step cfg.minimizer_grid brackets the minimum over the
    valid domain {x in [0, 1 - 1e-6]: fair price > 0}; golden-section then
    refines it to cfg.minimizer_tol. Scan ties break toward the smaller x.

    Raises:
        EmptyDomain: If the expected payoff is below the premium floor, 1e-8
            of spot; so is every contract whose unhedged premium is nonpositive.
    """
    if cfg is None:
        cfg = NumericConfig()
    kernel = _RiskKernel(params, contract)
    if kernel.below_premium_floor:
        raise EmptyDomain(
            f"no quotable price for strike {contract.strike}: expected payoff "
            f"{kernel.expected_payoff} is below {_PREMIUM_FLOOR} of spot {params.spot}"
        )

    def risk_at(x: float) -> float:
        try:
            return kernel.report(x).writer_risk
        except PricingError:
            return math.inf

    # The premium is affine decreasing in x, so positivity holds on
    # [0, x_max); cap the scan there and at the x < 1 endpoint.
    hi = min(MAX_HEDGE_FRACTION, kernel.x_max * (1.0 - 1e-12))

    step = cfg.minimizer_grid
    grid = [i * step for i in range(int(hi / step) + 1)]
    if grid[-1] < hi:
        grid.append(hi)
    values = [risk_at(x) for x in grid]
    best = min(range(len(grid)), key=lambda i: (values[i], grid[i]))

    bracket_lo = grid[best - 1] if best > 0 else grid[0]
    bracket_hi = grid[best + 1] if best + 1 < len(grid) else grid[-1]
    refined = _golden_section(risk_at, bracket_lo, bracket_hi, cfg.minimizer_tol)

    x_star, value = grid[best], values[best]
    refined_value = risk_at(refined)
    if refined_value < value or (refined_value == value and refined < x_star):
        x_star = refined
    report = kernel.report(x_star)
    return EquilibriumQuote(x_star=x_star, price=report.fair_price, report=report)


def volatility_smile(
    params: MarketParams,
    strikes: list[float],
    expiry: float,
    cfg: NumericConfig | None = None,
) -> list[SmilePoint]:
    """Equilibrium price and implied volatility for each strike.

    Strikes are processed independently (safe to parallelize; results keep
    input order) and a failure at one strike becomes that point's error
    marker instead of aborting the sweep. A DegenerateMarket holds at every
    strike, so it propagates.
    """
    if not strikes:
        raise ValueError("strikes must be nonempty")
    for k in strikes:
        if not k > 0:
            raise ValueError(f"strike must be positive, got {k}")
    points = []
    for k in strikes:
        contract = OptionContract(strike=k, expiry=expiry)
        try:
            quote = minimize_writer_risk(params, contract, cfg)
            vol = implied_vol(params, contract, quote.price, cfg)
            points.append(
                SmilePoint(
                    strike=k,
                    price=quote.price,
                    x_star=quote.x_star,
                    implied_vol=vol,
                    writer_risk=quote.report.writer_risk,
                    holder_risk=quote.report.holder_risk,
                    loss_prob=quote.report.loss_prob,
                )
            )
        except DegenerateMarket:
            raise
        except PricingError as exc:
            nan = math.nan
            points.append(
                SmilePoint(
                    strike=k,
                    price=nan,
                    x_star=nan,
                    implied_vol=nan,
                    writer_risk=nan,
                    holder_risk=nan,
                    loss_prob=nan,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return points


def revalue_at_time(
    params: MarketParams,
    contract: OptionContract,
    t: float,
    spot_at_t: float,
    cfg: NumericConfig | None = None,
) -> EquilibriumQuote:
    """Re-quote at time t with the current spot and remaining life T - t.

    The writer rebalancing at t repeats the static analysis over the
    remaining period, so this is minimize_writer_risk with spot replaced by
    spot_at_t and expiry by contract.expiry - t.

    Raises:
        ExpiredContract: If t is at or past expiry.
    """
    if t < 0:
        raise ValueError(f"re-valuation time must be nonnegative, got {t}")
    if t >= contract.expiry:
        raise ExpiredContract(f"re-valuation time {t} is at or past expiry {contract.expiry}")
    if not spot_at_t > 0:
        raise ValueError(f"spot_at_t must be positive, got {spot_at_t}")
    return minimize_writer_risk(
        replace(params, spot=spot_at_t),
        replace(contract, expiry=contract.expiry - t),
        cfg,
    )
