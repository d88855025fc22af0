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
Everything here is scalar closed forms on the math module; the realized
losses that the oracles score path by path live in oracle.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable

from .core import (
    _SQRT2,
    MarketParams,
    NumericConfig,
    OptionContract,
    _sig_sqrt_t,
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
    "expected_profits",
    "risk_thresholds",
    "writer_risk",
    "minimize_writer_risk",
    "volatility_smile",
    "revalue_at_time",
]

# The risk formulas assume x in [0, 1); d2 diverges as x -> 1, so the
# minimizer searches up to this right endpoint.
MAX_HEDGE_FRACTION = 1.0 - 1e-6

# Contracts whose expected payoff falls below this fraction of spot are not
# quoted: such a premium perturbs the strike by less than one ulp, so the
# cut points collapse (d == d2 == d') and their strict ordering is lost.
_PREMIUM_FLOOR = 1e-8

# A loss probability under the smallest normal float keeps too few bits to divide by.
_NORMAL_MIN = sys.float_info.min

@dataclass(frozen=True, slots=True)
class RiskThresholds:
    """Standardized-normal cut points delimiting the loss events.

    Satisfies d1 < d < d2 whenever d1 is finite, and d < d_prime.
    """

    d1: float
    d: float
    d2: float
    d_prime: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class EquilibriumQuote:
    """Risk-minimizing hedge fraction and the premium it implies."""

    x_star: float
    price: float
    report: RiskReport


@dataclass(frozen=True, slots=True)
class SmilePoint:
    """One strike of a smile sweep; an unresolvable point keeps the nan defaults and sets error."""

    strike: float
    price: float = math.nan
    x_star: float = math.nan
    implied_vol: float = math.nan
    writer_risk: float = math.nan
    holder_risk: float = math.nan
    loss_prob: float = math.nan
    error: str | None = None


def _check_hedge_fraction(x: float) -> None:
    if not 0.0 <= x < 1.0:
        raise ValueError(f"hedge fraction must lie in [0, 1), got {x}")


def _check_price(price: float) -> None:
    if not price > 0:
        raise ValueError(f"price must be positive, got {price}")
    if not math.isfinite(price):
        raise ValueError(f"price must be finite, got {price}")


class _RiskKernel:
    """The closed forms of one (market, contract), with every x-free term computed once.

    The expected payoff, discount and compounding factors, the hedge edge,
    the zero crossing x_max of the premium, the searchable hedge domain
    [0, x_hi], the premium-floor test, the cut point d with the holder's
    N(d) and N(d - sigma sqrt(T)), and the x-free constants of d1, d2 and
    d' are fixed at construction. Construction raises DegenerateMarket
    when a growth factor leaves the float range (from rate_factors) or the
    hedge edge is zero in floating point, so x_max would divide by zero.
    Every x is evaluated in one fixed operation order, so the public
    wrappers, the minimizer and the checks give identical bits. The
    writer's terms are written once, in lowest_risk's loop over a sequence
    of x, which inlines the log_args formulas that thresholds and the
    checks call; a point scores inf where its terms raise, so it never
    wins. There are two ways in: lowest_risk(xs) returns scores, and
    report(x), its one-point case, returns x's RiskReport.
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
        # The premium is affine decreasing in x, so it is positive on [0, x_max); the
        # hedge domain of the minimizer and the checks stays a relative 1e-12 inside.
        self.x_hi = min(MAX_HEDGE_FRACTION, self.x_max * (1.0 - 1e-12))
        self.grown_spot = s0 * growth
        self.sig_sqrt_t = _sig_sqrt_t(sig, t)
        self.shift = 0.5 * sig * sig * t - mu * t
        self.d = self._cut(contract.strike / s0)
        self.cdf_d = std_normal_cdf(self.d)
        self.cdf_d_shifted = std_normal_cdf(self.d - self.sig_sqrt_t)

    def require_quotable(self) -> None:
        """Raise EmptyDomain if the expected payoff is below the premium floor."""
        if self.below_premium_floor:
            raise EmptyDomain(
                f"no quotable price for strike {self.strike}: expected payoff "
                f"{self.expected_payoff} is below {_PREMIUM_FLOOR} of spot {self.spot}"
            )

    def fair_price(self, x: float) -> float:
        _check_hedge_fraction(x)
        price = self.discount * (self.expected_payoff - 0.5 * x * self.edge)
        if not price > 0:
            raise NonpositivePrice(f"fair price at x={x} is {price}; no quote exists")
        return price

    def _cut(self, log_arg: float) -> float:
        return (math.log(log_arg) + self.shift) / self.sig_sqrt_t

    def log_args(self, x: float, price: float) -> tuple[float, float]:
        """The raw d1 and d2 log arguments, nonpositive ones too; the d1 one is -inf at x = 0."""
        s0, compounding = self.spot, self.compounding
        d1_arg = (x * s0 - price) * compounding / (s0 * x) if x > 0 else -math.inf
        return d1_arg, (self.strike + (price - x * s0) * compounding) / (s0 * (1.0 - x))

    def _d_prime(self, price: float) -> float:
        return self._cut((self.strike + price * self.compounding) / self.spot)

    def thresholds(self, x: float, price: float) -> RiskThresholds:
        d1_arg, d2_arg = self.log_args(x, price)
        # d1 is -inf where the stock cover x S0 - price is nonpositive.
        d1 = -math.inf if x * self.spot - price <= 0 else self._cut(d1_arg)
        if d2_arg <= 0:
            raise DomainError(f"d2 log argument is nonpositive ({d2_arg}) at x={x}")
        return RiskThresholds(d1=d1, d=self.d, d2=self._cut(d2_arg), d_prime=self._d_prime(price))

    def lowest_risk(self, xs: Iterable[float]) -> tuple[float, float, tuple | PricingError]:
        """(risk, x, terms): the lowest writer risk over a nonempty xs in [0, 1), its first
        x, and that x's writer terms, or the PricingError they raise.

        The one statement of the writer's terms, (price, d1, d2, loss_prob,
        partial_call, partial_stock, gamma_W), in the operation order of
        fair_price, thresholds and std_normal_cdf: the same bits. An x scores
        its gamma_W, or +inf where its terms raise a PricingError. The first x
        seeds the minimum and only a strictly lower risk replaces it, so a tie
        keeps the earlier x, and an error is kept only when it is the seed's.
        This returns scores; report(x), the other way in, returns one x's record.
        """
        s0, strike, edge, compounding = self.spot, self.strike, self.edge, self.compounding
        discount, payoff, grown_spot = self.discount, self.expected_payoff, self.grown_spot
        shift, sig_sqrt_t = self.shift, self.sig_sqrt_t
        erfc, log, sqrt2 = math.erfc, math.log, _SQRT2
        best_risk, best_x, best = math.inf, None, None
        for x in xs:
            price = discount * (payoff - 0.5 * x * edge)
            if not price > 0:
                if best is None:
                    best_x = x
                    best = NonpositivePrice(f"fair price at x={x} is {price}; no quote exists")
                continue
            cover = x * s0
            stock_cover = cover - price
            grown_cover = stock_cover * compounding
            if stock_cover <= 0:
                d1 = -math.inf
            else:
                d1 = (log(grown_cover / cover) + shift) / sig_sqrt_t
            # -grown_cover is (price - x S0) e^{rT} to the bit: IEEE subtraction and
            # negation are exact mirror images.
            d2_arg = (strike - grown_cover) / (s0 * (1.0 - x))
            if d2_arg <= 0:
                if best is None:
                    best_x = x
                    best = DomainError(f"d2 log argument is nonpositive ({d2_arg}) at x={x}")
                continue
            d2 = (log(d2_arg) + shift) / sig_sqrt_t
            # Survival probabilities are N(-z), not 1 - N(z), to keep relative
            # precision in the tails; a -inf d1 contributes nothing. N(z) is
            # 0.5 erfc(-z / sqrt 2), so N(-z) is 0.5 erfc(z / sqrt 2).
            upper_tail = 0.5 * erfc(d2 / sqrt2)
            loss_prob = 0.5 * erfc(-d1 / sqrt2) + upper_tail
            if not loss_prob >= _NORMAL_MIN:
                if best is None:
                    size = "zero" if loss_prob == 0.0 else f"a subnormal {loss_prob}"
                    best_x = x
                    best = DegenerateLoss(f"writer loss probability underflowed to {size} at x={x}")
                continue
            upper_tail_shifted = 0.5 * erfc((d2 - sig_sqrt_t) / sqrt2)
            partial_call = grown_spot * upper_tail_shifted - strike * upper_tail
            partial_stock = grown_spot * (
                0.5 * erfc(-(d1 - sig_sqrt_t) / sqrt2) + upper_tail_shifted
            )
            gamma_w = (
                partial_call / loss_prob
                - x * partial_stock / loss_prob
                + cover * compounding
                - price * compounding
            )
            if gamma_w < best_risk or best is None:
                best_risk, best_x = gamma_w, x
                best = (price, d1, d2, loss_prob, partial_call, partial_stock, gamma_w)
        return best_risk, best_x, best

    def report(self, x: float) -> RiskReport:
        _check_hedge_fraction(x)
        terms = self.lowest_risk((x,))[2]
        if isinstance(terms, PricingError):
            raise terms
        price, d1, d2, loss_prob, partial_call, partial_stock, gamma_w = terms
        d_prime = self._d_prime(price)
        cdf_d_prime = std_normal_cdf(d_prime)
        if not cdf_d_prime >= _NORMAL_MIN:
            size = "zero" if cdf_d_prime == 0.0 else f"a subnormal {cdf_d_prime}"
            raise DegenerateLoss(f"holder loss probability underflowed to {size} at x={x}")
        in_band_payoff = self.grown_spot * (
            std_normal_cdf(d_prime - self.sig_sqrt_t) - self.cdf_d_shifted
        ) - self.strike * (cdf_d_prime - self.cdf_d)
        return RiskReport(
            x=x,
            fair_price=price,
            loss_prob=loss_prob,
            partial_call=partial_call,
            partial_stock=partial_stock,
            writer_risk=gamma_w,
            holder_risk=price * self.compounding - in_band_payoff / cdf_d_prime,
            thresholds=RiskThresholds(d1=d1, d=self.d, d2=d2, d_prime=d_prime),
        )


def fair_price(params: MarketParams, contract: OptionContract, x: float) -> float:
    """Premium equating holder's and writer's expected profits, given x shares.

    Affine and strictly decreasing in x (slope -S0 (e^{mu T}-e^{rT}) e^{-rT}/2).

    Raises:
        NonpositivePrice: If the formula gives a nonpositive premium, which
            happens for deep out-of-the-money contracts with large x.
    """
    return _RiskKernel(params, contract).fair_price(x)


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
    _check_price(price)
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
    _check_price(price)
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
        DegenerateLoss: If the writer's loss probability P or the holder's N(d')
            underflows to zero or a subnormal.
    """
    return _RiskKernel(params, contract).report(x)


def minimize_writer_risk(params: MarketParams, contract: OptionContract) -> EquilibriumQuote:
    """Hedge fraction minimizing the writer's risk, and the premium it implies.

    A scan with step NumericConfig.minimizer_grid covers the hedge domain
    [0, x_hi], where the fair price is positive and x <= 1 - 1e-6: one
    lowest_risk call in ascending x, x_hi last when it is off the grid.
    Compass steps then score x* +- step inside it in one ascending call,
    halving the step until it is at most NumericConfig.minimizer_tol / 2.
    Every comparison keeps the lowest risk and, among equal risks, the
    smaller x, so x* is an evaluated point; a grid where every point raises
    ends at x = 0, whose report raises.

    Raises:
        EmptyDomain: If the expected payoff is below the premium floor, 1e-8
            of spot; so is every contract whose unhedged premium is nonpositive.
    """
    kernel = _RiskKernel(params, contract)
    kernel.require_quotable()
    step, hi = NumericConfig.minimizer_grid, kernel.x_hi
    points = int(hi / step) + 1
    # The points i * step, then x_hi if it is off the grid; step.__mul__(i) has the
    # bits of i * step, and map calls it with no Python frame per point.
    grid = map(step.__mul__, range(points))
    if (points - 1) * step < hi:
        grid = itertools.chain(grid, (hi,))
    risk, x_star, _ = kernel.lowest_risk(grid)
    while step > NumericConfig.minimizer_tol / 2:
        step /= 2
        trials = [x for x in (x_star - step, x_star + step) if 0 <= x <= hi]
        if trials:
            trial, x, _ = kernel.lowest_risk(trials)
            if trial < risk or trial == risk and x < x_star:
                risk, x_star = trial, x
    report = kernel.report(x_star)
    return EquilibriumQuote(x_star=x_star, price=report.fair_price, report=report)


def volatility_smile(params: MarketParams, strikes: list[float], expiry: float) -> list[SmilePoint]:
    """Equilibrium price and implied volatility for each strike.

    Strikes are processed independently (safe to parallelize; results keep
    input order) and a failure at one strike becomes that point's error
    marker instead of aborting the sweep. A DegenerateMarket holds at every
    strike, so it propagates.
    """
    if not strikes:
        raise ValueError("strikes must be nonempty")
    contracts = [OptionContract(strike=k, expiry=expiry) for k in strikes]
    points = []
    for k, contract in zip(strikes, contracts):
        try:
            quote = minimize_writer_risk(params, contract)
            vol = implied_vol(params, contract, quote.price)
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
            points.append(SmilePoint(strike=k, error=f"{type(exc).__name__}: {exc}"))
    return points


def revalue_at_time(
    params: MarketParams, contract: OptionContract, t: float, spot_at_t: float
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
        replace(params, spot=spot_at_t), replace(contract, expiry=contract.expiry - t)
    )
