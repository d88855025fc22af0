"""Equilibrium pricing of a non-traded European call under a static hedge.

A writer who cannot rebalance hedges a sold call with a fixed stock
position. Measuring both parties' expected profits under the real-world
drift (assumed above the risk-free rate) and equating them gives a premium
for every hedge fraction; minimizing the writer's conditional expected
loss picks the fraction, and the resulting prices trace a volatility smile
across strikes. Closed forms for the price, the loss probability and both
parties' risks live alongside Monte Carlo and quadrature engines that
verify them independently.
"""

from .core import (
    MarketParams,
    McConfig,
    NumericConfig,
    OptionContract,
    bs_call_price,
    d_plus_minus,
    expected_call_payoff_physical,
    implied_vol,
    std_normal_cdf,
)
from .equilibrium import (
    MAX_HEDGE_FRACTION,
    EquilibriumQuote,
    RiskReport,
    RiskThresholds,
    SmilePoint,
    expected_profits,
    fair_price,
    minimize_writer_risk,
    revalue_at_time,
    volatility_smile,
    writer_risk,
)
from .errors import (
    BracketExhausted,
    DegenerateLoss,
    DegenerateMarket,
    DomainError,
    EmptyDomain,
    ExpiredContract,
    NoLossEvents,
    NonpositivePrice,
    PriceOutOfBounds,
    PricingError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core analytics
    "MarketParams", "OptionContract", "NumericConfig",
    "std_normal_cdf", "d_plus_minus", "bs_call_price",
    "expected_call_payoff_physical", "implied_vol",
    # equilibrium pricing and risk
    "MAX_HEDGE_FRACTION", "RiskThresholds", "RiskReport", "EquilibriumQuote", "SmilePoint",
    "fair_price", "expected_profits",
    "writer_risk", "minimize_writer_risk", "volatility_smile",
    "revalue_at_time", "writer_loss", "holder_loss",
    # oracles
    "McConfig", "McEstimate",
    "simulate_terminal", "mc_conditional_loss", "quad_expectation",
    # errors
    "PricingError", "PriceOutOfBounds", "BracketExhausted", "NonpositivePrice",
    "DomainError", "DegenerateLoss", "DegenerateMarket", "EmptyDomain", "ExpiredContract", "NoLossEvents",
]


# The oracles and the losses they score need numpy, which the closed forms do not:
# resolve their names on first use (PEP 562), so importing the library leaves numpy unloaded.
_ORACLE_NAMES = {"McEstimate", "simulate_terminal", "mc_conditional_loss", "quad_expectation",
                 "writer_loss", "holder_loss"}


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
