"""Equilibrium pricing of a non-traded European call under a static hedge.

A writer who cannot rebalance hedges a sold call with a fixed stock
position. Measuring both parties' expected profits under the real-world
drift (assumed above the risk-free rate) and equating them gives a premium
for every hedge fraction; minimizing the writer's conditional expected
loss picks the fraction, and the resulting prices trace a volatility smile
across strikes. Closed forms for the price, the loss probability and both
parties' risks live alongside Monte Carlo and quadrature engines that
verify them independently. The engines need numpy, which the closed forms
do not: import their names from fairhedge.oracle, which the package binds
on import but runs, loading numpy, only on its first attribute use.
"""

import importlib.util as _importlib_util
import sys as _sys

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
    NonpositivePrice,
    PriceOutOfBounds,
    PricingError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core analytics
    "MarketParams", "OptionContract", "NumericConfig", "McConfig",
    "std_normal_cdf", "d_plus_minus", "bs_call_price",
    "expected_call_payoff_physical", "implied_vol",
    # equilibrium pricing and risk
    "MAX_HEDGE_FRACTION", "RiskThresholds", "RiskReport", "EquilibriumQuote", "SmilePoint",
    "fair_price", "expected_profits",
    "writer_risk", "minimize_writer_risk", "volatility_smile", "revalue_at_time",
    # errors
    "PricingError", "PriceOutOfBounds", "BracketExhausted", "NonpositivePrice",
    "DomainError", "DegenerateLoss", "DegenerateMarket", "EmptyDomain", "ExpiredContract",
]

# Bind fairhedge.oracle as an import does, in sys.modules and on the package, where code
# that walks the package's modules finds it, but run it on its first attribute use.
_spec = _importlib_util.find_spec(f"{__name__}.oracle")
_spec.loader = _importlib_util.LazyLoader(_spec.loader)
oracle = _sys.modules[_spec.name] = _importlib_util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)
