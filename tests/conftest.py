import pytest

from fairhedge import MarketParams, OptionContract

# Reference scenario used throughout: S0=100, mu=10%, sigma=20%, r=5%, K=100, T=1.


@pytest.fixture
def ref_params() -> MarketParams:
    return MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)


@pytest.fixture
def ref_contract() -> OptionContract:
    return OptionContract(strike=100.0, expiry=1.0)


@pytest.fixture
def low_vol_market() -> tuple[MarketParams, OptionContract]:
    """sigma = 0.5%, T = 0.01, K = 90: the loss probability nears the float floor.

    Its quote once sat at a subnormal loss probability (2.5e-323) with a negative
    "risk" of -0.098, and its neighbour x* + 1e-3 still has no normal one.
    """
    return (
        MarketParams(spot=100.0, drift=0.1, volatility=0.005, risk_free=0.05),
        OptionContract(strike=90.0, expiry=0.01),
    )
