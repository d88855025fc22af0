"""Exception types raised by the pricing and risk routines.

Input validation failures (bad spot, bad strike, malformed config) raise
plain ``ValueError``. The classes below signal *domain* conditions: inputs
that are well formed but outside the region where a quote, a root or an
estimate exists.
"""


class PricingError(Exception):
    """Base class for domain errors in pricing and risk computations."""


class PriceOutOfBounds(PricingError):
    """Observed price violates the no-arbitrage bounds; no implied vol exists."""


class BracketExhausted(PricingError):
    """The implied-vol root lies outside the configured search bracket."""


class NonpositivePrice(PricingError):
    """The fair price at the requested hedge fraction is zero or negative."""


class DegenerateMarket(PricingError):
    """A growth factor or sigma^2 T is out of float range, or the edge or sigma sqrt(T) is 0."""


class DomainError(PricingError):
    """Threshold log argument is nonpositive; inputs outside the valid regime."""


class DegenerateLoss(PricingError):
    """Loss probability underflowed to zero or a subnormal; conditional risk is undefined."""


class EmptyDomain(PricingError):
    """No hedge fraction admits a positive fair price; nothing to quote."""


class ExpiredContract(PricingError):
    """Re-valuation time is at or past expiry."""
