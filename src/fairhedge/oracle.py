"""Independent verification engines: Monte Carlo and normal quadrature.

Both engines know nothing about the closed forms they are used to check.
The simulator draws exact lognormal terminal prices (the SDE has a closed
solution, so there is no time-stepping error) from one random stream per
chunk, block by block into one reused block buffer, and RunningMoments
folds a sample into a mean and standard error block by block.
realized_losses scores terminal prices by the definitions of C(T) and
the two parties' losses, path by path. mc_conditional_loss, the one
Monte Carlo estimator, runs all of it in one pass: E[C(T)] and each
party's expected loss given a loss, with no path-sized array. The
quadrature computes E[f(Z)] for Z ~ N(0,1) with a composite
Gauss-Legendre rule, summed in a fixed order. Indicator discontinuities
should be passed as breakpoints so every panel sees a smooth integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import MarketParams, McConfig, OptionContract, rate_factors

__all__ = [
    "McEstimate",
    "RunningMoments",
    "terminal_price",
    "terminal_chunks",
    "realized_losses",
    "simulate_terminal",
    "mc_conditional_loss",
    "quad_rule",
    "quad_expectation",
]


# Paths per chunk of a Monte Carlo sample: the unit of the random stream.
_CHUNK = 262_144
# Paths per block, the unit of work and memory: 256 KiB of float64, so a
# block and its loss temporaries stay in a 2 MiB L2 cache. It divides _CHUNK.
_BLOCK = 32_768


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate: mean, its standard error, and effective count.

    An empty sample's mean is the math.nan object, so two empty estimates compare equal.
    """

    mean: float
    std_error: float
    n_effective: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # Splittable-stream contract: the chunk stream depends only on
    # (seed, chunk_index), never on execution order.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def terminal_price(
    params: MarketParams, expiry: float, z: np.ndarray, growth: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Map standard normal draws to terminal prices at a given growth rate.

    The exact lognormal solution S(T) = S0 exp((g - sigma^2/2) T + sigma sqrt(T) z),
    vectorized: growth g is params.drift for the real-world measure and
    params.risk_free for the risk-neutral one. The result is written to out
    when given; out may be z itself.
    """
    loc = (growth - 0.5 * params.volatility**2) * expiry
    scale = params.volatility * math.sqrt(expiry)
    z = np.asarray(z, dtype=float)
    s = np.multiply(z, scale, out=np.empty_like(z) if out is None else out)
    s += loc
    np.exp(s, out=s)
    s *= params.spot
    return s


def terminal_chunks(params: MarketParams, expiry: float, cfg: McConfig) -> Iterator[np.ndarray]:
    """Yield the real-world terminal-price sample of cfg block by block, in path order.

    Each chunk's generator fills one reused buffer of up to _BLOCK paths in
    turn and terminal_price maps it to S(T) in place, so every draw keeps
    the bits of a whole-chunk fill, no chunk-sized array is made, and a
    block is valid only until the next one is drawn. Every block but the
    last holds _BLOCK paths.
    """
    if not expiry > 0:
        raise ValueError(f"expiry must be positive, got {expiry}")
    buffer = np.empty(min(_BLOCK, cfg.paths))
    for i, chunk_start in enumerate(range(0, cfg.paths, _CHUNK)):
        rng = _chunk_rng(cfg.seed, i)
        for start in range(chunk_start, min(chunk_start + _CHUNK, cfg.paths), _BLOCK):
            block = buffer[: min(_BLOCK, cfg.paths - start)]
            rng.standard_normal(out=block)
            yield terminal_price(params, expiry, block, params.drift, out=block)


def simulate_terminal(params: MarketParams, expiry: float, cfg: McConfig) -> np.ndarray:
    """Sample terminal stock prices S(T) under the real-world drift.

    Each block of terminal_chunks is copied into its slice of the output.

    Returns:
        Array of cfg.paths terminal prices, deterministic for a fixed config.
    """
    out = np.empty(cfg.paths)
    for start, block in zip(range(0, cfg.paths, _BLOCK), terminal_chunks(params, expiry, cfg)):
        out[start : start + block.size] = block
    return out


def realized_losses(
    params: MarketParams, contract: OptionContract, x: float, price: float, terminal, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C(T), writer loss, holder loss) at terminal prices, C(T) = (S(T)-K)^+ computed once.

    The one statement of the loss formulas, in their operation order: the
    writer, hedged with x shares, loses C(T) - x (S(T) - S0 e^{rT}) -
    price e^{rT}, and the holder loses price e^{rT} - C(T), which does not
    depend on x. The three arrays are new (0-d for a scalar), or the rows
    of out, an array of shape (3, len(terminal)), when given.
    """
    s = np.asarray(terminal, dtype=float)
    payoff, writer, holder = (np.empty_like(s) for _ in range(3)) if out is None else out
    compounding = rate_factors(params, contract.expiry)[1]
    premium = price * compounding
    np.subtract(s, contract.strike, out=payoff)
    np.maximum(payoff, 0.0, out=payoff)
    np.subtract(s, params.spot * compounding, out=writer)
    writer *= x
    np.subtract(payoff, writer, out=writer)
    writer -= premium
    np.subtract(premium, payoff, out=holder)
    return payoff, writer, holder


class RunningMoments:
    """Count, mean and sum of squared deviations (M2) of values fed block by block.

    A block's mean is its sum over its count and its M2 the sum of its
    squared deviations from that mean; blocks then merge by the pairwise
    update of Chan, Golub and LeVeque (1983). The first block is taken as
    is, so one block gives exactly numpy's mean and std(ddof=1); an empty
    block changes nothing.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        n = int(values.size)
        if n == 0:
            return
        mean = float(np.add.reduce(values)) / n
        dev = np.subtract(values, mean)
        np.multiply(dev, dev, out=dev)
        m2 = float(np.add.reduce(dev))
        if self.count == 0:
            self.count, self.mean, self.m2 = n, mean, m2
            return
        total = self.count + n
        delta = mean - self.mean
        self.mean += delta * n / total
        self.m2 += m2 + delta * delta * self.count * n / total
        self.count = total

    def estimate(self) -> McEstimate:
        """Mean (nan at n = 0), standard error sqrt(M2 / (n - 1)) / sqrt(n) (inf below 2), n."""
        n = self.count
        std_error = math.sqrt(self.m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf
        return McEstimate(mean=self.mean if n else math.nan, std_error=std_error, n_effective=n)


def mc_conditional_loss(
    params: MarketParams, contract: OptionContract, x: float, price: float, cfg: McConfig
) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Monte Carlo E[C(T)] and each party's expected loss given a loss, in one streamed pass.

    Over the blocks of terminal_chunks, each block's payoffs, computed once,
    and the losses derived from them fill one reused (3, block) buffer; the
    payoffs and the positive losses feed running moments, so no path-sized
    or chunk-sized array is made. Returns the (payoff, writer, holder)
    estimates at hedge fraction x and premium price; a loss's n_effective
    counts the paths where it is positive, its std_error is inf below two,
    and its mean is nan at zero.
    """
    payoff, writer, holder = RunningMoments(), RunningMoments(), RunningMoments()
    losses = np.empty((3, min(_BLOCK, cfg.paths)))
    for block in terminal_chunks(params, contract.expiry, cfg):
        payoffs, w_loss, h_loss = realized_losses(
            params, contract, x, price, block, out=losses[:, : block.size]
        )
        payoff.add(payoffs)
        writer.add(np.compress(w_loss > 0, w_loss))
        holder.add(np.compress(h_loss > 0, h_loss))
    return payoff.estimate(), writer.estimate(), holder.estimate()


# The 12-point Gauss-Legendre rule on [-1, 1], bit for bit as
# np.polynomial.legendre.leggauss(12): mirrored nodes share a weight.
_GL_HALF_NODES = np.array([float.fromhex(h) for h in (
    "0x1.007a5f8f630e4p-3", "0x1.78a8d20a8b19dp-2", "0x1.2cb4f05c077f9p-1",
    "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b3p-1", "0x1.f68f1d8e42e81p-1")])
_GL_HALF_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.fe40ce6d4f022p-3", "0x1.de3155c256aaep-3", "0x1.a0163e6b1ab6bp-3",
    "0x1.47d7258f22d96p-3", "0x1.b60602bce61afp-4", "0x1.8275d9dea6d53p-5")])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Integration window in z of the quadrature rule, and its panel count.
_Z_WINDOW = (-10.0, 10.0)
_PANELS = 50


def quad_rule(breakpoints: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule for E[f(Z)], Z ~ N(0,1).

    The window _Z_WINDOW is cut at every finite breakpoint and each piece
    is covered by panels in proportion to its length, about 0.4 wide in z
    (12 nodes per panel). Panels never straddle a breakpoint, so integrands
    that are smooth between breakpoints (indicators times exponential-affine
    pieces) integrate to near machine precision: on the perfbench validate
    pools of seeds 1-5 (160 suites), every expectation of the two quadrature
    checks agrees with a 2,000-panel rule to 1.1e-15 relative. The weights
    already carry the normal density, so E[f(Z)] is the sum of
    weights * f(z); one rule serves every integrand that shares the
    breakpoints. Sum it with np.add.reduce, whose order is fixed: np.dot
    may split the sum across BLAS threads, so its last bits depend on the
    thread count.

    Args:
        breakpoints: z locations of kinks or jumps; values outside the
            window are ignored.

    Returns:
        Tuple (z, weights) of equal-length arrays.
    """
    lo, hi = _Z_WINDOW
    cuts = sorted({lo, hi, *(b for b in breakpoints if math.isfinite(b) and lo < b < hi)})
    lefts, rights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        edge = np.linspace(a, b, max(1, round(_PANELS * (b - a) / (hi - lo))) + 1)
        lefts.append(edge[:-1])
        rights.append(edge[1:])
    left, right = np.concatenate(lefts), np.concatenate(rights)
    half = (0.5 * (right - left))[:, None]
    mid = (0.5 * (right + left))[:, None]
    # nodes shape: (panels, order) flattened in panel order
    z = (mid + half * _GL_NODES).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    density = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return z, w * density


def quad_expectation(
    integrand: Callable[[np.ndarray], np.ndarray], breakpoints: Sequence[float] = ()
) -> float:
    """E[f(Z)] for standard normal Z by the rule of quad_rule(breakpoints).

    The integrand is a vectorized callable mapping an array of z values to
    integrand values; see quad_rule for breakpoints.
    """
    z, weights = quad_rule(breakpoints)
    return float(np.add.reduce(weights * np.asarray(integrand(z), dtype=float)))
