"""Independent verification engines: Monte Carlo and normal quadrature.

Both engines know nothing about the closed forms they are used to check.
The simulator draws exact lognormal terminal prices (the SDE has a closed
solution, so there is no time-stepping error) chunk by chunk, and
RunningMoments folds a sample into a mean and standard error block by
block, so an estimate needs no path-sized array. The quadrature computes
E[f(Z)] for Z ~ N(0,1) with a composite Gauss-Legendre rule. Indicator
discontinuities should be passed as breakpoints so every panel sees a
smooth integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import MarketParams
from .errors import NoLossEvents

__all__ = [
    "McConfig",
    "McEstimate",
    "QuadConfig",
    "RunningMoments",
    "terminal_price",
    "terminal_chunks",
    "simulate_terminal",
    "mc_conditional_loss",
    "quad_rule",
    "quad_expectation",
]


@dataclass(frozen=True)
class McConfig:
    """Simulation size, seed and chunking.

    Paths are generated chunk by chunk, each chunk from its own stream
    derived from (seed, chunk index), so the sample is bit-identical for a
    fixed (paths, seed, chunk_size) no matter how chunks are scheduled.
    """

    paths: int = 1_000_000
    seed: int = 12345
    chunk_size: int = 262_144

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate: mean, its standard error, and effective count."""

    mean: float
    std_error: float
    n_effective: int


@dataclass(frozen=True)
class QuadConfig:
    """Integration window and panel count for the normal-expectation rule."""

    z_bounds: tuple[float, float] = (-10.0, 10.0)
    panels: int = 2000

    def __post_init__(self) -> None:
        lo, hi = self.z_bounds
        if not hi > lo:
            raise ValueError(f"z_bounds must be increasing, got {self.z_bounds}")
        if self.panels < 1:
            raise ValueError(f"panels must be >= 1, got {self.panels}")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # Splittable-stream contract: the chunk stream depends only on
    # (seed, chunk_index), never on execution order.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def terminal_price(
    params: MarketParams, expiry: float, z: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Map standard normal draws to terminal prices under the real-world drift.

    The exact lognormal solution S(T) = S0 exp((mu - sigma^2/2) T + sigma sqrt(T) z),
    vectorized. The result is written to out when given; out may be z itself.
    """
    loc = (params.drift - 0.5 * params.volatility**2) * expiry
    scale = params.volatility * math.sqrt(expiry)
    z = np.asarray(z, dtype=float)
    s = np.multiply(z, scale, out=np.empty_like(z) if out is None else out)
    s += loc
    np.exp(s, out=s)
    s *= params.spot
    return s


def terminal_chunks(
    params: MarketParams,
    expiry: float,
    cfg: McConfig,
    out: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield the terminal-price sample of cfg chunk by chunk, in chunk order.

    Each chunk's normal draws are written into a buffer and mapped to S(T)
    there by terminal_price. With out (cfg.paths long) chunk i lands in its
    own slice of out; without it every chunk reuses one chunk-sized buffer,
    so a chunk is valid only until the next one is drawn.
    """
    if not expiry > 0:
        raise ValueError(f"expiry must be positive, got {expiry}")
    reuse = out is None
    buffer = np.empty(min(cfg.chunk_size, cfg.paths)) if reuse else out
    for i, start in enumerate(range(0, cfg.paths, cfg.chunk_size)):
        n = min(cfg.chunk_size, cfg.paths - start)
        chunk = buffer[:n] if reuse else buffer[start : start + n]
        _chunk_rng(cfg.seed, i).standard_normal(out=chunk)
        yield terminal_price(params, expiry, chunk, out=chunk)


def simulate_terminal(
    params: MarketParams, expiry: float, cfg: McConfig | None = None
) -> np.ndarray:
    """Sample terminal stock prices S(T) under the real-world drift.

    The chunks of terminal_chunks are written into the output, so no
    chunk-sized temporaries are made.

    Returns:
        Array of cfg.paths terminal prices, deterministic for a fixed config.
    """
    if cfg is None:
        cfg = McConfig()
    out = np.empty(cfg.paths)
    for _ in terminal_chunks(params, expiry, cfg, out=out):
        pass
    return out


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
        """The mean, its standard error sqrt(M2 / (n - 1)) / sqrt(n) (inf at n = 1), and n."""
        n = self.count
        std_error = math.sqrt(self.m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf
        return McEstimate(mean=self.mean, std_error=std_error, n_effective=n)


def mc_conditional_loss(loss_values: Iterable[float]) -> McEstimate:
    """Empirical mean of a loss sample conditional on the loss being positive.

    The strictly positive entries are one block of RunningMoments.

    Args:
        loss_values: Sample of realized losses (any sign).

    Returns:
        McEstimate with the mean over strictly positive entries, its
        standard error, and the count of positive entries.

    Raises:
        NoLossEvents: If no entry is strictly positive.
    """
    arr = np.asarray(loss_values, dtype=float)
    if arr.size == 0:
        raise ValueError("loss sample must be nonempty")
    moments = RunningMoments()
    moments.add(arr[arr > 0])
    if moments.count == 0:
        raise NoLossEvents("no strictly positive losses in the sample")
    return moments.estimate()


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def quad_rule(
    cfg: QuadConfig | None = None, breakpoints: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule for E[f(Z)], Z ~ N(0,1).

    The window cfg.z_bounds is cut at every finite breakpoint and each piece
    is covered by panels in proportion to its length (12 nodes per panel).
    Panels never straddle a breakpoint, so integrands that are smooth
    between breakpoints (indicators times exponential-affine pieces)
    integrate to near machine precision. The weights already carry the
    normal density, so E[f(Z)] is np.dot(weights, f(z)); one rule serves
    every integrand that shares the breakpoints.

    Args:
        cfg: Window and panel count; defaults to QuadConfig().
        breakpoints: z locations of kinks or jumps; values outside the
            window are ignored.

    Returns:
        Tuple (z, weights) of equal-length arrays.
    """
    if cfg is None:
        cfg = QuadConfig()
    lo, hi = cfg.z_bounds
    cuts = sorted({lo, hi, *(b for b in breakpoints if math.isfinite(b) and lo < b < hi)})
    edges: list[np.ndarray] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(1, round(cfg.panels * (b - a) / (hi - lo)))
        edges.append(np.linspace(a, b, n + 1))
    z_parts = []
    w_parts = []
    for edge in edges:
        left, right = edge[:-1], edge[1:]
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        # nodes shape: (panels, order) flattened in panel order
        z_parts.append((mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel())
        w_parts.append((half[:, None] * _GL_WEIGHTS[None, :]).ravel())
    z = np.concatenate(z_parts)
    w = np.concatenate(w_parts)
    density = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return z, w * density


def quad_expectation(
    integrand: Callable[[np.ndarray], np.ndarray],
    cfg: QuadConfig | None = None,
    breakpoints: Sequence[float] = (),
) -> float:
    """E[f(Z)] for standard normal Z by the rule of quad_rule(cfg, breakpoints).

    The integrand is a vectorized callable mapping an array of z values to
    integrand values; see quad_rule for cfg and breakpoints.
    """
    z, weights = quad_rule(cfg, breakpoints)
    return float(np.dot(weights, np.asarray(integrand(z), dtype=float)))
