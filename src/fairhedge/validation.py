"""Cross-checks of every closed form against the simulation and quadrature engines.

Each check returns a CheckResult; the CLI validate command runs them all
and turns the outcome into an exit code. Tolerances: 1e-8 relative against
quadrature for expectations and risks, 1e-10 for algebraic identities, and
3.5 standard errors against Monte Carlo (the band scales automatically
with the configured path count). Each is defined once, below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import equilibrium as eq
from .core import (
    MarketParams,
    NumericConfig,
    OptionContract,
    bs_call_price,
    d_plus_minus,
    expected_call_payoff_physical,
    expected_put_payoff_physical,
    rate_factors,
    _implied_vol_otm,
    _otm_price,
)
from .errors import PricingError
from .oracle import (
    McConfig,
    RunningMoments,
    quad_expectation,
    quad_rule,
    terminal_chunks,
    terminal_price,
)

__all__ = ["CheckResult", "draw_suite", "run_all_checks"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_QUAD_TOL = 1e-8  # relative, closed form against quadrature
_IDENTITY_TOL = 1e-10  # algebraic identities
_MC_BAND_SE = 3.5  # Monte Carlo band, in standard errors


def _bounded(name: str, value: float, tol: float, measured: str, ok: bool = True) -> CheckResult:
    """Passes when value <= tol and ok; the detail is the measured text and the tolerance."""
    return CheckResult(name, ok and value <= tol, f"{measured} (tol {tol:.0e})")


def _in_domain(params: MarketParams, contract: OptionContract, xs) -> list[float]:
    """The fixed hedge fractions xs that lie in the kernel's hedge domain [0, x_hi]."""
    upper = eq._RiskKernel(params, contract).x_hi
    return [x for x in xs if 0.0 <= x <= upper]


def rel_err(a: float, b: float) -> float:
    """Relative disagreement of two values, safe at zero."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


# Relative margin inside x_max for sampled and property-checked x (see draw_suite).
_SAMPLING_MARGIN = 1e-3


def _sampling_upper(kernel: eq._RiskKernel) -> float:
    return min(eq.MAX_HEDGE_FRACTION, kernel.x_max * (1.0 - _SAMPLING_MARGIN))


def draw_suite(
    n: int, seed: int = 2024, threshold_window: float | None = None
) -> Iterator[tuple[MarketParams, OptionContract, float]]:
    """Random market scenarios restricted to the valid hedging domain.

    Ranges: S0 in [50, 200], K in [0.5, 1.5] S0, sigma in [0.05, 0.6],
    r in [0, 0.08], mu - r in (0, 0.15], T in [0.1, 3], x in (0, 1)
    intersected with {fair price > 0}.

    Two numeric guards keep every draw representable in doubles: contracts
    below the premium floor that minimize_writer_risk refuses to quote (an
    expected payoff under 1e-8 of spot, which perturbs the strike below one
    ulp, so the strict threshold inequalities have no floating-point
    meaning) are redrawn, and x stays a relative _SAMPLING_MARGIN inside the
    premium-positivity boundary for the same reason (wider than the kernel's
    1e-12 margin, since narrowing it would re-draw every seeded input).
    With threshold_window set, draws are further redrawn until every loss
    threshold lies within [-window, window], which makes the loss events
    resolvable by a quadrature oracle on a [-10, 10] z window.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < n:
        s0 = rng.uniform(50.0, 200.0)
        r = rng.uniform(0.0, 0.08)
        params = MarketParams(
            spot=s0,
            drift=r + 0.15 * (1.0 - rng.uniform(0.0, 1.0)),
            volatility=rng.uniform(0.05, 0.6),
            risk_free=r,
        )
        contract = OptionContract(strike=s0 * rng.uniform(0.5, 1.5), expiry=rng.uniform(0.1, 3.0))
        kernel = eq._RiskKernel(params, contract)
        if kernel.below_premium_floor:
            continue
        upper = _sampling_upper(kernel)
        x = upper * rng.uniform(0.0, 1.0)
        if x <= 0.0:
            x = 0.5 * upper
        if threshold_window is not None:
            # Oracle-resolvable draws only: every loss boundary inside the
            # window, and a premium big enough that pointwise loss values
            # clear the cancellation noise (~1 ulp of the strike) that the
            # definitional integrands pick up near the payoff kink.
            price = kernel.fair_price(x)
            if price < 1e-5 * s0:
                continue
            th = kernel.thresholds(x, price)
            bounded = (math.isinf(th.d1) or abs(th.d1) <= threshold_window) and all(
                abs(v) <= threshold_window for v in (th.d, th.d2, th.d_prime)
            )
            if not bounded:
                continue
        produced += 1
        yield params, contract, x


_ROUND_TRIP_SIGMAS = (0.05, 0.1, 0.2, 0.4, 1.0)


def check_implied_vol_round_trip(params: MarketParams, contract: OptionContract) -> CheckResult:
    """Each trial sigma's out-of-the-money price, inverted by the implied-vol solver."""
    worst = 0.0
    for sigma in _ROUND_TRIP_SIGMAS:
        trial = replace(params, volatility=sigma)
        try:
            recovered = _implied_vol_otm(trial, contract, _otm_price(trial, contract))
        except PricingError as exc:
            # A deep out-of-the-money trial price can underflow to zero,
            # where no implied vol exists: the round trip fails.
            detail = f"sigma {sigma}: {type(exc).__name__}: {exc}"
            return CheckResult("implied_vol_round_trip", False, detail)
        worst = max(worst, abs(recovered - sigma))
    return _bounded("implied_vol_round_trip", worst, 1e-6, f"max abs err {worst:.3e}")


def check_price_vs_quadrature(params: MarketParams, contract: OptionContract) -> CheckResult:
    t = contract.expiry

    def expected_payoff(growth: float) -> float:
        return quad_expectation(
            lambda z: np.maximum(terminal_price(params, t, z, growth) - contract.strike, 0.0),
            breakpoints=[-d_plus_minus(params, contract, growth)[1]],
        )

    discount = rate_factors(params, t)[2]
    err = max(
        rel_err(bs_call_price(params, contract), discount * expected_payoff(params.risk_free)),
        rel_err(expected_call_payoff_physical(params, contract), expected_payoff(params.drift)),
    )
    return _bounded("prices_vs_quadrature", err, _QUAD_TOL, f"max rel err {err:.3e}")


def check_physical_parity(params: MarketParams, contract: OptionContract) -> CheckResult:
    t = contract.expiry
    call = expected_call_payoff_physical(params, contract)
    put = expected_put_payoff_physical(params, contract)
    forward = params.spot * rate_factors(params, t)[0] - contract.strike
    err = abs(call - put - forward) / max(1.0, abs(call), abs(put))
    return _bounded("physical_put_call_parity", err, _IDENTITY_TOL, f"rel err {err:.3e}")


def check_fair_play_identity(params: MarketParams, contract: OptionContract) -> CheckResult:
    worst = 0.0
    for x in _in_domain(params, contract, (0.0, 0.25, 0.5, 0.7212, 0.99)):
        price = eq.fair_price(params, contract, x)
        holder, writer = eq.expected_profits(params, contract, x, price)
        worst = max(worst, abs(holder - writer))
    return _bounded("fair_play_identity", worst, _IDENTITY_TOL, f"max abs gap {worst:.3e}")


def _property_grid(kernel: eq._RiskKernel) -> np.ndarray:
    """The 100 hedge fractions linspace(u/100, u, 100) that both property checks test."""
    upper = _sampling_upper(kernel)
    return np.linspace(upper / 100, upper, 100)


def check_threshold_ordering(params: MarketParams, contract: OptionContract) -> CheckResult:
    """d1 < d < d2 (where d1 is finite) and d < d' at the fair price, on the property grid."""
    kernel = eq._RiskKernel(params, contract)
    xs = _property_grid(kernel).tolist()
    violations = 0
    for x in xs:
        th = kernel.thresholds(x, kernel.fair_price(x))
        if not ((th.d1 < th.d or not math.isfinite(th.d1)) and th.d < th.d2 and th.d < th.d_prime):
            violations += 1
    detail = f"{violations} violations in {len(xs)} hedge fractions"
    return CheckResult("threshold_ordering", violations == 0, detail)


def check_threshold_arg_monotonicity(params: MarketParams, contract: OptionContract) -> CheckResult:
    """The d1 and d2 log arguments never fall by over 1e-12 between property-grid points."""
    kernel = eq._RiskKernel(params, contract)
    xs, s0, compounding = _property_grid(kernel), params.spot, kernel.compounding
    prices = kernel.price(xs)
    dead_call = (xs * s0 - prices) * compounding / (s0 * xs)
    live_call = (contract.strike + (prices - xs * s0) * compounding) / (s0 * (1.0 - xs))
    falls = (np.diff(dead_call) < -1e-12) | (np.diff(live_call) < -1e-12)
    violations = int(np.count_nonzero(falls))
    detail = f"{violations} violations in {xs.size} hedge fractions"
    return CheckResult("threshold_arg_monotonicity", violations == 0, detail)


def quadrature_risk(
    params: MarketParams, contract: OptionContract, x: float, price: float
) -> tuple[float, float, float]:
    """Loss probability, writer risk and holder risk from quadrature alone.

    Losses are evaluated from their definitions path by path; the closed-form
    thresholds enter only as panel breakpoints to keep the rule high-order.
    """
    th = eq.risk_thresholds(params, contract, x, price)
    # One rule and one S(T) array serve all four integrands.
    z, weights = quad_rule([th.d1, th.d, th.d2, th.d_prime])
    terminal = terminal_price(params, contract.expiry, z, params.drift)
    _, w_loss, h_loss = eq._realized_losses(params, contract, x, price, terminal)

    def expect(values: np.ndarray) -> float:
        return float(np.dot(weights, values))

    prob = expect((w_loss > 0).astype(float))
    w_cond = expect(np.maximum(w_loss, 0.0)) / prob
    h_prob = expect((h_loss > 0).astype(float))
    h_cond = expect(np.maximum(h_loss, 0.0)) / h_prob
    return prob, w_cond, h_cond


def check_risks_vs_quadrature(params: MarketParams, contract: OptionContract) -> CheckResult:
    worst = 0.0
    tested = 0
    for x in _in_domain(params, contract, (0.0, 0.25, 0.5, 0.75)):
        try:
            report = eq.writer_risk(params, contract, x)
        except PricingError:
            continue
        prob_q, gw_q, gh_q = quadrature_risk(params, contract, x, report.fair_price)
        worst = max(
            worst,
            rel_err(report.loss_prob, prob_q),
            rel_err(report.writer_risk, gw_q),
            rel_err(report.holder_risk, gh_q),
        )
        tested += 1
    measured = f"max rel err {worst:.3e} over {tested} hedge fractions"
    return _bounded("risks_vs_quadrature", worst, _QUAD_TOL, measured, ok=tested > 0)


# Paths per block of the Monte Carlo check: 256 KB of float64, so a block
# and its loss temporaries stay in a 2 MB L2 cache.
_MC_BLOCK = 32_768


def check_mc_agreement(
    params: MarketParams,
    contract: OptionContract,
    mc_cfg: McConfig,
    quote: eq.EquilibriumQuote,
) -> CheckResult:
    """Closed forms at the quote vs their Monte Carlo estimates, _MC_BAND_SE standard errors.

    One streamed pass: each chunk of the sample is walked in blocks of
    _MC_BLOCK paths: each block's payoffs, computed once, and the positive
    writer and holder losses derived from them feed running moments, so no
    path-sized array is made. A sample with fewer than two positive losses
    for either conditional risk has no finite band, so the check fails,
    naming that risk, instead of raising; this covers a sample of one path
    and one with no positive loss.
    """
    report = quote.report
    n = mc_cfg.paths
    payoff, writer, holder = RunningMoments(), RunningMoments(), RunningMoments()
    for chunk in terminal_chunks(params, contract.expiry, mc_cfg):
        for start in range(0, chunk.size, _MC_BLOCK):
            payoffs, w_loss, h_loss = eq._realized_losses(
                params, contract, quote.x_star, quote.price, chunk[start : start + _MC_BLOCK]
            )
            payoff.add(payoffs)
            writer.add(np.compress(w_loss > 0, w_loss))
            holder.add(np.compress(h_loss > 0, h_loss))

    for name, moments in (("writer_risk", writer), ("holder_risk", holder)):
        if moments.count < 2:
            losses = "loss" if moments.count == 1 else "losses"
            detail = f"{name} has {moments.count} positive {losses}; a band needs at least 2"
            return CheckResult("mc_agreement", False, f"{detail}; paths {n}")
    payoff_est, w_est, h_est = payoff.estimate(), writer.estimate(), holder.estimate()
    # The writer loses on exactly the paths counted in its positive losses.
    p_hat = writer.count / n
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    expected_call = expected_call_payoff_physical(params, contract)
    measured = [
        ("expected_call", abs(expected_call - payoff_est.mean), payoff_est.std_error),
        ("loss_prob", abs(report.loss_prob - p_hat), p_se),
        ("writer_risk", abs(report.writer_risk - w_est.mean), w_est.std_error),
        ("holder_risk", abs(report.holder_risk - h_est.mean), h_est.std_error),
    ]
    gaps = [(name, gap, _MC_BAND_SE * se) for name, gap, se in measured]
    passed = all(gap <= band for _, gap, band in gaps)
    detail = "; ".join(f"{name} gap {gap:.2e} (band {band:.2e})" for name, gap, band in gaps)
    return CheckResult("mc_agreement", passed, f"{detail}; paths {n}")


def check_quote_grid_consistency(
    params: MarketParams, contract: OptionContract, quote: eq.EquilibriumQuote
) -> CheckResult:
    best = quote.report.writer_risk
    worst_drop = 0.0
    step = NumericConfig.minimizer_grid
    for x in _in_domain(params, contract, (quote.x_star - step, quote.x_star + step)):
        worst_drop = max(worst_drop, best - eq.writer_risk(params, contract, x).writer_risk)
    measured = f"x_star {quote.x_star:.6f}; neighbor improvement {worst_drop:.3e}"
    return _bounded("quote_grid_consistency", worst_drop, 1e-9, measured)


def run_all_checks(
    params: MarketParams, contract: OptionContract, mc_cfg: McConfig | None = None
) -> list[CheckResult]:
    """Run the full oracle-equivalence and property suite.

    The checks run in order and the first exception propagates; the quote
    is computed once, where the Monte Carlo check first needs it.
    """
    mc_cfg = mc_cfg or McConfig()
    results = [
        check_implied_vol_round_trip(params, contract),
        check_price_vs_quadrature(params, contract),
        check_physical_parity(params, contract),
        check_fair_play_identity(params, contract),
        check_threshold_ordering(params, contract),
        check_threshold_arg_monotonicity(params, contract),
        check_risks_vs_quadrature(params, contract),
    ]
    quote = eq.minimize_writer_risk(params, contract)
    results.append(check_mc_agreement(params, contract, mc_cfg, quote))
    results.append(check_quote_grid_consistency(params, contract, quote))
    return results
