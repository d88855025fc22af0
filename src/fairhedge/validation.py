"""Cross-checks of every closed form against the simulation and quadrature engines.

Each check returns a CheckResult; the CLI validate command runs them all
and turns the outcome into an exit code. Tolerances: 1e-8 relative against
quadrature for expectations and risks, 1e-10 for algebraic identities, and
3.5 standard errors against Monte Carlo (the band scales automatically
with the configured path count).
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
    implied_vol,
    rate_factors,
)
from .errors import PricingError
from .oracle import (
    McConfig,
    QuadConfig,
    RunningMoments,
    quad_expectation,
    quad_rule,
    terminal_chunks,
    terminal_price,
)

__all__ = ["CheckResult", "draw_suite", "run_all_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def rel_err(a: float, b: float) -> float:
    """Relative disagreement of two values, safe at zero."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def valid_hedge_upper_bound(params: MarketParams, contract: OptionContract) -> float:
    """Largest searchable x: below both the x < 1 endpoint and price positivity."""
    return min(eq.MAX_HEDGE_FRACTION, eq.price_positive_x_max(params, contract) * (1.0 - 1e-9))


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
    meaning) are redrawn, and x stays a relative 1e-3 inside the
    premium-positivity boundary for the same reason.
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
        upper = min(eq.MAX_HEDGE_FRACTION, kernel.x_max * (1.0 - 1e-3))
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


def check_implied_vol_round_trip(
    params: MarketParams, contract: OptionContract, cfg: NumericConfig
) -> CheckResult:
    worst = 0.0
    for sigma in (0.05, 0.1, 0.2, 0.4, 1.0):
        trial = replace(params, volatility=sigma)
        try:
            recovered = implied_vol(trial, contract, bs_call_price(trial, contract), cfg)
        except PricingError as exc:
            # A deep in-the-money trial can price exactly at its intrinsic
            # bound, where no implied vol exists: the round trip fails.
            detail = f"sigma {sigma}: {type(exc).__name__}: {exc}"
            return CheckResult("implied_vol_round_trip", False, detail)
        worst = max(worst, abs(recovered - sigma))
    return CheckResult(
        "implied_vol_round_trip", worst <= 1e-6, f"max abs err {worst:.3e} (tol 1e-06)"
    )


def check_price_vs_quadrature(
    params: MarketParams, contract: OptionContract, quad_cfg: QuadConfig
) -> CheckResult:
    t = contract.expiry

    def payoff_at(growth: float):
        loc = (growth - 0.5 * params.volatility**2) * t
        scale = params.volatility * math.sqrt(t)

        def payoff(z: np.ndarray) -> np.ndarray:
            return np.maximum(params.spot * np.exp(loc + scale * z) - contract.strike, 0.0)

        return payoff

    kink_q = -d_plus_minus(params, contract, params.risk_free)[1]
    kink_p = -d_plus_minus(params, contract, params.drift)[1]
    bs_quad = rate_factors(params, t)[2] * quad_expectation(
        payoff_at(params.risk_free), quad_cfg, breakpoints=[kink_q]
    )
    epc_quad = quad_expectation(payoff_at(params.drift), quad_cfg, breakpoints=[kink_p])
    err = max(
        rel_err(bs_call_price(params, contract), bs_quad),
        rel_err(expected_call_payoff_physical(params, contract), epc_quad),
    )
    return CheckResult(
        "prices_vs_quadrature", err <= 1e-8, f"max rel err {err:.3e} (tol 1e-08)"
    )


def check_physical_parity(params: MarketParams, contract: OptionContract) -> CheckResult:
    t = contract.expiry
    call = expected_call_payoff_physical(params, contract)
    put = expected_put_payoff_physical(params, contract)
    forward = params.spot * rate_factors(params, t)[0] - contract.strike
    err = abs(call - put - forward) / max(1.0, abs(call), abs(put))
    return CheckResult(
        "physical_put_call_parity", err <= 1e-10, f"rel err {err:.3e} (tol 1e-10)"
    )


def check_fair_play_identity(params: MarketParams, contract: OptionContract) -> CheckResult:
    upper = valid_hedge_upper_bound(params, contract)
    worst = 0.0
    for x in (0.0, 0.25, 0.5, 0.7212, 0.99):
        if x > upper:
            continue
        price = eq.fair_price(params, contract, x)
        holder, writer = eq.expected_profits(params, contract, x, price)
        worst = max(worst, abs(holder - writer))
    return CheckResult(
        "fair_play_identity", worst <= 1e-10, f"max abs gap {worst:.3e} (tol 1e-10)"
    )


def check_threshold_ordering(n_draws: int, seed: int) -> CheckResult:
    violations = 0
    for params, contract, x in draw_suite(n_draws, seed):
        kernel = eq._RiskKernel(params, contract)
        th = kernel.thresholds(x, kernel.fair_price(x))
        if math.isfinite(th.d1) and not th.d1 < th.d:
            violations += 1
        elif not (th.d < th.d2 and th.d < th.d_prime):
            violations += 1
    return CheckResult(
        "threshold_ordering",
        violations == 0,
        f"{violations} violations in {n_draws} draws",
    )


def check_threshold_arg_monotonicity(n_draws: int, seed: int) -> CheckResult:
    violations = 0
    for params, contract, _ in draw_suite(n_draws, seed):
        upper = min(0.99, valid_hedge_upper_bound(params, contract) * 0.99)
        if upper <= 0.02:
            continue
        compounding = rate_factors(params, contract.expiry)[1]
        xs = np.linspace(0.01, upper, 100)
        prices = eq.fair_price(params, contract, xs)
        dead_call = (xs * params.spot - prices) * compounding / (params.spot * xs)
        live_call = (contract.strike + (prices - xs * params.spot) * compounding) / (
            params.spot * (1.0 - xs)
        )
        if np.any(np.diff(dead_call) < -1e-12) or np.any(np.diff(live_call) < -1e-12):
            violations += 1
    return CheckResult(
        "threshold_arg_monotonicity",
        violations == 0,
        f"{violations} violating draws out of {n_draws}",
    )


def quadrature_risk(
    params: MarketParams,
    contract: OptionContract,
    x: float,
    price: float,
    quad_cfg: QuadConfig,
) -> tuple[float, float, float]:
    """Loss probability, writer risk and holder risk from quadrature alone.

    Losses are evaluated from their definitions path by path; the closed-form
    thresholds enter only as panel breakpoints to keep the rule high-order.
    """
    th = eq.risk_thresholds(params, contract, x, price)
    # One rule and one S(T) array serve all four integrands.
    z, weights = quad_rule(quad_cfg, [th.d1, th.d, th.d2, th.d_prime])
    terminal = terminal_price(params, contract.expiry, z)
    w_loss = eq.writer_loss(params, contract, x, price, terminal)
    h_loss = eq.holder_loss(params, contract, price, terminal)

    def expect(values: np.ndarray) -> float:
        return float(np.dot(weights, values))

    prob = expect((w_loss > 0).astype(float))
    w_cond = expect(np.maximum(w_loss, 0.0)) / prob
    h_prob = expect((h_loss > 0).astype(float))
    h_cond = expect(np.maximum(h_loss, 0.0)) / h_prob
    return prob, w_cond, h_cond


def check_risks_vs_quadrature(
    params: MarketParams, contract: OptionContract, quad_cfg: QuadConfig
) -> CheckResult:
    upper = valid_hedge_upper_bound(params, contract)
    worst = 0.0
    tested = 0
    for x in (0.0, 0.25, 0.5, 0.75):
        if x > upper:
            continue
        try:
            report = eq.writer_risk(params, contract, x)
        except PricingError:
            continue
        prob_q, gw_q, gh_q = quadrature_risk(params, contract, x, report.fair_price, quad_cfg)
        worst = max(
            worst,
            rel_err(report.loss_prob, prob_q),
            rel_err(report.writer_risk, gw_q),
            rel_err(report.holder_risk, gh_q),
        )
        tested += 1
    return CheckResult(
        "risks_vs_quadrature",
        tested > 0 and worst <= 1e-8,
        f"max rel err {worst:.3e} over {tested} hedge fractions (tol 1e-08)",
    )


# Paths per block of the Monte Carlo check: 256 KB of float64, so a block
# and its loss temporaries stay in a 2 MB L2 cache.
_MC_BLOCK = 32_768


def check_mc_agreement(
    params: MarketParams,
    contract: OptionContract,
    mc_cfg: McConfig,
    quote: eq.EquilibriumQuote,
) -> CheckResult:
    """Closed forms at the quote vs their Monte Carlo estimates, 3.5 standard errors.

    One streamed pass: each chunk of the sample is walked in blocks of
    _MC_BLOCK paths, whose payoffs and positive writer and holder losses
    feed running moments, so no path-sized array is made. A sample too
    small to give a standard error, or with fewer than two positive losses
    for a conditional risk (so no finite band), fails the check instead of
    raising.
    """
    report = quote.report
    n = mc_cfg.paths
    if n < 2:
        detail = f"needs at least 2 paths for a standard error; paths {n}"
        return CheckResult("mc_agreement", False, detail)

    payoff, writer, holder = RunningMoments(), RunningMoments(), RunningMoments()
    for chunk in terminal_chunks(params, contract.expiry, mc_cfg):
        for start in range(0, chunk.size, _MC_BLOCK):
            terminal = chunk[start : start + _MC_BLOCK]
            payoffs = np.subtract(terminal, contract.strike)
            payoff.add(np.maximum(payoffs, 0.0, out=payoffs))
            losses = eq.writer_loss(params, contract, quote.x_star, quote.price, terminal)
            writer.add(losses[losses > 0])
            losses = eq.holder_loss(params, contract, quote.price, terminal)
            holder.add(losses[losses > 0])

    if writer.count == 0 or holder.count == 0:
        return CheckResult(
            "mc_agreement", False, f"no strictly positive losses in the sample; paths {n}"
        )
    for name, moments in (("writer_risk", writer), ("holder_risk", holder)):
        if moments.count < 2:
            detail = f"{name} has {moments.count} positive loss; a band needs at least 2"
            return CheckResult("mc_agreement", False, f"{detail}; paths {n}")
    payoff_est, w_est, h_est = payoff.estimate(), writer.estimate(), holder.estimate()
    # The writer loses on exactly the paths counted in its positive losses.
    p_hat = writer.count / n
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    gaps = [
        (
            "expected_call",
            abs(expected_call_payoff_physical(params, contract) - payoff_est.mean),
            3.5 * payoff_est.std_error,
        ),
        ("loss_prob", abs(report.loss_prob - p_hat), 3.5 * p_se),
        ("writer_risk", abs(report.writer_risk - w_est.mean), 3.5 * w_est.std_error),
        ("holder_risk", abs(report.holder_risk - h_est.mean), 3.5 * h_est.std_error),
    ]

    passed = all(gap <= band for _, gap, band in gaps)
    detail = "; ".join(f"{name} gap {gap:.2e} (band {band:.2e})" for name, gap, band in gaps)
    return CheckResult("mc_agreement", passed, f"{detail}; paths {n}")


def check_quote_grid_consistency(
    params: MarketParams,
    contract: OptionContract,
    numeric_cfg: NumericConfig,
    quote: eq.EquilibriumQuote,
) -> CheckResult:
    upper = valid_hedge_upper_bound(params, contract)
    best = quote.report.writer_risk
    worst_drop = 0.0
    for x in (quote.x_star - numeric_cfg.minimizer_grid, quote.x_star + numeric_cfg.minimizer_grid):
        if 0.0 <= x <= upper:
            worst_drop = max(
                worst_drop, best - eq.writer_risk(params, contract, x).writer_risk
            )
    return CheckResult(
        "quote_grid_consistency",
        worst_drop <= 1e-9,
        f"x_star {quote.x_star:.6f}; neighbor improvement {worst_drop:.3e} (tol 1e-09)",
    )


def run_all_checks(
    params: MarketParams,
    contract: OptionContract,
    numeric_cfg: NumericConfig | None = None,
    mc_cfg: McConfig | None = None,
    quad_cfg: QuadConfig | None = None,
    ordering_draws: int = 200,
    monotonicity_draws: int = 50,
    seed: int = 2024,
) -> list[CheckResult]:
    """Run the full oracle-equivalence and property suite.

    The checks run in order and the first exception propagates; the quote
    is computed once, where the Monte Carlo check first needs it.
    """
    numeric_cfg = numeric_cfg or NumericConfig()
    mc_cfg = mc_cfg or McConfig()
    quad_cfg = quad_cfg or QuadConfig()
    results = [
        check_implied_vol_round_trip(params, contract, numeric_cfg),
        check_price_vs_quadrature(params, contract, quad_cfg),
        check_physical_parity(params, contract),
        check_fair_play_identity(params, contract),
        check_threshold_ordering(ordering_draws, seed),
        check_threshold_arg_monotonicity(monotonicity_draws, seed + 1),
        check_risks_vs_quadrature(params, contract, quad_cfg),
    ]
    quote = eq.minimize_writer_risk(params, contract, numeric_cfg)
    results.append(check_mc_agreement(params, contract, mc_cfg, quote))
    results.append(check_quote_grid_consistency(params, contract, numeric_cfg, quote))
    return results
