"""Cross-checks of every closed form against the simulation and quadrature engines.

Each check returns a CheckResult; the CLI validate command runs them all
and turns the outcome into an exit code. Tolerances: 1e-8 relative against
quadrature for expectations and risks, 1e-10 for algebraic identities, and
3.5 standard errors against Monte Carlo (the band scales automatically
with the configured path count). Each is defined once, below.

Importing this module does not load numpy. The package binds
fairhedge.oracle but runs it on first use: only the four functions that
sample reach numpy, from their bodies. draw_suite, check_price_vs_quadrature
and _quadrature_risks import it, and check_mc_agreement only calls the
oracle's one Monte Carlo estimator, mc_conditional_loss. The rest run on
math, with one risk kernel per suite, and one priced property grid, built
by run_all_checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

from . import equilibrium as eq
from .core import (
    MarketParams,
    McConfig,
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
    import numpy as np

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
    import numpy as np

    from .oracle import quad_expectation, terminal_price

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


def check_fair_play_identity(
    params: MarketParams, contract: OptionContract, kernel: eq._RiskKernel
) -> CheckResult:
    worst = 0.0
    for x in [x for x in (0.0, 0.25, 0.5, 0.7212, 0.99) if x <= kernel.x_hi]:
        holder, writer = eq.expected_profits(params, contract, x, kernel.fair_price(x))
        worst = max(worst, abs(holder - writer))
    return _bounded("fair_play_identity", worst, _IDENTITY_TOL, f"max abs gap {worst:.3e}")


def _property_grid(kernel: eq._RiskKernel) -> list[float]:
    """The 100 hedge fractions that both property checks test, from u/100 to u.

    They are the bits of numpy's linspace(u/100, u, 100): start + i * step,
    with the last point set to u.
    """
    upper = _sampling_upper(kernel)
    start = upper / 100
    step = (upper - start) / 99
    return [i * step + start for i in range(99)] + [upper]


def check_threshold_ordering(
    kernel: eq._RiskKernel, grid: list[tuple[float, float]]
) -> CheckResult:
    """d1 < d < d2 (where d1 is finite) and d < d' at each (x, fair price) of the grid."""
    violations = 0
    for x, price in grid:
        th = kernel.thresholds(x, price)
        if not ((th.d1 < th.d or not math.isfinite(th.d1)) and th.d < th.d2 and th.d < th.d_prime):
            violations += 1
    detail = f"{violations} violations in {len(grid)} hedge fractions"
    return CheckResult("threshold_ordering", violations == 0, detail)


def check_threshold_arg_monotonicity(
    kernel: eq._RiskKernel, grid: list[tuple[float, float]]
) -> CheckResult:
    """The kernel's d1 and d2 log arguments never fall by over 1e-12 between grid points."""
    args = [kernel.log_args(x, price) for x, price in grid]
    violations = sum(
        now[0] - before[0] < -1e-12 or now[1] - before[1] < -1e-12
        for before, now in zip(args, args[1:])
    )
    detail = f"{violations} violations in {len(grid)} hedge fractions"
    return CheckResult("threshold_arg_monotonicity", violations == 0, detail)


def _quadrature_risks(
    params: MarketParams, contract: OptionContract, reports: list[eq.RiskReport]
) -> list[tuple[float, float, float] | None]:
    """Each report's loss probability and two risks by quadrature, or None with no loss weight.

    Losses come from their definitions on one rule, cut at every report's
    thresholds, and one S(T) array. A report whose writer or holder loss
    event gets no weight on the rule's window has no conditional risk.
    """
    import numpy as np

    from .oracle import quad_rule, realized_losses, terminal_price

    thresholds = [rep.thresholds for rep in reports]
    z, weights = quad_rule([cut for th in thresholds for cut in (th.d1, th.d, th.d2, th.d_prime)])
    terminal = terminal_price(params, contract.expiry, z, params.drift)
    risks = []
    for rep in reports:
        _, w_loss, h_loss = realized_losses(params, contract, rep.x, rep.fair_price, terminal)
        # Summed in numpy's fixed order, as quad_expectation sums: the same bits.
        prob = float(np.add.reduce(weights * (w_loss > 0)))
        h_prob = float(np.add.reduce(weights * (h_loss > 0)))
        if prob == 0.0 or h_prob == 0.0:
            risks.append(None)
            continue
        w_cond = float(np.add.reduce(weights * np.maximum(w_loss, 0.0))) / prob
        h_cond = float(np.add.reduce(weights * np.maximum(h_loss, 0.0))) / h_prob
        risks.append((prob, w_cond, h_cond))
    return risks


def check_risks_vs_quadrature(
    params: MarketParams, contract: OptionContract, kernel: eq._RiskKernel
) -> CheckResult:
    """Closed-form risks at x = 0, 0.25, 0.5 and 0.75 (those in [0, x_hi]) against one rule.

    A fraction whose report raises, or whose loss event gets no quadrature
    weight, is skipped and counted; the check fails when it tests none.
    """
    fractions = [x for x in (0.0, 0.25, 0.5, 0.75) if x <= kernel.x_hi]
    reports = []
    for x in fractions:
        try:
            reports.append(kernel.report(x))
        except PricingError:
            continue
    worst, tested = 0.0, 0
    for report, risks in zip(reports, _quadrature_risks(params, contract, reports)):
        if risks is not None:
            closed = (report.loss_prob, report.writer_risk, report.holder_risk)
            worst = max(worst, *map(rel_err, closed, risks))
            tested += 1
    skipped = len(fractions) - tested
    measured = f"max rel err {worst:.3e} over {tested} hedge fractions"
    measured += f", {skipped} skipped" if skipped else ""
    return _bounded("risks_vs_quadrature", worst, _QUAD_TOL, measured, ok=tested > 0)


def check_mc_agreement(
    params: MarketParams,
    contract: OptionContract,
    mc_cfg: McConfig,
    quote: eq.EquilibriumQuote,
) -> CheckResult:
    """Closed forms at the quote vs the estimates of oracle.mc_conditional_loss, in bands.

    A sample with fewer than two positive losses for either conditional
    risk has no finite band, so the check fails, naming that risk, instead
    of raising; this covers a sample of one path and one with no positive
    loss.
    """
    from .oracle import mc_conditional_loss

    report = quote.report
    n = mc_cfg.paths
    payoff_est, w_est, h_est = mc_conditional_loss(params, contract, quote.x_star, quote.price, mc_cfg)
    for name, est in (("writer_risk", w_est), ("holder_risk", h_est)):
        if est.n_effective < 2:
            noun = "loss" if est.n_effective == 1 else "losses"
            detail = f"{name} has {est.n_effective} positive {noun}; a band needs at least 2"
            return CheckResult("mc_agreement", False, f"{detail}; paths {n}")
    # The writer loses on exactly the paths counted in its positive losses.
    p_hat = w_est.n_effective / n
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


def check_quote_grid_consistency(kernel: eq._RiskKernel, quote: eq.EquilibriumQuote) -> CheckResult:
    """x* +- minimizer_grid in [0, x_hi] scored as the minimizer scores them: inf where no risk.

    One ascending lowest_risk call scores both; the drop to the lower one is the
    largest, because a float subtraction is monotone in what it subtracts.
    """
    step = NumericConfig.minimizer_grid
    neighbours = [x for x in (quote.x_star - step, quote.x_star + step) if 0.0 <= x <= kernel.x_hi]
    lowest = kernel.lowest_risk(neighbours)[0] if neighbours else math.inf
    worst_drop = max(0.0, quote.report.writer_risk - lowest)
    measured = f"x_star {quote.x_star:.6f}; neighbor improvement {worst_drop:.3e}"
    return _bounded("quote_grid_consistency", worst_drop, 1e-9, measured)


def run_all_checks(
    params: MarketParams, contract: OptionContract, mc_cfg: McConfig | None = None
) -> list[CheckResult]:
    """Run the full oracle-equivalence and property suite.

    A contract below the premium floor raises the minimizer's EmptyDomain
    before the first check. The checks run in order and the first exception
    propagates; the quote is computed once, where the Monte Carlo check
    first needs it.
    """
    kernel = eq._RiskKernel(params, contract)
    kernel.require_quotable()
    mc_cfg = mc_cfg or McConfig()
    grid = [(x, kernel.fair_price(x)) for x in _property_grid(kernel)]
    results = [
        check_implied_vol_round_trip(params, contract),
        check_price_vs_quadrature(params, contract),
        check_physical_parity(params, contract),
        check_fair_play_identity(params, contract, kernel),
        check_threshold_ordering(kernel, grid),
        check_threshold_arg_monotonicity(kernel, grid),
        check_risks_vs_quadrature(params, contract, kernel),
    ]
    quote = eq.minimize_writer_risk(params, contract)
    results.append(check_mc_agreement(params, contract, mc_cfg, quote))
    results.append(check_quote_grid_consistency(kernel, quote))
    return results
