# Every closed form in the library is backed by two independent engines:
# exact-lognormal Monte Carlo and Gauss-Legendre quadrature against the
# normal density. This reproduces those cross-checks by hand.

import numpy as np

from fairhedge import (
    MarketParams,
    McConfig,
    OptionContract,
    expected_call_payoff_physical,
    minimize_writer_risk,
)
from fairhedge.oracle import mc_conditional_loss, quad_expectation, realized_losses, terminal_price


def main():
    params = MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)
    contract = OptionContract(strike=100.0, expiry=1.0)
    quote = minimize_writer_risk(params, contract)
    report = quote.report

    # Quadrature: E[f(Z)] with the real-world terminal price written as a function of Z.
    def terminal(z):
        return terminal_price(params, contract.expiry, z, params.drift)

    expected_payoff_quad = quad_expectation(
        lambda z: np.maximum(terminal(z) - contract.strike, 0.0)
    )
    closed = expected_call_payoff_physical(params, contract)
    print(f"E[(S-K)+]   closed {closed:.10f}   quadrature {expected_payoff_quad:.10f}")

    def writer_loss(z):
        return realized_losses(params, contract, quote.x_star, quote.price, terminal(z))[1]

    cuts = [report.thresholds.d1, report.thresholds.d, report.thresholds.d2]
    prob_quad = quad_expectation(lambda z: (writer_loss(z) > 0).astype(float), breakpoints=cuts)
    print(f"P(loss)     closed {report.loss_prob:.10f}   quadrature {prob_quad:.10f}")

    # Monte Carlo: one million exact lognormal draws, seeded chunk by chunk so
    # the run is reproducible bit for bit. The oracle's one estimator streams
    # them in blocks of 32,768 paths into running moments, so no million-path
    # array is kept, and returns E[(S-K)+] and both parties' losses given a loss.
    mc = McConfig(paths=1_000_000, seed=20240)
    estimates = mc_conditional_loss(params, contract, quote.x_star, quote.price, mc)
    p, w, h = estimates
    print(f"writer risk closed {report.writer_risk:.6f}   MC {w.mean:.6f} +- {w.std_error:.6f}")
    print(f"holder risk closed {report.holder_risk:.6f}   MC {h.mean:.6f} +- {h.std_error:.6f}")
    print(f"E[(S-K)+]   closed {closed:.6f}   MC {p.mean:.6f} +- {p.std_error:.6f}")

    again = mc_conditional_loss(params, contract, quote.x_star, quote.price, mc)
    print(f"streamed estimates bit-identical on rerun: {again == estimates}")


if __name__ == "__main__":
    main()
