# The fair-play premium depends on how many shares the writer holds, and
# the writer's conditional expected loss picks the hedge. This walks the
# risk curve and lands on the equilibrium quote.

import numpy as np

from fairhedge import MarketParams, OptionContract, minimize_writer_risk, writer_risk


def main():
    params = MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)
    contract = OptionContract(strike=100.0, expiry=1.0)

    print("     x      C_x   gamma_W   gamma_H   P(loss)")
    grid = np.arange(0.0, 1.0, 0.05)
    for x in grid:
        report = writer_risk(params, contract, float(x))
        print(
            f"  {x:4.2f}  {report.fair_price:7.4f}  {report.writer_risk:8.4f}"
            f"  {report.holder_risk:8.4f}   {report.loss_prob:7.4f}"
        )

    quote = minimize_writer_risk(params, contract)
    print()
    print(f"risk-minimizing hedge  x* = {quote.x_star:.4f}")
    print(f"equilibrium premium   C_x* = {quote.price:.4f}")
    print(f"writer risk at x*           {quote.report.writer_risk:.4f}")
    print(f"holder risk at x*           {quote.report.holder_risk:.4f}")
    print()
    print("Both parties expect the same profit at C_x*; the writer cannot do")
    print("better on conditional loss anywhere in [0, 1).")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return

    xs = np.arange(0.0, 0.999, 0.002)
    reports = [writer_risk(params, contract, float(x)) for x in xs]
    gamma_w = [r.writer_risk for r in reports]
    gamma_h = [r.holder_risk for r in reports]
    prices = [r.fair_price for r in reports]

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
    ax1.plot(xs, gamma_w, label="writer risk")
    ax1.plot(xs, gamma_h, label="holder risk")
    ax1.axvline(quote.x_star, color="grey", ls="--", lw=0.8)
    ax1.set_xlabel("hedge fraction x")
    ax1.set_ylabel("conditional expected loss")
    ax1.legend()
    ax2.plot(xs, prices)
    ax2.axvline(quote.x_star, color="grey", ls="--", lw=0.8)
    ax2.set_xlabel("hedge fraction x")
    ax2.set_ylabel("fair premium C_x")
    fig.tight_layout()
    fig.savefig("risk_curves.png", dpi=150)
    print("saved plot -> risk_curves.png")


if __name__ == "__main__":
    main()
