"""Seeded inputs, requests and output checks for the four benchmark workloads.

Inputs come from the benchmark's own generator, never from the library:
scenarios are Latin-hypercube draws over the ranges documented in
``fairhedge.validation.draw_suite`` (S0 50-200, K/S0 0.5-1.5, sigma
0.05-0.6, r 0-0.08, mu - r up to 0.15, T 0.1-3), redrawn by the same
numeric guards that function states. The hypercube's cells and their
order are fixed per workload; the seed places each draw inside its cell.
So every seed gives new inputs with the same mix of cheap and expensive
scenarios, and a run's medians move with the program, not with the seed.
A pool is sized so that one pass over it fits in a run: every run covers
the whole pool, so its count of failed inputs depends only on the seed and
the program, and inputs that recur are averaged over their passes (see
``perfbench/run.py``). Smile's eight chains keep its median chain from
hinging on one market; quote's 1,024 scenarios do the same for its tail.

Every workload exposes ``request(input)``, the timed call, and
``check(input, output)``, run outside the timed interval. A check returns
``None`` on success, or ``(reason, wrong)``: ``wrong`` is true when the
program returned a value that is incorrect, false when the program itself
signalled the failure (an exception, an error marker, a failed check).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import fairhedge as fh
from fairhedge import cli as fh_cli
from fairhedge import validation as fh_validation

REPO = Path(__file__).resolve().parent.parent
REF_PARAMS = fh.MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)
REF_CONTRACT = fh.OptionContract(strike=100.0, expiry=1.0)
REF_STRIKES = [90.0, 95.0, 100.0, 105.0, 110.0, 115.0]
REF_SMILE_VOLS = [0.2743, 0.2567, 0.2438, 0.2342, 0.2272, 0.2220]
SMILE_STRIKES = 200
THRESHOLD_WINDOW = 8.0


class GateError(Exception):
    """The program missed one of the paper's reference numbers."""


# -- scenario generation ------------------------------------------------------


def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _expected_payoff(s0: float, mu: float, sigma: float, k: float, t: float) -> float:
    """E[(S(T) - K)^+] under drift mu."""
    sig_sqrt_t = sigma * math.sqrt(t)
    d_plus = (math.log(s0 / k) + mu * t + 0.5 * sigma * sigma * t) / sig_sqrt_t
    return s0 * math.exp(mu * t) * _cdf(d_plus) - k * _cdf(d_plus - sig_sqrt_t)


def _price_positive_x_max(s0, mu, sigma, r, k, t) -> float:
    """Hedge fraction at which the fair price crosses zero."""
    slope = 0.5 * s0 * (math.exp(mu * t) - math.exp(r * t)) * math.exp(-r * t)
    return math.exp(-r * t) * _expected_payoff(s0, mu, sigma, k, t) / slope


def _latin_hypercube(
    design: random.Random, jitter: random.Random, n: int, dims: int
) -> list[list[float]]:
    """n points, one per stratum in every dimension; ``design`` pairs the strata."""
    columns = []
    for _ in range(dims):
        strata = list(range(n))
        design.shuffle(strata)
        columns.append([(s + jitter.random()) / n for s in strata])
    return [list(point) for point in zip(*columns)]


def _market(u: list[float]) -> dict:
    r = 0.08 * u[1]
    return {
        "s0": 50.0 + 150.0 * u[0],
        "r": r,
        "mu": r + 0.15 * (1.0 - u[2]),
        "sigma": 0.05 + 0.55 * u[3],
        "t": 0.1 + 2.9 * u[4],
    }


def _stratified(design, jitter, n: int, dims: int, accept) -> list[dict]:
    """n accepted draws; each batch is a Latin hypercube over the remainder."""
    out: list[dict] = []
    while len(out) < n:
        for u in _latin_hypercube(design, jitter, n - len(out), dims):
            scenario = accept(u)
            if scenario is not None:
                out.append(scenario)
    return out


def _quotable(u: list[float]) -> dict | None:
    """A market and strike whose unhedged premium has floating-point meaning."""
    m = _market(u)
    m["k"] = m["s0"] * (0.5 + u[5])
    if _expected_payoff(m["s0"], m["mu"], m["sigma"], m["k"], m["t"]) < 1e-8 * m["s0"]:
        return None
    return m


def _oracle_resolvable(u: list[float]) -> dict | None:
    """A quotable draw whose loss cut points at a random x lie in the window."""
    m = _quotable(u)
    if m is None:
        return None
    s0, mu, sigma, r, k, t = m["s0"], m["mu"], m["sigma"], m["r"], m["k"], m["t"]
    upper = min(fh.MAX_HEDGE_FRACTION, _price_positive_x_max(s0, mu, sigma, r, k, t) * (1 - 1e-3))
    x = upper * u[6]
    if x <= 0.0:
        x = 0.5 * upper
    edge = s0 * (math.exp(mu * t) - math.exp(r * t))
    price = math.exp(-r * t) * (_expected_payoff(s0, mu, sigma, k, t) - 0.5 * x * edge)
    if price < 1e-5 * s0:
        return None
    sig_sqrt_t = sigma * math.sqrt(t)
    shift = 0.5 * sigma * sigma * t - mu * t
    growth = math.exp(r * t)
    d2_arg = (k + (price - x * s0) * growth) / (s0 * (1 - x))
    if d2_arg <= 0:
        return None
    cuts = [
        (math.log(k / s0) + shift) / sig_sqrt_t,
        (math.log(d2_arg) + shift) / sig_sqrt_t,
        (math.log((k + price * growth) / s0) + shift) / sig_sqrt_t,
    ]
    if x * s0 > price:
        cuts.append((math.log((x * s0 - price) * growth / (s0 * x)) + shift) / sig_sqrt_t)
    if any(abs(c) > THRESHOLD_WINDOW for c in cuts):
        return None
    return m


def _smile_market(u: list[float]) -> dict | None:
    """A market on which even the highest strike of the chain is quotable."""
    m = _market(u)
    if _expected_payoff(m["s0"], m["mu"], m["sigma"], 1.6 * m["s0"], m["t"]) < 1e-8 * m["s0"]:
        return None
    return m


def _reference_scenario() -> dict:
    p, c = REF_PARAMS, REF_CONTRACT
    return {"s0": p.spot, "r": p.risk_free, "mu": p.drift, "sigma": p.volatility,
            "t": c.expiry, "k": c.strike}


def _params(m: dict) -> fh.MarketParams:
    return fh.MarketParams(spot=m["s0"], drift=m["mu"], volatility=m["sigma"], risk_free=m["r"])


def _contract(m: dict) -> fh.OptionContract:
    return fh.OptionContract(strike=m["k"], expiry=m["t"])


# -- the correctness gate -----------------------------------------------------


def run_gate() -> None:
    """Check the paper's anchors; raise GateError on any mismatch."""
    price = fh.bs_call_price(REF_PARAMS, REF_CONTRACT)
    quote = fh.minimize_writer_risk(REF_PARAMS, REF_CONTRACT)
    points = fh.volatility_smile(REF_PARAMS, REF_STRIKES, REF_CONTRACT.expiry)
    problems = []
    if not abs(price - 10.45) <= 0.005:
        problems.append(f"Black-Scholes price {price} != 10.45")
    if not abs(quote.x_star - 0.7212) <= 5e-4:
        problems.append(f"x* {quote.x_star} != 0.7212")
    if not abs(quote.price - 12.10) <= 0.01:
        problems.append(f"equilibrium price {quote.price} != 12.10")
    for point, want in zip(points, REF_SMILE_VOLS):
        if point.error is not None or not abs(point.implied_vol - want) <= 5e-4:
            problems.append(f"smile vol at K={point.strike}: {point.implied_vol} != {want}")
    if problems:
        raise GateError("; ".join(problems))


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.design = random.Random(f"{self.name}:design")
        self.jitter = random.Random(f"{self.name}:{seed}")
        self.inputs = self.generate()

    def draw(self, n: int, dims: int, accept) -> list[dict]:
        return _stratified(self.design, self.jitter, n, dims, accept)

    def generate(self) -> list:
        raise NotImplementedError

    def digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()

    def warm_up(self) -> None:
        self.request(self.inputs[0])

    def request(self, item):
        raise NotImplementedError

    def traced_request(self, item):
        """The request as run under tracing, in this process."""
        return self.request(item)

    def check(self, item, output):
        raise NotImplementedError


class QuoteWorkload(Workload):
    """Single-strike minimize_writer_risk over quotable scenarios."""

    name = "quote"
    pool_size = 1024

    def generate(self):
        return [_reference_scenario()] + self.draw(self.pool_size - 1, 6, _quotable)

    def request(self, m):
        return fh.minimize_writer_risk(_params(m), _contract(m))

    def check(self, m, quote):
        return check_quote(m, quote)


def check_quote(m: dict, quote) -> tuple[str, bool] | None:
    """Fair-play identity to 1e-10 and no +-grid-step neighbour better by 1e-9."""
    s0, mu, sigma, r, k, t = m["s0"], m["mu"], m["sigma"], m["r"], m["k"], m["t"]
    x, price = quote.x_star, quote.price
    payoff = _expected_payoff(s0, mu, sigma, k, t)
    compounded = price * math.exp(r * t)
    holder = payoff - compounded
    writer = x * s0 * (math.exp(mu * t) - math.exp(r * t)) + compounded - payoff
    if not abs(holder - writer) <= 1e-10:
        return f"fair-play gap {abs(holder - writer):.3e} at x*={x}", True
    params, contract = _params(m), _contract(m)
    step = fh.NumericConfig().minimizer_grid
    upper = min(fh.MAX_HEDGE_FRACTION, _price_positive_x_max(s0, mu, sigma, r, k, t) * (1 - 1e-9))
    best = quote.report.writer_risk
    for neighbour in (x - step, x + step):
        if not 0.0 <= neighbour <= upper:
            continue
        try:
            risk = fh.writer_risk(params, contract, neighbour).writer_risk
        except fh.PricingError:
            continue
        if best - risk > 1e-9:
            return f"neighbour x={neighbour} beats x*={x} by {best - risk:.3e}", True
    return None


class SmileWorkload(Workload):
    """200-strike volatility_smile chains, K from 0.6 to 1.6 S0."""

    name = "smile"
    pool_size = 8

    def generate(self):
        markets = self.draw(self.pool_size, 5, _smile_market)
        for m in markets:
            m["strikes"] = [m["s0"] * (0.6 + i / (SMILE_STRIKES - 1)) for i in range(SMILE_STRIKES)]
        return markets

    def warm_up(self):
        # A 200-strike chain costs seconds; warm up on the reference chain.
        self.request({**_reference_scenario(), "strikes": REF_STRIKES})

    def request(self, m):
        return fh.volatility_smile(_params(m), m["strikes"], m["t"])

    def check(self, m, points):
        errors = [p for p in points if p.error is not None]
        if errors:
            return f"{len(errors)} error markers, first: {errors[0].error}", False
        params = _params(m)
        for p in points:
            contract = fh.OptionContract(strike=p.strike, expiry=m["t"])
            repriced = fh.bs_call_price(replace(params, volatility=p.implied_vol), contract)
            if not abs(repriced - p.price) <= 1e-8 * abs(p.price):
                return f"K={p.strike}: round trip {repriced} vs price {p.price}", True
        return None


class ValidateWorkload(Workload):
    """run_all_checks at 1e6 paths over oracle-resolvable scenarios."""

    name = "validate"
    pool_size = 32

    def generate(self):
        return [_reference_scenario()] + self.draw(self.pool_size - 1, 7, _oracle_resolvable)

    def request(self, m):
        return fh_validation.run_all_checks(_params(m), _contract(m))

    def check(self, m, results):
        names = [r.name for r in results]
        if len(names) != 9 or len(set(names)) != 9:
            return f"expected 9 distinct checks, got {names}", True
        failed = [f"{r.name} ({r.detail})" for r in results if not r.passed]
        if failed:
            return "failed checks: " + "; ".join(failed), False
        return None


def _flags(m: dict) -> list[str]:
    return ["--s0", repr(m["s0"]), "--mu", repr(m["mu"]), "--sigma", repr(m["sigma"]),
            "--r", repr(m["r"]), "--t", repr(m["t"])]


CLI_COMMANDS = ("price", "quote", "risk-curve", "smile", "validate")


class CliWorkload(Workload):
    """`python -m fairhedge` subprocesses, one at a time, one per command in turn."""

    name = "cli"

    def __init__(self, seed: int) -> None:
        self.env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        self._expected: dict[tuple, list[dict]] = {}
        super().__init__(seed)

    def generate(self):
        # price, quote and risk-curve get seeded scenarios; smile and
        # validate run on the reference market and strikes.
        seeded = iter(self.draw(3, 6, _quotable))
        ref = _reference_scenario()
        argvs = []
        for command in CLI_COMMANDS:
            if command == "smile":
                argv = [command, *_flags(ref), "--strikes", ",".join(map(repr, REF_STRIKES))]
            elif command == "validate":
                argv = [command, *_flags(ref), "--strike", repr(ref["k"]), "--paths", "100000"]
            else:
                m = next(seeded)
                argv = [command, *_flags(m), "--strike", repr(m["k"])]
            argvs.append(argv + ["--format", "csv"])
        return argvs

    def request(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "fairhedge", *argv],
            capture_output=True, text=True, env=self.env, cwd=REPO, check=False,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def traced_request(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fh_cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, output):
        code, stdout, stderr = output
        if code != 0:
            return f"{argv[0]} exited {code}: {stderr.strip()[-200:]}", False
        if argv[0] == "validate":
            report = json.loads(stdout)
            if not report["passed"] or len(report["checks"]) != 9:
                return "validate report did not pass", True
            return None
        return compare_csv(stdout, self._reference_rows(argv))

    def _reference_rows(self, argv) -> list[dict]:
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = reference_rows(argv)
        return self._expected[key]


def _argv_market(argv: list[str]) -> tuple[fh.MarketParams, list[float], float]:
    values = dict(zip(argv[1::2], argv[2::2]))
    m = {name: float(values[f"--{name}"]) for name in ("s0", "mu", "sigma", "r", "t")}
    strikes = values.get("--strike") or values["--strikes"]
    return _params(m), [float(s) for s in strikes.split(",")], m["t"]


def reference_rows(argv: list[str]) -> list[dict]:
    """What the CLI should print, computed from the library in this process."""
    params, strikes, t = _argv_market(argv)
    contract = fh.OptionContract(strike=strikes[0], expiry=t)
    command = argv[0]
    if command == "price":
        x = fh.std_normal_cdf(fh.d_plus_minus(params, contract, params.risk_free)[0])
        price = fh.bs_call_price(params, contract)
        holder, writer = fh.expected_profits(params, contract, x, price)
        return [{"strike": contract.strike, "expiry": t, "x": x, "bs_price": price,
                 "expected_call_payoff": fh.expected_call_payoff_physical(params, contract),
                 "holder_expected_profit": holder, "writer_expected_profit": writer}]
    if command == "quote":
        return [_report_row(fh.minimize_writer_risk(params, contract).report, "x_star")]
    if command == "risk-curve":
        step = fh_cli.RunConfig.grid_step
        rows = []
        for i in range(int(fh.MAX_HEDGE_FRACTION / step) + 1):
            try:
                rows.append(_report_row(fh.writer_risk(params, contract, i * step), "x"))
            except fh.PricingError:
                rows.append({"x": i * step, "error": True})
        return rows
    return [
        {"strike": p.strike, "price": p.price, "x_star": p.x_star, "writer_risk": p.writer_risk,
         "holder_risk": p.holder_risk, "loss_prob": p.loss_prob, "implied_vol": p.implied_vol}
        for p in fh.volatility_smile(params, strikes, t)
    ]


def _report_row(report, x_name: str) -> dict:
    th = report.thresholds
    return {x_name: report.x, "price": report.fair_price, "writer_risk": report.writer_risk,
            "holder_risk": report.holder_risk, "loss_prob": report.loss_prob,
            "d1": th.d1, "d": th.d, "d2": th.d2, "d_prime": th.d_prime}


def same_to_6_digits(a: float, b: float) -> bool:
    """Agreement within one unit in the sixth significant digit."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    exponent = math.floor(math.log10(max(abs(a), abs(b))))
    return abs(a - b) <= 10.0 ** (exponent - 5)


def compare_csv(text: str, expected: list[dict]) -> tuple[str, bool] | None:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != len(expected):
        return f"{len(rows)} CSV rows, expected {len(expected)}", True
    for row, want in zip(rows, expected):
        if want.get("error"):
            if not row.get("error"):
                return f"row {row} should carry an error", True
            continue
        for column, value in want.items():
            if not same_to_6_digits(float(row[column]), value):
                return f"{column}: CLI {row[column]} vs library {value!r}", True
    return None


WORKLOADS = {w.name: w for w in (QuoteWorkload, SmileWorkload, ValidateWorkload, CliWorkload)}
