"""Command-line front end: price, quote, risk-curve, smile, validate.

Market and contract parameters come from a flat JSON config file and/or
flags (flags win). Results are emitted as CSV (6 significant digits) or
JSON (full precision) to stdout or --out. Exit codes: 0 success,
1 validation-suite failure, 2 config or parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import equilibrium as eq
from .core import (
    MarketParams,
    McConfig,
    OptionContract,
    bs_call_price,
    d_plus_minus,
    expected_call_payoff_physical,
    std_normal_cdf,
)
from .errors import NonpositivePrice, PricingError

__all__ = ["RunConfig", "build_parser", "main", "run"]

SMILE_CSV_HEADER = "strike,price,x_star,writer_risk,holder_risk,loss_prob,implied_vol,error"
# Most Monte Carlo paths a config may ask for: validate's Monte Carlo check
# streams about 4.5e7 paths/s on one core of a 2-core x86-64 VM (1e8 paths in
# 2.2 s), so 10**9 paths take about 22 s.
MAX_PATHS = 10**9


@dataclass
class RunConfig:
    """Parsed run settings; strikes holds one entry per contract."""

    s0: float
    mu: float
    sigma: float
    r: float
    t: float
    strikes: list[float]
    x: float | None = None
    paths: int = McConfig.paths
    seed: int = McConfig.seed
    grid_step: float = 0.01
    format: str = "csv"
    out: str | None = None
    reval_t: float | None = None
    reval_spot: float | None = None

    def market(self) -> MarketParams:
        return MarketParams(spot=self.s0, drift=self.mu, volatility=self.sigma, risk_free=self.r)

    def single_contract(self) -> OptionContract:
        if len(self.strikes) != 1:
            raise ValueError(f"this command needs exactly one strike, got {len(self.strikes)}")
        return OptionContract(strike=self.strikes[0], expiry=self.t)

    def mc(self) -> McConfig:
        return McConfig(paths=self.paths, seed=self.seed)


_EVERY_COMMAND = ("price", "quote", "risk-curve", "smile", "validate")
# Each numeric setting once: its type, its help text and the commands that
# read it. A command takes a flag only for the settings it reads; a config
# file may hold every key, so one file serves every command.
_SETTINGS = {
    "s0": (float, "spot price", _EVERY_COMMAND),
    "mu": (float, "real-world drift (annual)", _EVERY_COMMAND),
    "sigma": (float, "volatility (annual)", _EVERY_COMMAND),
    "r": (float, "risk-free rate (annual)", _EVERY_COMMAND),
    "t": (float, "expiry in years", _EVERY_COMMAND),
    "x": (float, "hedge fraction (shares per option)", ("price", "risk-curve")),
    "paths": (int, "Monte Carlo paths", ("validate",)),
    "seed": (int, "Monte Carlo seed", ("validate",)),
    "grid_step": (float, "x grid step", ("risk-curve",)),
    "reval_t": (float, "re-valuation time (years from start)", ("quote",)),
    "reval_spot": (float, "spot at the re-valuation time (defaults to s0)", ("quote",)),
}
# Config-file keys are the RunConfig fields, one to one.
_CONFIG_KEYS = frozenset(field.name for field in fields(RunConfig))


def parse_config(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a flat mapping; a None value means "not set"."""
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in ("s0", "mu", "sigma", "r", "t", "strikes") if data.get(k) is None]
    if missing:
        raise ValueError(f"missing required config key(s): {', '.join(missing)}")

    def as_float(key: str, value) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        # A JSON true/false is not a number; 1e400 parses as inf, 10**400 overflows.
        if isinstance(value, bool) or not math.isfinite(number):
            raise ValueError(f"config key '{key}' must be a finite number, got {value!r}")
        return number

    def as_int(key: str, value) -> int:
        number = as_float(key, value)
        if not number.is_integer():
            raise ValueError(f"config key '{key}' must be an integer, got {value!r}")
        return value if isinstance(value, int) else int(number)

    strikes = data["strikes"]
    if isinstance(strikes, (int, float)):
        strikes = [strikes]
    if not isinstance(strikes, (list, tuple)) or not strikes:
        raise ValueError("config key 'strikes' must be a nonempty list of prices")
    fmt = RunConfig.format if data.get("format") is None else data["format"]
    if fmt not in ("csv", "json"):
        raise ValueError(f"config key 'format' must be 'csv' or 'json', got {fmt!r}")
    settings = {
        key: (as_int if kind is int else as_float)(key, data[key])
        for key, (kind, _, _) in _SETTINGS.items()
        if data.get(key) is not None
    }
    cfg = RunConfig(**settings, strikes=[as_float("strikes", k) for k in strikes],
                    format=fmt, out=data.get("out"))
    # Fail fast on invariant violations so bad configs exit 2, not 3;
    # the market, contract and Monte Carlo records own their own rules.
    cfg.market()
    for k in cfg.strikes:
        OptionContract(strike=k, expiry=cfg.t)
    if cfg.x is not None and not 0.0 <= cfg.x < 1.0:
        raise ValueError(f"config key 'x' must lie in [0, 1), got {cfg.x}")
    cfg.mc()
    if not cfg.grid_step > 0:
        raise ValueError(f"config key 'grid_step' must be positive, got {cfg.grid_step}")
    if not eq.MAX_HEDGE_FRACTION / cfg.grid_step < 1e6:  # risk-curve: at most 1e6 x points
        raise ValueError(f"config key 'grid_step' gives over 1,000,000 x points, got {cfg.grid_step}")
    if cfg.paths > MAX_PATHS:
        raise ValueError(f"config key 'paths' must be at most {MAX_PATHS:,}, got {cfg.paths}")
    if cfg.reval_spot is not None and cfg.reval_t is None:
        raise ValueError("config key 'reval_spot' needs 'reval_t'")
    if cfg.out is not None and (
        not isinstance(cfg.out, str) or not cfg.out or os.path.isdir(cfg.out)
        or not os.path.isdir(os.path.dirname(cfg.out) or os.curdir)
    ):
        raise ValueError(f"config key 'out' is not a writable file path: {cfg.out!r}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairhedge",
        description="Equilibrium pricing of a non-traded call under a static hedge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        cmd.add_argument("--config", help="JSON config file; flags override its values")
        # risk-curve reads --x as a one-point grid, which leaves no use for --grid-step.
        x_or_grid = cmd.add_mutually_exclusive_group() if command == "risk-curve" else cmd
        for key, (kind, text, readers) in _SETTINGS.items():
            if command in readers:
                group = x_or_grid if key in ("x", "grid_step") else cmd
                group.add_argument("--" + key.replace("_", "-"), type=kind, dest=key, help=text)
        strike_group = cmd.add_mutually_exclusive_group()
        strike_group.add_argument("--strike", type=float, help="single strike")
        strike_group.add_argument("--strikes", help="comma-separated strikes")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format")
        cmd.add_argument("--out", help="output file (default stdout)")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        data.update(loaded)
    # A command has no attribute for a flag it does not take; --strike/--strikes are parsed below.
    for key in _CONFIG_KEYS - {"strikes"}:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.strike is not None:
        data["strikes"] = [args.strike]
    elif args.strikes is not None:
        try:
            data["strikes"] = [float(tok) for tok in args.strikes.split(",")]
        except ValueError:
            raise ValueError(f"--strikes must be comma-separated numbers, got {args.strikes!r}") from None
    return parse_config(data)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return f"{value}"  # "inf", "-inf" or "nan"
    return value


def _render(rows: dict | list[dict], header: list[str], fmt: str) -> str:
    single = isinstance(rows, dict)  # a one-row command's dict is one JSON object, a table a list
    rows = [rows] if single else rows
    if fmt == "csv":  # quoted by the csv module's rules: error messages may hold commas
        out = io.StringIO()
        table = [header] + [[_csv_cell(row.get(col)) for col in header] for row in rows]
        csv.writer(out, lineterminator="\n").writerows(table)
        return out.getvalue()
    payload = [{k: _json_cell(row.get(k)) for k in header} for row in rows]
    return json.dumps(payload[0] if single else payload, indent=2) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is not None:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out path {cfg.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_price(cfg: RunConfig) -> int:
    params, contract = cfg.market(), cfg.single_contract()
    x = cfg.x if cfg.x is not None else std_normal_cdf(d_plus_minus(params, contract, params.risk_free)[0])
    price = bs_call_price(params, contract)
    if not price > 0:
        raise NonpositivePrice(f"Black-Scholes price is {price}; expected profits need a positive premium")
    holder, writer = eq.expected_profits(params, contract, x, price)
    row = {
        "strike": contract.strike,
        "expiry": contract.expiry,
        "x": x,
        "bs_price": price,
        "expected_call_payoff": expected_call_payoff_physical(params, contract),
        "holder_expected_profit": holder,
        "writer_expected_profit": writer,
    }
    _emit(cfg, _render(row, list(row), cfg.format))
    return 0


def _report_row(report: eq.RiskReport, x_key: str) -> dict:
    th = report.thresholds
    return {
        x_key: report.x,
        "price": report.fair_price,
        "writer_risk": report.writer_risk,
        "holder_risk": report.holder_risk,
        "loss_prob": report.loss_prob,
        "d1": th.d1,
        "d": th.d,
        "d2": th.d2,
        "d_prime": th.d_prime,
    }


def cmd_quote(cfg: RunConfig) -> int:
    params, contract = cfg.market(), cfg.single_contract()
    if cfg.reval_t is None:
        quote = eq.minimize_writer_risk(params, contract)
    else:
        spot = cfg.s0 if cfg.reval_spot is None else cfg.reval_spot
        quote = eq.revalue_at_time(params, contract, cfg.reval_t, spot)
    row = _report_row(quote.report, "x_star")
    _emit(cfg, _render(row, list(row), cfg.format))
    return 0


def cmd_risk_curve(cfg: RunConfig) -> int:
    params, contract = cfg.market(), cfg.single_contract()
    if cfg.x is None:
        # The last point may round one ulp past the cap; the grid is not re-checked.
        count = int(eq.MAX_HEDGE_FRACTION / cfg.grid_step) + 1
        grid = [i * cfg.grid_step for i in range(count)]
    elif cfg.x <= eq.MAX_HEDGE_FRACTION:  # parse_config has checked x >= 0
        grid = [cfg.x]
    else:
        raise ValueError(f"grid value {cfg.x} outside [0, {eq.MAX_HEDGE_FRACTION}]")
    header = ["x", "price", "writer_risk", "holder_risk", "loss_prob",
              "d1", "d", "d2", "d_prime", "error"]
    kernel = eq._RiskKernel(params, contract)  # the only step that raises DegenerateMarket
    rows = []
    for x in grid:
        try:
            rows.append(_report_row(kernel.report(x), "x"))
        except PricingError as exc:
            rows.append({"x": x, "error": f"{type(exc).__name__}: {exc}"})
    _emit(cfg, _render(rows, header, cfg.format))
    return 0


def cmd_smile(cfg: RunConfig) -> int:
    params = cfg.market()
    points = eq.volatility_smile(params, cfg.strikes, cfg.t)
    rows = [asdict(p) for p in points]
    _emit(cfg, _render(rows, SMILE_CSV_HEADER.split(","), cfg.format))
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    from .validation import run_all_checks  # the one command that loads numpy

    params, contract = cfg.market(), cfg.single_contract()
    results = run_all_checks(params, contract, mc_cfg=cfg.mc())
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}", file=sys.stderr)
    passed = all(res.passed for res in results)
    print(f"{'all checks passed' if passed else 'SOME CHECKS FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})", file=sys.stderr)
    report = {"passed": passed, "checks": [asdict(r) for r in results]}
    _emit(cfg, json.dumps(report, indent=2) + "\n")
    return 0 if passed else 1


_COMMANDS = {
    "price": (cmd_price, "Black-Scholes price and real-world expected profits"),
    "quote": (cmd_quote, "risk-minimizing hedge fraction and equilibrium price"),
    "risk-curve": (cmd_risk_curve, "price, risks and loss probability on an x grid"),
    "smile": (cmd_smile, "equilibrium prices and implied vols across strikes"),
    "validate": (cmd_validate, "closed forms vs Monte Carlo and quadrature oracles"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_merge_config(args))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PricingError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
