"""Command-line front end: price, quote, risk-curve, smile, validate.

Market and contract parameters come from a flat JSON config file and/or
flags (flags win). Results are emitted as CSV (6 significant digits) or
JSON (full precision) to stdout or --out. Exit codes: 0 success,
1 validation-suite failure, 2 config or parse error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from . import equilibrium as eq
from .core import (
    MarketParams,
    OptionContract,
    bs_call_price,
    d_plus_minus,
    expected_call_payoff_physical,
    std_normal_cdf,
)
from .errors import PricingError
from .oracle import McConfig
from .validation import run_all_checks

__all__ = ["RunConfig", "build_parser", "main", "run"]

SMILE_CSV_HEADER = "strike,price,x_star,writer_risk,holder_risk,loss_prob,implied_vol"


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
    paths: int = 1_000_000
    seed: int = 12345
    grid_step: float = 0.01
    format: str = "csv"
    out: str | None = None
    reval_t: float | None = None
    reval_spot: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def market(self) -> MarketParams:
        return MarketParams(spot=self.s0, drift=self.mu, volatility=self.sigma, risk_free=self.r)

    def single_contract(self) -> OptionContract:
        if len(self.strikes) != 1:
            raise ValueError(f"this command needs exactly one strike, got {len(self.strikes)}")
        return OptionContract(strike=self.strikes[0], expiry=self.t)

    def mc(self) -> McConfig:
        return McConfig(paths=self.paths, seed=self.seed)


# Config-file keys and flags are the RunConfig fields, one to one.
_CONFIG_KEYS = frozenset(field.name for field in fields(RunConfig))


def parse_config(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a flat mapping."""
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in ("s0", "mu", "sigma", "r", "t", "strikes") if data.get(k) is None]
    if missing:
        raise ValueError(f"missing required config key(s): {', '.join(missing)}")

    def as_float(key: str, value) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        # A JSON true/false is not a number, and 1e400 parses as inf.
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
    fmt = data.get("format", RunConfig.format)
    if fmt not in ("csv", "json"):
        raise ValueError(f"config key 'format' must be 'csv' or 'json', got {fmt!r}")

    cfg = RunConfig(
        s0=as_float("s0", data["s0"]),
        mu=as_float("mu", data["mu"]),
        sigma=as_float("sigma", data["sigma"]),
        r=as_float("r", data["r"]),
        t=as_float("t", data["t"]),
        strikes=[as_float("strikes", k) for k in strikes],
        x=None if data.get("x") is None else as_float("x", data["x"]),
        paths=as_int("paths", data.get("paths", RunConfig.paths)),
        seed=as_int("seed", data.get("seed", RunConfig.seed)),
        grid_step=as_float("grid_step", data.get("grid_step", RunConfig.grid_step)),
        format=fmt,
        out=data.get("out"),
        reval_t=None if data.get("reval_t") is None else as_float("reval_t", data["reval_t"]),
        reval_spot=None
        if data.get("reval_spot") is None
        else as_float("reval_spot", data["reval_spot"]),
    )
    # Fail fast on invariant violations so bad configs exit 2, not 3.
    cfg.market()
    for k in cfg.strikes:
        OptionContract(strike=k, expiry=cfg.t)
    if cfg.x is not None and not 0.0 <= cfg.x < 1.0:
        raise ValueError(f"config key 'x' must lie in [0, 1), got {cfg.x}")
    if cfg.paths < 1:
        raise ValueError(f"config key 'paths' must be >= 1, got {cfg.paths}")
    if not cfg.grid_step > 0:
        raise ValueError(f"config key 'grid_step' must be positive, got {cfg.grid_step}")
    if cfg.out and (
        os.path.isdir(cfg.out) or not os.path.isdir(os.path.dirname(cfg.out) or os.curdir)
    ):
        raise ValueError(f"config key 'out' is not a writable file path: {cfg.out!r}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--s0", type=float, help="spot price")
    common.add_argument("--mu", type=float, help="real-world drift (annual)")
    common.add_argument("--sigma", type=float, help="volatility (annual)")
    common.add_argument("--r", type=float, help="risk-free rate (annual)")
    common.add_argument("--t", type=float, help="expiry in years")
    strike_group = common.add_mutually_exclusive_group()
    strike_group.add_argument("--strike", type=float, help="single strike")
    strike_group.add_argument("--strikes", help="comma-separated strikes")
    common.add_argument("--x", type=float, help="hedge fraction (shares per option)")
    common.add_argument("--paths", type=int, help="Monte Carlo paths")
    common.add_argument("--seed", type=int, help="Monte Carlo seed")
    common.add_argument("--grid-step", type=float, dest="grid_step", help="x grid step")
    common.add_argument("--format", choices=("csv", "json"), help="output format")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--reval-t", type=float, dest="reval_t",
                        help="re-valuation time for quote (years from start)")
    common.add_argument("--reval-spot", type=float, dest="reval_spot",
                        help="spot at the re-valuation time (defaults to s0)")

    parser = argparse.ArgumentParser(
        prog="fairhedge",
        description="Equilibrium pricing of a non-traded call under a static hedge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("price", parents=[common],
                   help="Black-Scholes price and real-world expected profits")
    sub.add_parser("quote", parents=[common],
                   help="risk-minimizing hedge fraction and equilibrium price")
    sub.add_parser("risk-curve", parents=[common],
                   help="price, risks and loss probability on an x grid")
    sub.add_parser("smile", parents=[common],
                   help="equilibrium prices and implied vols across strikes")
    sub.add_parser("validate", parents=[common],
                   help="closed forms vs Monte Carlo and quadrature oracles")
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
    # --strike/--strikes are parsed below.
    for key in _CONFIG_KEYS - {"strikes"}:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.strike is not None:
        data["strikes"] = [args.strike]
    elif args.strikes is not None:
        try:
            data["strikes"] = [float(tok) for tok in str(args.strikes).split(",") if tok.strip()]
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


def _render(rows: list[dict], header: list[str], fmt: str, json_extra: Sequence[str] = ()) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_csv_cell(row.get(col)) for col in header) for row in rows]
        return "\n".join(lines) + "\n"
    keys = list(header) + [k for k in json_extra if k not in header]
    payload = [{k: _json_cell(row.get(k)) for k in keys} for row in rows]
    return json.dumps(payload[0] if len(payload) == 1 and not json_extra else payload, indent=2) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
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
    _emit(cfg, _render([row], list(row), cfg.format))
    return 0


def _quote_row(quote: eq.EquilibriumQuote) -> dict:
    th = quote.report.thresholds
    return {
        "x_star": quote.x_star,
        "price": quote.price,
        "writer_risk": quote.report.writer_risk,
        "holder_risk": quote.report.holder_risk,
        "loss_prob": quote.report.loss_prob,
        "d1": th.d1,
        "d": th.d,
        "d2": th.d2,
        "d_prime": th.d_prime,
    }


def cmd_quote(cfg: RunConfig) -> int:
    params, contract = cfg.market(), cfg.single_contract()
    if cfg.reval_t is not None and cfg.reval_t > 0:
        spot = cfg.reval_spot if cfg.reval_spot is not None else cfg.s0
        quote = eq.revalue_at_time(params, contract, cfg.reval_t, spot)
    else:
        quote = eq.minimize_writer_risk(params, contract)
    row = _quote_row(quote)
    _emit(cfg, _render([row], list(row), cfg.format))
    return 0


def cmd_risk_curve(cfg: RunConfig) -> int:
    params, contract = cfg.market(), cfg.single_contract()
    if cfg.x is not None:
        grid = [cfg.x]
    else:
        count = int(eq.MAX_HEDGE_FRACTION / cfg.grid_step) + 1
        grid = [i * cfg.grid_step for i in range(count)]
    for x in grid:
        if not 0.0 <= x <= eq.MAX_HEDGE_FRACTION:
            raise ValueError(f"grid value {x} outside [0, {eq.MAX_HEDGE_FRACTION}]")
    header = ["x", "price", "writer_risk", "holder_risk", "loss_prob",
              "d1", "d", "d2", "d_prime", "error"]
    rows = []
    for x in grid:
        try:
            report = eq.writer_risk(params, contract, x)
            th = report.thresholds
            rows.append({
                "x": x, "price": report.fair_price,
                "writer_risk": report.writer_risk, "holder_risk": report.holder_risk,
                "loss_prob": report.loss_prob,
                "d1": th.d1, "d": th.d, "d2": th.d2, "d_prime": th.d_prime,
                "error": None,
            })
        except PricingError as exc:
            rows.append({"x": x, "error": f"{type(exc).__name__}: {exc}"})
    _emit(cfg, _render(rows, header, cfg.format, json_extra=["error"]))
    return 0


def cmd_smile(cfg: RunConfig) -> int:
    params = cfg.market()
    points = eq.volatility_smile(params, cfg.strikes, cfg.t)
    header = SMILE_CSV_HEADER.split(",")
    rows = [
        {
            "strike": p.strike, "price": p.price, "x_star": p.x_star,
            "writer_risk": p.writer_risk, "holder_risk": p.holder_risk,
            "loss_prob": p.loss_prob, "implied_vol": p.implied_vol,
            "error": p.error,
        }
        for p in points
    ]
    _emit(cfg, _render(rows, header, cfg.format, json_extra=["error"]))
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    params, contract = cfg.market(), cfg.single_contract()
    results = run_all_checks(params, contract, mc_cfg=cfg.mc())
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}", file=sys.stderr)
    passed = all(res.passed for res in results)
    print(f"{'all checks passed' if passed else 'SOME CHECKS FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})", file=sys.stderr)
    report = {
        "passed": passed,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    _emit(cfg, json.dumps(report, indent=2) + "\n")
    return 0 if passed else 1


_COMMANDS = {
    "price": cmd_price,
    "quote": cmd_quote,
    "risk-curve": cmd_risk_curve,
    "smile": cmd_smile,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PricingError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
