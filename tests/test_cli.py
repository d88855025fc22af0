"""End-to-end tests of the command-line interface.

Commands run in a subprocess so exit codes, stdout/stderr separation and
output files are exercised exactly as a user sees them; a test that counts
calls inside a command runs it in process.
"""

import ast
import csv
import dataclasses
import json
import subprocess
import sys

import pytest

from fairhedge import MarketParams, OptionContract, PricingError, cli
from fairhedge import equilibrium as eq
from fairhedge.cli import SMILE_CSV_HEADER, parse_config

EX_ARGS = ["--s0", "100", "--mu", "0.10", "--sigma", "0.2", "--r", "0.05", "--t", "1"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "fairhedge", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestPriceCommand:
    def test_reference_row(self):
        result = run_cli("price", *EX_ARGS, "--strike", "100")
        assert result.returncode == 0
        header, rows = csv_rows(result.stdout)
        row = rows[0]
        assert float(row["bs_price"]) == pytest.approx(10.45, abs=5e-3)
        assert float(row["writer_expected_profit"]) == pytest.approx(-0.25, abs=0.01)
        assert float(row["expected_call_payoff"]) == pytest.approx(14.665, abs=2e-3)

    def test_delta_hedge_default_echoed(self):
        result = run_cli("price", *EX_ARGS, "--strike", "100")
        _, rows = csv_rows(result.stdout)
        assert float(rows[0]["x"]) == pytest.approx(0.636831, abs=1e-5)

    def test_explicit_hedge_fraction(self):
        result = run_cli("price", *EX_ARGS, "--strike", "100", "--x", "0.5")
        _, rows = csv_rows(result.stdout)
        assert float(rows[0]["x"]) == 0.5

    def test_zero_strike_exits_2_naming_field(self):
        result = run_cli("price", *EX_ARGS, "--strike", "0")
        assert result.returncode == 2
        assert "strike" in result.stderr

    def test_drift_below_rate_exits_2(self):
        result = run_cli("price", "--s0", "100", "--mu", "0.01", "--sigma", "0.2",
                         "--r", "0.05", "--t", "1", "--strike", "100")
        assert result.returncode == 2
        assert "drift" in result.stderr

    def test_delta_that_rounds_to_one_exits_0(self):
        # N(d+) is 1.0 in doubles here; the profit formulas accept the full hedge.
        result = run_cli(
            "price", "--s0", "75.37599285333654", "--mu", "0.15828685933764516",
            "--sigma", "0.11969005662083394", "--r", "0.012270472438856754",
            "--t", "0.13592313034983355", "--strike", "52.3669889777061",
        )
        assert result.returncode == 0, result.stderr
        _, rows = csv_rows(result.stdout)
        assert float(rows[0]["x"]) == 1.0

    def test_price_underflowing_to_zero_exits_3(self):
        # Every flag is well formed; a zero Black-Scholes premium is a domain condition.
        result = run_cli("price", "--s0", "100", "--mu", "0.1", "--sigma", "0.2",
                         "--r", "0.05", "--t", "0.1", "--strike", "1000000")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "domain error: NonpositivePrice: Black-Scholes price is 0.0" in result.stderr


class TestQuoteCommand:
    def test_reference_quote(self):
        result = run_cli("quote", *EX_ARGS, "--strike", "100")
        assert result.returncode == 0
        _, rows = csv_rows(result.stdout)
        row = rows[0]
        assert float(row["x_star"]) == pytest.approx(0.7212, abs=5e-4)
        assert float(row["price"]) == pytest.approx(12.10, abs=0.01)
        assert float(row["loss_prob"]) == pytest.approx(0.3008, abs=1e-3)

    def test_revaluation_mode_matches_short_contract(self):
        revalued = run_cli("quote", *EX_ARGS, "--strike", "100",
                           "--reval-t", "0.5", "--reval-spot", "100")
        direct = run_cli("quote", *EX_ARGS[:-2], "--t", "0.5", "--strike", "100")
        assert revalued.returncode == 0
        assert revalued.stdout == direct.stdout

    def test_revaluation_at_time_zero_uses_the_new_spot(self):
        revalued = run_cli("quote", *EX_ARGS, "--strike", "100",
                           "--reval-t", "0", "--reval-spot", "110")
        direct = run_cli("quote", "--s0", "110", *EX_ARGS[2:], "--strike", "100")
        assert revalued.returncode == 0
        assert revalued.stdout == direct.stdout

    def test_negative_revaluation_time_exits_2(self):
        result = run_cli("quote", *EX_ARGS, "--strike", "100", "--reval-t", "-0.5")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "re-valuation time must be nonnegative, got -0.5" in result.stderr

    def test_revaluation_spot_without_time_exits_2(self):
        result = run_cli("quote", *EX_ARGS, "--strike", "100", "--reval-spot", "110")
        assert result.returncode == 2
        assert "config key 'reval_spot' needs 'reval_t'" in result.stderr

    def test_empty_domain_exits_3(self):
        result = run_cli("quote", "--s0", "100", "--mu", "0.10", "--sigma", "0.2",
                         "--r", "0.05", "--t", "0.1", "--strike", "1e6")
        assert result.returncode == 3
        assert "EmptyDomain" in result.stderr

    def test_premium_below_floor_exits_3(self):
        # Expected payoff 1.07e-113 at spot 1: no quote with floating-point meaning.
        result = run_cli("quote", "--s0", "1", "--mu", "0.1", "--sigma", "0.2",
                         "--r", "0.05", "--t", "1", "--strike", "100")
        assert result.returncode == 3
        assert result.stdout == ""
        assert "EmptyDomain" in result.stderr

    def test_multiple_strikes_rejected(self):
        result = run_cli("quote", *EX_ARGS, "--strikes", "100,105")
        assert result.returncode == 2
        assert "one strike" in result.stderr

    def test_json_format(self):
        result = run_cli("quote", *EX_ARGS, "--strike", "100", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["x_star"] == pytest.approx(0.7212, abs=5e-4)
        assert set(payload) == {"x_star", "price", "writer_risk", "holder_risk",
                                "loss_prob", "d1", "d", "d2", "d_prime"}


class TestDegenerateMarkets:
    # Growth factors or a sigma^2 T that overflow, a sigma sqrt(T) that
    # underflows to zero, or a hedge edge e^(mu T) - e^(r T) that rounds to
    # zero, are domain errors (exit 3) on every command they reach. Each
    # market comes with the start of its DegenerateMarket message; a later
    # --sigma wins.
    OVERFLOW = [
        (["--mu", "800", "--r", "0.05", "--t", "1"], "growth factors"),
        (["--mu", "0.1", "--r", "0.05", "--t", "20000"], "growth factors"),
        (["--mu", "0.1", "--r", "-800", "--t", "1"], "growth factors"),
        (["--mu", "0.1", "--sigma", "5e-324", "--r", "0.05", "--t", "0.1"],
         "sigma*sqrt(T) underflows to zero"),
        (["--mu", "0.1", "--sigma", "1e300", "--r", "0.05", "--t", "1"],
         "sigma^2 T overflows"),
    ]
    ZERO_EDGE = [
        ["--mu", "0.1", "--r", "0.05", "--t", "1e-300"],
        ["--mu", "1e-300", "--r", "0", "--t", "1"],
    ]

    @pytest.mark.parametrize("command", ["price", "quote", "risk-curve", "smile", "validate"])
    @pytest.mark.parametrize("market, message", OVERFLOW,
                             ids=["mu", "t", "r", "sigma", "sigma_squared"])
    def test_overflowing_growth_factor_exits_3(self, command, market, message):
        result = run_cli(command, "--s0", "100", "--sigma", "0.2", *market, "--strike", "100")
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith(f"domain error: DegenerateMarket: {message}")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["quote", "risk-curve", "smile"])
    @pytest.mark.parametrize("market", ZERO_EDGE, ids=["t", "mu"])
    def test_hedge_edge_rounding_to_zero_exits_3(self, command, market):
        result = run_cli(command, "--s0", "100", "--sigma", "0.2", *market, "--strike", "100")
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: DegenerateMarket: hedge edge")

    @pytest.mark.parametrize("command", ["price", "quote", "risk-curve", "smile", "validate"])
    def test_an_overflowing_expected_payoff_exits_3(self, command):
        # e^(mu T) = e is finite, but S0 e^(mu T) is not; price used to print inf and nan.
        result = run_cli(command, "--s0", "1e308", "--mu", "0.1", "--sigma", "0.2",
                         "--r", "0.05", "--t", "10", "--strike", "90")
        assert result.returncode == 3, result.stderr
        assert "nan" not in result.stdout and "inf" not in result.stdout
        assert result.stderr.startswith("domain error: DegenerateMarket: S0 e^(mu T) overflows")


class TestHolderLossUnderflow:
    # N(d') underflows to zero at every hedge fraction: sigma sqrt(T) is 1e-21.
    MARKET = ["--s0", "100", "--mu", "0.051", "--sigma", "1e-20", "--r", "0.05", "--t", "0.01"]
    MESSAGE = "DegenerateLoss: holder loss probability underflowed to zero at x=0.0"

    def test_quote_exits_3(self):
        result = run_cli("quote", *self.MARKET, "--strike", "1")
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr == f"domain error: {self.MESSAGE}\n"

    def test_smile_reports_each_strike_as_an_error_row(self):
        result = run_cli("smile", *self.MARKET, "--strikes", "1,100")
        assert result.returncode == 0, result.stderr
        _, rows = csv_rows(result.stdout)
        assert [(row["strike"], row["error"]) for row in rows] == [
            ("1", self.MESSAGE), ("100", self.MESSAGE)
        ]


class TestRiskCurveCommand:
    def test_grid_has_100_rows_and_argmin_near_072(self):
        result = run_cli("risk-curve", *EX_ARGS, "--strike", "100", "--grid-step", "0.01")
        assert result.returncode == 0
        _, rows = csv_rows(result.stdout)
        assert len(rows) == 100
        risks = [float(r["writer_risk"]) for r in rows]
        argmin_x = float(rows[risks.index(min(risks))]["x"])
        assert argmin_x == pytest.approx(0.72, abs=0.01)

    def test_single_point_grid_marks_d1_infinite(self):
        result = run_cli("risk-curve", *EX_ARGS, "--strike", "100", "--x", "0")
        _, rows = csv_rows(result.stdout)
        assert len(rows) == 1
        assert rows[0]["d1"] == "-inf"
        assert rows[0]["error"] == ""

    def test_grid_value_beyond_right_endpoint_exits_2(self):
        result = run_cli("risk-curve", *EX_ARGS, "--strike", "100", "--x", "0.9999999")
        assert result.returncode == 2

    def test_grid_whose_last_point_rounds_past_the_cap_exits_0(self):
        # 5 * 0.1999998 is 0.9999990000000001, one ulp above 0.999999; the
        # command builds that grid itself, so it is not re-checked.
        result = run_cli("risk-curve", *EX_ARGS, "--strike", "100", "--grid-step", "0.1999998")
        assert result.returncode == 0, result.stderr
        _, rows = csv_rows(result.stdout)
        assert len(rows) == 6

    def test_error_rows_marked_not_fatal(self):
        # Far out of the money: large x makes the fair price nonpositive,
        # so late grid rows carry error markers instead of aborting.
        result = run_cli("risk-curve", "--s0", "100", "--mu", "0.10", "--sigma", "0.2",
                         "--r", "0.05", "--t", "1", "--strike", "220", "--grid-step", "0.2")
        assert result.returncode == 0
        _, rows = csv_rows(result.stdout)
        markers = [row["error"] for row in rows]
        assert any(m == "" for m in markers)
        assert any("NonpositivePrice" in m for m in markers)

    def test_one_kernel_gives_the_writer_risk_reports_bit_for_bit(self, monkeypatch, capsys):
        # In process, to count kernel constructions: one per command.
        constructions = []
        init = eq._RiskKernel.__init__

        def counted(kernel, *args):
            constructions.append(args)
            init(kernel, *args)

        monkeypatch.setattr(eq._RiskKernel, "__init__", counted)
        args = [*EX_ARGS, "--strike", "220", "--grid-step", "0.05", "--format", "json"]
        assert cli.main(["risk-curve", *args]) == 0
        assert len(constructions) == 1
        rows = json.loads(capsys.readouterr().out)
        params = MarketParams(spot=100.0, drift=0.10, volatility=0.2, risk_free=0.05)
        contract = OptionContract(strike=220.0, expiry=1.0)
        assert [row["x"] for row in rows] == [i * 0.05 for i in range(20)]
        errors = 0
        for row in rows:
            try:
                expected = cli._report_row(eq.writer_risk(params, contract, row["x"]), "x")
            except PricingError as exc:
                expected = {"x": row["x"], "error": f"{type(exc).__name__}: {exc}"}
                errors += 1
            assert row == {key: cli._json_cell(expected.get(key)) for key in row}
        assert 0 < errors < len(rows)
        assert all(row["error"].startswith("NonpositivePrice: ") for row in rows[-errors:])


class TestSmileCommand:
    def test_exact_csv_header_and_reference_table(self):
        result = run_cli("smile", *EX_ARGS, "--strikes", "90,95,100,105,110,115")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == SMILE_CSV_HEADER
        header, rows = csv_rows(result.stdout)
        prices = [float(r["price"]) for r in rows]
        vols = [float(r["implied_vol"]) for r in rows]
        for got, want in zip(prices, [18.89, 15.28, 12.10, 9.38, 7.12, 5.30]):
            assert got == pytest.approx(want, abs=0.02)
        for got, want in zip(vols, [0.2743, 0.2567, 0.2438, 0.2342, 0.2272, 0.2220]):
            assert got == pytest.approx(want, abs=5e-4)

    def test_single_strike_equals_quote_composition(self):
        smile = run_cli("smile", *EX_ARGS, "--strike", "100")
        quote = run_cli("quote", *EX_ARGS, "--strike", "100")
        _, smile_rows = csv_rows(smile.stdout)
        _, quote_rows = csv_rows(quote.stdout)
        assert smile_rows[0]["price"] == quote_rows[0]["price"]
        assert smile_rows[0]["x_star"] == quote_rows[0]["x_star"]

    def test_unsorted_strikes_keep_input_order(self):
        result = run_cli("smile", *EX_ARGS, "--strikes", "110,90,100")
        _, rows = csv_rows(result.stdout)
        assert [float(r["strike"]) for r in rows] == [110.0, 90.0, 100.0]

    def test_csv_row_of_an_unquotable_strike_carries_its_error(self):
        # sigma = 2 over 5 years quotes a premium above spot; the message holds commas.
        args = ["--s0", "100", "--mu", "0.1", "--sigma", "2", "--r", "0.05", "--t", "5",
                "--strikes", "100"]
        result = run_cli("smile", *args)
        assert result.returncode == 0, result.stderr
        header, row = list(csv.reader(result.stdout.splitlines()))
        assert header == SMILE_CSV_HEADER.split(",") and header[-1] == "error"
        assert row[1:-1] == ["nan"] * 6
        assert row[-1].startswith("PriceOutOfBounds: price 111.678")
        assert row[-1] == json.loads(run_cli("smile", *args, "--format", "json").stdout)[0]["error"]

    def test_a_huge_market_has_a_finite_implied_vol(self):
        # The implied vol's start squares prices; without its power-of-two units, the
        # squares overflow past about 1e154 and these rows print nan with no error.
        market = ["--mu", "0.1", "--sigma", "0.2", "--r", "0.05"]
        result = run_cli("smile", "--s0", "1e200", *market, "--t", "1", "--strikes", "1e200")
        assert result.returncode == 0, result.stderr
        assert "nan" not in result.stdout
        _, row = list(csv.reader(result.stdout.splitlines()))
        assert row[-2] == "0.243792"  # implied_vol, as at S0 = K = 100
        result = run_cli("smile", "--s0", "1e308", *market, "--t", "0.5", "--strikes", "90,1e308")
        assert result.returncode == 0, result.stderr
        _, low, high = list(csv.reader(result.stdout.splitlines()))
        # Strike 90 quotes a premium above spot: an error row, its nan cells the marker.
        assert low[-1].startswith("PriceOutOfBounds: ")
        assert "nan" not in high and high[-1] == "" and high[-2] == "0.22755"

    def test_json_carries_error_field(self):
        result = run_cli("smile", "--s0", "100", "--mu", "0.10", "--sigma", "0.2",
                         "--r", "0.05", "--t", "0.1", "--strikes", "100,1e6",
                         "--format", "json")
        payload = json.loads(result.stdout)
        assert payload[0]["error"] is None
        assert "EmptyDomain" in payload[1]["error"]
        assert payload[1]["price"] == "nan"


class TestValidateCommand:
    def test_passes_on_reference_config(self):
        result = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "20000")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
        assert "PASS" in result.stderr

    def test_reduced_paths_widen_bands_but_pass(self):
        small = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "10000")
        big = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "200000")
        assert small.returncode == 0 and big.returncode == 0

        # bands appear in the mc_agreement detail as "(band 1.23e-04)"
        def bands(text):
            return [float(part.split(")")[0]) for part in text.split("band ")[1:]]

        small_bands = bands(small.stdout)
        big_bands = bands(big.stdout)
        assert len(small_bands) == len(big_bands) == 4
        assert all(s > b for s, b in zip(small_bands, big_bands))

    def test_single_path_fails_mc_check_and_exits_1(self):
        result = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "1")
        assert result.returncode == 1, result.stderr
        assert "Warning" not in result.stderr
        checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
        assert checks["mc_agreement"]["passed"] is False
        assert all(c["passed"] for name, c in checks.items() if name != "mc_agreement")

    def test_quote_neighbour_without_a_risk_fails_only_the_mc_check(self):
        # x* + 1e-3 has a subnormal loss probability, so the grid check scores it inf.
        args = ["--s0", "100", "--mu", "0.1", "--sigma", "0.005", "--r", "0.05", "--t", "0.01"]
        result = run_cli("validate", *args, "--strike", "90", "--paths", "10000")
        assert result.returncode == 1, result.stderr
        checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
        assert len(checks) == 9
        assert checks["quote_grid_consistency"]["passed"] is True
        assert [name for name, c in checks.items() if not c["passed"]] == ["mc_agreement"]
        assert checks["mc_agreement"]["detail"] == (
            "writer_risk has 0 positive losses; a band needs at least 2; paths 10000"
        )

    @pytest.mark.parametrize("mu", ["0.06", "0.2"])
    def test_contract_below_the_premium_floor_exits_3(self, mu):
        # At mu 0.06 the expected payoff rounds to -1.04e-322 (once a config
        # error, exit 2); at mu 0.2 the quadrature check divided by zero (exit 1).
        args = ["--s0", "100", "--mu", mu, "--sigma", "0.005", "--r", "0", "--t", "0.01"]
        result = run_cli("validate", *args, "--strike", "102", "--paths", "10000")
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert "domain error: EmptyDomain: no quotable price for strike 102.0" in result.stderr


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "s0": 100, "mu": 0.10, "sigma": 0.2, "r": 0.05, "t": 1.0,
            "strikes": [100.0], "seed": 7,
        }))
        base = run_cli("quote", "--config", str(config))
        overridden = run_cli("quote", "--config", str(config), "--strike", "90")
        assert base.returncode == 0 and overridden.returncode == 0
        _, rows = csv_rows(overridden.stdout)
        assert float(rows[0]["price"]) == pytest.approx(18.89, abs=0.02)

    def test_unknown_key_exits_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05,
                                      "t": 1.0, "strikes": [100], "stike": 90}))
        result = run_cli("quote", "--config", str(config))
        assert result.returncode == 2
        assert "stike" in result.stderr

    def test_missing_required_key_exits_2(self):
        result = run_cli("quote", "--s0", "100", "--mu", "0.1", "--sigma", "0.2",
                         "--r", "0.05", "--strike", "100")
        assert result.returncode == 2
        assert "t" in result.stderr

    def test_overflowing_number_exits_2_naming_key(self):
        result = run_cli("quote", "--s0", "1e400", "--mu", "0.1", "--sigma", "0.2",
                         "--r", "0.05", "--t", "1", "--strike", "100")
        assert result.returncode == 2
        assert "config key 's0' must be a finite number, got inf" in result.stderr

    def test_integer_beyond_float_range_exits_2_naming_key(self, tmp_path):
        huge = "1" + "0" * 400
        result = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", huge)
        assert result.returncode == 2
        assert f"config key 'paths' must be a finite number, got {huge}" in result.stderr
        config = tmp_path / "run.json"
        config.write_text('{"s0": %s, "mu": 0.1, "sigma": 0.2, "r": 0.05, "t": 1.0, '
                          '"strikes": [100]}' % huge)
        result = run_cli("quote", "--config", str(config))
        assert result.returncode == 2
        assert f"config key 's0' must be a finite number, got {huge}" in result.stderr

    @pytest.mark.parametrize("command, seed", [("quote", "-5"), ("price", str(2**64))])
    def test_out_of_range_seed_exits_2_for_every_command(self, command, seed, tmp_path):
        # Only validate takes --seed, but a config file is checked whole for every command.
        config = tmp_path / "run.json"
        config.write_text('{"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05, "t": 1.0, '
                          '"strikes": [100], "seed": %s}' % seed)
        result = run_cli(command, "--config", str(config))
        assert result.returncode == 2
        assert result.stderr == f"config error: seed must be an unsigned 64-bit integer, got {seed}\n"

    def test_paths_below_one_exits_2_naming_key(self):
        result = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "0")
        assert result.returncode == 2
        assert result.stderr == "config error: paths must be >= 1, got 0\n"

    def test_paths_beyond_the_cap_is_a_config_error(self):
        # Checked on the parsed config only: validate would stream the sample.
        data = {"s0": 100.0, "mu": 0.10, "sigma": 0.2, "r": 0.05, "t": 1.0, "strikes": [100.0]}
        assert parse_config({**data, "paths": 10**9}).paths == 10**9
        with pytest.raises(ValueError, match="config key 'paths' must be at most 1,000,000,000"):
            parse_config({**data, "paths": 10**9 + 1})

    def test_grid_step_beyond_a_million_points_is_a_config_error(self):
        # Checked on the parsed config only: the command would build the grid.
        data = {"s0": 100.0, "mu": 0.10, "sigma": 0.2, "r": 0.05, "t": 1.0, "strikes": [100.0]}
        for step in (1e-300, 5e-324, 9.99999e-7):
            with pytest.raises(ValueError, match="config key 'grid_step' gives over 1,000,000"):
                parse_config({**data, "grid_step": step})
        # 0.999999 / 1e-6 is 999999.0, so the grid has exactly 1,000,000 points.
        assert parse_config({**data, "grid_step": 1e-6}).grid_step == 1e-6

    def test_boolean_number_exits_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s0": True, "mu": 0.1, "sigma": 0.2, "r": 0.05,
                                      "t": 1.0, "strikes": [100]}))
        result = run_cli("quote", "--config", str(config))
        assert result.returncode == 2
        assert "config key 's0' must be a finite number, got True" in result.stderr

    def test_fractional_paths_exits_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05,
                                      "t": 1.0, "strikes": [100], "paths": 2.7}))
        result = run_cli("validate", "--config", str(config))
        assert result.returncode == 2
        assert "config key 'paths' must be an integer, got 2.7" in result.stderr

    def test_malformed_json_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        result = run_cli("quote", "--config", str(config))
        assert result.returncode == 2

    def test_bad_strikes_flag_exits_2(self):
        result = run_cli("smile", *EX_ARGS, "--strikes", "90,abc")
        assert result.returncode == 2

    @pytest.mark.parametrize("strikes", ["90,,100", "100,", ",100", " "])
    def test_empty_strikes_entry_exits_2(self, strikes):
        result = run_cli("smile", *EX_ARGS, "--strikes", strikes)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("config error: --strikes must be comma-separated numbers, "
                                 f"got {strikes!r}\n")

    # Each command takes only the flags it reads; these 23 it would ignore.
    UNREAD_FLAGS = {
        "price": ["--paths", "--seed", "--grid-step", "--reval-t", "--reval-spot"],
        "quote": ["--x", "--paths", "--seed", "--grid-step"],
        "risk-curve": ["--paths", "--seed", "--reval-t", "--reval-spot"],
        "smile": ["--x", "--paths", "--seed", "--grid-step", "--reval-t", "--reval-spot"],
        "validate": ["--x", "--grid-step", "--reval-t", "--reval-spot"],
    }

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags
    ])
    def test_flag_the_command_does_not_read_exits_2(self, command, flag):
        result = run_cli(command, *EX_ARGS, "--strike", "100", flag, "0.5")
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"unrecognized arguments: {flag} 0.5" in result.stderr

    def test_risk_curve_takes_x_or_grid_step_not_both(self, tmp_path):
        result = run_cli("risk-curve", *EX_ARGS, "--strike", "100", "--x", "0.5",
                         "--grid-step", "0.1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "argument --grid-step: not allowed with argument --x" in result.stderr
        # A config file may hold both; x wins, as a one-point grid.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05, "t": 1.0,
                                      "strikes": [100], "x": 0.5, "grid_step": 0.1}))
        from_file = run_cli("risk-curve", "--config", str(config))
        assert from_file.returncode == 0, from_file.stderr
        assert from_file.stdout == run_cli("risk-curve", *EX_ARGS, "--strike", "100",
                                           "--x", "0.5").stdout

    @pytest.mark.parametrize("command", ["price", "quote", "risk-curve", "smile", "validate"])
    def test_null_config_value_means_not_set(self, command, tmp_path):
        market = {"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05, "t": 1.0, "strikes": [100]}
        unset = dict.fromkeys(["x", "paths", "seed", "grid_step", "format", "out",
                               "reval_t", "reval_spot"])
        (tmp_path / "bare.json").write_text(json.dumps(market))
        (tmp_path / "null.json").write_text(json.dumps({**market, **unset}))
        bare = run_cli(command, "--config", str(tmp_path / "bare.json"))
        null = run_cli(command, "--config", str(tmp_path / "null.json"))
        assert null.returncode == bare.returncode == 0, null.stderr
        assert null.stdout == bare.stdout

    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_output_file(self, tmp_path):
        out = tmp_path / "smile.csv"
        result = run_cli("smile", *EX_ARGS, "--strike", "100", "--out", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_text().splitlines()[0] == SMILE_CSV_HEADER

    def test_output_in_missing_directory_exits_2_before_computing(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = run_cli("price", *EX_ARGS, "--strike", "100", "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == f"config error: config key 'out' is not a writable file path: {str(out)!r}\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("out", [5, True])
    def test_output_that_is_not_a_string_exits_2(self, out, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05, "t": 1.0,
                                      "strikes": [100], "out": out}))
        result = run_cli("price", "--config", str(config))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"config error: config key 'out' is not a writable file path: {out!r}\n"

    def test_empty_output_path_exits_2(self, tmp_path):
        # An empty path is not a file name, so it is not read as "stdout".
        flag = run_cli("quote", *EX_ARGS, "--strike", "100", "--out", "")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"s0": 100, "mu": 0.1, "sigma": 0.2, "r": 0.05, "t": 1.0,
                                      "strikes": [100], "out": ""}))
        from_file = run_cli("quote", "--config", str(config))
        for result in (flag, from_file):
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr == "config error: config key 'out' is not a writable file path: ''\n"

    def test_output_naming_a_directory_is_rejected_with_the_config(self, tmp_path):
        data = {"s0": 100.0, "mu": 0.10, "sigma": 0.2, "r": 0.05, "t": 1.0,
                "strikes": [100.0], "out": str(tmp_path)}
        with pytest.raises(ValueError, match="config key 'out'"):
            parse_config(data)

    def test_round_trip_is_semantically_stable(self):
        data = {"s0": 100.0, "mu": 0.10, "sigma": 0.2, "r": 0.05, "t": 1.0,
                "strikes": [90.0, 100.0], "x": 0.3, "paths": 1000, "seed": 9,
                "grid_step": 0.02, "format": "json", "out": None,
                "reval_t": None, "reval_spot": None}
        cfg = parse_config(data)
        assert parse_config(dataclasses.asdict(cfg)) == cfg
        assert dataclasses.asdict(cfg) == dataclasses.asdict(parse_config(dataclasses.asdict(cfg)))


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self):
        first = run_cli("smile", *EX_ARGS, "--strikes", "90,100,110", "--format", "json")
        second = run_cli("smile", *EX_ARGS, "--strikes", "90,100,110", "--format", "json")
        assert first.stdout == second.stdout
        v1 = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "20000")
        v2 = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "20000")
        assert v1.stdout == v2.stdout


# Runs cli.main over a JSON list of argvs in one interpreter and prints, as
# JSON, each (exit code, stdout, stderr) and whether numpy was imported.
# With "poisoned" first, numpy is made unimportable before anything loads.
CLI_MAIN_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "poisoned":
    sys.modules["numpy"] = None
import fairhedge, fairhedge.cli
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fairhedge.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "numpy": sys.modules.get("numpy") is not None}))
"""


def run_cli_main(mode, argvs):
    result = subprocess.run([sys.executable, "-c", CLI_MAIN_SCRIPT, mode, json.dumps(argvs)],
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    return json.loads(result.stdout)


class TestNumpyOnlyWhereSampled:
    SCALAR_ARGVS = [
        ["--help"],
        ["price", *EX_ARGS, "--strike", "100"],
        ["quote", *EX_ARGS, "--strike", "100"],
        ["risk-curve", *EX_ARGS, "--strike", "100", "--grid-step", "0.05"],
        ["smile", *EX_ARGS, "--strikes", "90,95,100,105,110,115"],
        ["price", *EX_ARGS, "--strike", "0"],
        ["quote", *EX_ARGS, "--strike", "1e300"],
    ]

    def test_scalar_commands_run_with_numpy_unimportable(self):
        plain = run_cli_main("plain", self.SCALAR_ARGVS)
        poisoned = run_cli_main("poisoned", self.SCALAR_ARGVS)
        assert [code for code, _, _ in poisoned["runs"]] == [0, 0, 0, 0, 0, 2, 3]
        assert poisoned["runs"] == plain["runs"]
        assert not plain["numpy"]

    def test_validate_loads_numpy_and_passes(self):
        result = run_cli_main("plain", [["validate", *EX_ARGS, "--strike", "100", "--paths", "20000"]])
        (code, _, stderr), = result["runs"]
        assert (code, result["numpy"]) == (0, True), stderr


# Imports the CLI, then runs each argv of ARGVS through cli.main with stdout
# captured, and prints whether json is in sys.modules before the import, after
# it, and after each run, next to the run's exit code. It loads no json itself.
JSON_BOUNDARY_SCRIPT = """
import ast, contextlib, io, sys
steps = ["json" in sys.modules]
import fairhedge.cli
steps.append("json" in sys.modules)
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = fairhedge.cli.main(argv)
    steps.append((code, "json" in sys.modules))
print(repr(steps))
"""


def test_csv_commands_leave_json_unloaded():
    # Only a config file, JSON output and validate read or write JSON.
    argvs = TestNumpyOnlyWhereSampled.SCALAR_ARGVS[1:5]
    result = subprocess.run([sys.executable, "-c", JSON_BOUNDARY_SCRIPT, repr(argvs)],
                            capture_output=True, text=True, check=True)
    assert ast.literal_eval(result.stdout) == [False, False, *[(0, False)] * 4]
    json_run = subprocess.run([sys.executable, "-c", JSON_BOUNDARY_SCRIPT,
                               repr([argvs[0] + ["--format", "json"]])],
                              capture_output=True, text=True, check=True)
    assert ast.literal_eval(json_run.stdout) == [False, False, (0, True)]
