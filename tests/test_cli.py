"""End-to-end tests of the command-line interface.

Commands run in a subprocess so exit codes, stdout/stderr separation and
output files are exercised exactly as a user sees them.
"""

import json
import subprocess
import sys

import pytest

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
    # Growth factors that overflow, or a hedge edge e^(mu T) - e^(r T) that
    # rounds to zero, are domain errors (exit 3) on every command they reach.
    OVERFLOW = [
        ["--mu", "800", "--r", "0.05", "--t", "1"],
        ["--mu", "0.1", "--r", "0.05", "--t", "20000"],
        ["--mu", "0.1", "--r", "-800", "--t", "1"],
    ]
    ZERO_EDGE = [
        ["--mu", "0.1", "--r", "0.05", "--t", "1e-300"],
        ["--mu", "1e-300", "--r", "0", "--t", "1"],
    ]

    @pytest.mark.parametrize("command", ["price", "quote", "smile"])
    @pytest.mark.parametrize("market", OVERFLOW, ids=["mu", "t", "r"])
    def test_overflowing_growth_factor_exits_3(self, command, market):
        result = run_cli(command, "--s0", "100", "--sigma", "0.2", *market, "--strike", "100")
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: DegenerateMarket: growth factors")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["quote", "smile"])
    @pytest.mark.parametrize("market", ZERO_EDGE, ids=["t", "mu"])
    def test_hedge_edge_rounding_to_zero_exits_3(self, command, market):
        result = run_cli(command, "--s0", "100", "--sigma", "0.2", *market, "--strike", "100")
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("domain error: DegenerateMarket: hedge edge")


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
        assert parse_config(cfg.to_dict()) == cfg
        assert cfg.to_dict() == parse_config(cfg.to_dict()).to_dict()


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self):
        first = run_cli("smile", *EX_ARGS, "--strikes", "90,100,110", "--format", "json")
        second = run_cli("smile", *EX_ARGS, "--strikes", "90,100,110", "--format", "json")
        assert first.stdout == second.stdout
        v1 = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "20000")
        v2 = run_cli("validate", *EX_ARGS, "--strike", "100", "--paths", "20000")
        assert v1.stdout == v2.stdout
