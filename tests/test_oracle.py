"""Tests for the Monte Carlo simulator and the normal-quadrature engine."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fairhedge import MarketParams, McConfig, fair_price, std_normal_cdf
from fairhedge import oracle
from fairhedge.equilibrium import risk_thresholds
from fairhedge.oracle import (
    RunningMoments,
    quad_expectation,
    realized_losses,
    simulate_terminal,
    terminal_chunks,
    terminal_price,
)

REF_EXPECTED_CALL = 14.665260653636608  # quadrature value, see test_core

class TestSimulateTerminal:
    def test_deterministic_for_fixed_config(self, ref_params):
        cfg = McConfig(paths=50_000, seed=7)
        first = simulate_terminal(ref_params, 1.0, cfg)
        second = simulate_terminal(ref_params, 1.0, cfg)
        assert np.array_equal(first, second)

    def test_path_count_and_positivity(self, ref_params):
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=10_001, seed=3))
        assert sample.shape == (10_001,)
        assert np.all(sample > 0)

    def test_vanishing_volatility_collapses_to_forward(self):
        params = MarketParams(spot=100.0, drift=0.10, volatility=1e-12, risk_free=0.05)
        sample = simulate_terminal(params, 1.0, McConfig(paths=1000, seed=1))
        assert np.allclose(sample, 100.0 * math.exp(0.10), rtol=1e-9)

    def test_sample_mean_near_grown_spot(self, ref_params):
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=1_000_000, seed=42))
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - 100.0 * math.exp(0.10)) <= 3.5 * se

    def test_mean_call_payoff_matches_quadrature_value(self, ref_params):
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=1_000_000, seed=42))
        payoff = np.maximum(sample - 100.0, 0.0)
        se = payoff.std(ddof=1) / math.sqrt(payoff.size)
        assert abs(payoff.mean() - REF_EXPECTED_CALL) <= 3.0 * se

    def test_chunk_layout_is_part_of_the_contract(self, ref_params):
        # Identical (paths, seed) must agree, over a chunk boundary too, and
        # a full first chunk is the head of any longer sample.
        a = simulate_terminal(ref_params, 1.0, McConfig(paths=262_145, seed=5))
        b = simulate_terminal(ref_params, 1.0, McConfig(paths=262_145, seed=5))
        assert np.array_equal(a, b)
        head = simulate_terminal(ref_params, 1.0, McConfig(paths=262_144, seed=5))
        assert np.array_equal(a[:262_144], head)

    @pytest.mark.parametrize("paths", [100_003, 2 * 262_144 + 3])
    def test_sample_and_losses_equal_the_plain_expressions(self, ref_params, ref_contract, paths):
        # Pins the in-place evaluation to the bits of the plain expressions
        # S0 exp(loc + scale z) per chunk stream, (S-K)^+ - x (S - S0 e^{rT}) - C e^{rT}
        # and C e^{rT} - (S-K)^+, in one chunk and in 3 (the last partial).
        x, price, chunk = 0.7212, 12.1, 262_144
        sizes = [min(chunk, paths - start) for start in range(0, paths, chunk)]
        z = np.concatenate([
            np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(i,)))
            .standard_normal(n) for i, n in enumerate(sizes)
        ])
        loc, scale = (0.10 - 0.5 * 0.2**2) * 1.0, 0.2 * math.sqrt(1.0)
        plain = 100.0 * np.exp(loc + scale * z)
        compounding = math.exp(0.05 * 1.0)
        payoff = np.maximum(plain - 100.0, 0.0)
        plain_writer = payoff - x * (plain - 100.0 * compounding) - price * compounding
        plain_holder = price * compounding - payoff

        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=paths, seed=11))
        assert np.array_equal(sample, plain)
        assert np.array_equal(terminal_price(ref_params, 1.0, z, 0.10), plain)
        # At growth r the map is bit for bit the risk-neutral lognormal map
        # S0 exp((r - sigma^2/2) T + sigma sqrt(T) z) of the price quadrature.
        risk_neutral = 100.0 * np.exp((0.05 - 0.5 * 0.2**2) * 1.0 + 0.2 * math.sqrt(1.0) * z)
        assert np.array_equal(terminal_price(ref_params, 1.0, z, 0.05), risk_neutral)
        _, writer, holder = realized_losses(ref_params, ref_contract, x, price, sample)
        assert np.array_equal(writer, plain_writer)
        assert np.array_equal(holder, plain_holder)

    def test_scalar_terminal_price_matches_the_array_map(self, ref_params):
        z = np.array([-1.5, 0.0, 0.3])
        mapped = terminal_price(ref_params, 1.0, z, 0.10)
        assert [float(terminal_price(ref_params, 1.0, float(v), 0.10)) for v in z] == mapped.tolist()

    def test_rejects_nonpositive_expiry(self, ref_params):
        with pytest.raises(ValueError, match="expiry"):
            simulate_terminal(ref_params, 0.0, McConfig(paths=10, seed=1))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="paths"):
            McConfig(paths=0)
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1)
        # A float or a bool would reach numpy's generator and fail there, untyped.
        with pytest.raises(ValueError, match=r"^paths must be an integer, got 2\.5$"):
            McConfig(paths=2.5)
        with pytest.raises(ValueError, match=r"^paths must be an integer, got True$"):
            McConfig(paths=True)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            McConfig(seed=1.5)


class TestTerminalChunks:
    def test_chunks_concatenate_to_the_sample(self, ref_params):
        # The reused buffer is overwritten by the next block, so each block is copied.
        cfg = McConfig(paths=2 * 262_144 + 3, seed=3)
        blocks = [block.copy() for block in terminal_chunks(ref_params, 1.0, cfg)]
        assert [b.size for b in blocks] == [32_768] * 16 + [3]
        assert np.array_equal(np.concatenate(blocks), simulate_terminal(ref_params, 1.0, cfg))

    @pytest.mark.parametrize(
        "paths", [1, 32_767, 32_768, 32_769, 262_144, 262_145, 1_000_000]
    )
    def test_blocks_have_the_bits_of_whole_chunk_fills(self, ref_params, paths):
        # Each chunk's stream drawn at once into a fresh array, then mapped.
        chunk = 262_144
        z = np.concatenate([
            np.random.default_rng(np.random.SeedSequence(entropy=17, spawn_key=(i,)))
            .standard_normal(min(chunk, paths - start))
            for i, start in enumerate(range(0, paths, chunk))
        ])
        expected = terminal_price(ref_params, 1.0, z, ref_params.drift)
        streamed = np.concatenate(
            [block.copy() for block in terminal_chunks(ref_params, 1.0, McConfig(paths, 17))]
        )
        assert streamed.tobytes() == expected.tobytes()


class TestRealizedLosses:
    @pytest.mark.parametrize("market", ["reference", "drawn"])
    def test_rows_of_out_have_the_bits_of_new_arrays(self, ref_params, ref_contract, market):
        if market == "reference":
            params, contract, x, price = ref_params, ref_contract, 0.7212, 12.1
        else:
            from fairhedge.validation import draw_suite

            params, contract, x = next(iter(draw_suite(1, seed=31)))
            price = fair_price(params, contract, x)
        terminal = simulate_terminal(params, contract.expiry, McConfig(paths=1_001, seed=9))
        fresh = realized_losses(params, contract, x, price, terminal)
        # A slice of a wider buffer, as the streamed estimator passes its last block.
        rows = np.full((3, 2_000), np.nan)[:, : terminal.size]
        written = realized_losses(params, contract, x, price, terminal, out=rows)
        for i, (row, new) in enumerate(zip(written, fresh)):
            assert row.shape == new.shape and np.shares_memory(row, rows[i])
            assert row.tobytes() == new.tobytes()
        # The holder's loss does not depend on the hedge fraction.
        for hedge in (0.0, 0.7212):
            holder = realized_losses(params, contract, hedge, price, terminal)[2]
            assert holder.tobytes() == fresh[2].tobytes()


def parent_conditional_loss(values):
    """The whole-array estimator: numpy mean and std(ddof=1) of the positive entries."""
    positive = values[values > 0]
    n = positive.size
    std_error = float(positive.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(positive.mean()), std_error, n


def positive_moments(values):
    """The estimate of one RunningMoments fed the strictly positive entries of values."""
    values = np.asarray(values)
    moments = RunningMoments()
    moments.add(np.compress(values > 0, values))
    return moments.estimate()


class TestRunningMoments:
    SAMPLES = [
        np.array([-1.0, 2.0, 4.0]),
        np.array([-1.0, 5.0]),
        np.random.default_rng(1).standard_normal(100_003),
        np.random.default_rng(2).lognormal(0.0, 1.5, 65_537) - 3.0,
    ]

    @pytest.mark.parametrize("index", range(len(SAMPLES)))
    def test_one_block_has_the_bits_of_the_whole_array_estimator(self, index):
        values = self.SAMPLES[index]
        moments = RunningMoments()
        moments.add(values[values > 0])
        est = moments.estimate()
        assert (est.mean, est.std_error, est.n_effective) == parent_conditional_loss(values)

    # Hand-counted samples: each block's positive losses, as mc_conditional_loss feeds them.
    def test_hand_counted_sample(self):
        est = positive_moments([-1.0, 2.0, 4.0])
        assert est.mean == pytest.approx(3.0)
        assert est.n_effective == 2
        # sample std of {2, 4} is sqrt(2); / sqrt(2) gives 1
        assert est.std_error == pytest.approx(1.0)

    def test_single_positive_entry_has_unknown_error(self):
        est = positive_moments([-1.0, 5.0])
        assert est.mean == pytest.approx(5.0)
        assert est.n_effective == 1
        assert math.isinf(est.std_error)

    def test_no_positive_entry_has_no_count_and_unknown_error(self):
        est = positive_moments([-1.0, 0.0, -3.5])
        assert est.n_effective == 0
        assert math.isinf(est.std_error)
        assert est.mean is math.nan
        assert est == positive_moments([])

    def test_merged_blocks_match_numpy(self):
        values = np.random.default_rng(3).lognormal(1.0, 0.8, 100_003)
        moments = RunningMoments()
        # Uneven blocks, with empty ones among them.
        for start, stop in [(0, 0), (0, 1), (1, 32_769), (32_769, 32_769), (32_769, 100_003)]:
            moments.add(values[start:stop])
        assert moments.count == values.size
        assert moments.mean == pytest.approx(np.mean(values), rel=1e-13, abs=0)
        variance = moments.m2 / (moments.count - 1)
        assert math.sqrt(variance) == pytest.approx(np.std(values, ddof=1), rel=1e-13, abs=0)

    def test_empty_blocks_are_no_ops(self):
        values = np.array([0.5, 1.5, 4.0])
        plain, padded = RunningMoments(), RunningMoments()
        plain.add(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            padded.add(np.empty(0))
            assert (padded.count, padded.mean, padded.m2) == (0, 0.0, 0.0)
            padded.add(values)
            padded.add(np.empty(0))
        assert (padded.count, padded.mean, padded.m2) == (plain.count, plain.mean, plain.m2)


class TestGaussLegendreRule:
    def test_constants_are_the_leggauss_rule_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert oracle._GL_NODES.tobytes() == nodes.tobytes()
        assert oracle._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_importing_the_library_leaves_numpy_polynomial_unloaded(self):
        code = ("import sys, fairhedge, fairhedge.cli, fairhedge.validation; "
                "print('numpy.polynomial' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    def test_a_rule_of_0_4_wide_panels_agrees_with_a_forty_times_denser_one(
        self, monkeypatch, ref_params, ref_contract
    ):
        """50 panels (600 nodes) give validate's quadrature values to 1e-14 of 2,000 panels.

        Covered: both price expectations of check_price_vs_quadrature
        (growth r and mu) and every _quadrature_risks triple at the check's
        fractions 0, 0.25, 0.5 and 0.75 up to x_hi.
        """
        from fairhedge import equilibrium as eq
        from fairhedge import validation
        from fairhedge.validation import _quadrature_risks, draw_suite, rel_err

        assert oracle.quad_rule([])[0].size == 600
        markets = [(ref_params, ref_contract)]
        markets += [(p, c) for p, c, _ in draw_suite(20, seed=31, threshold_window=8.0)]

        def quadrature_values(params, contract):
            prices = []

            def recorded(integrand, breakpoints=()):
                prices.append(quad_expectation(integrand, breakpoints))
                return prices[-1]

            monkeypatch.setattr(oracle, "quad_expectation", recorded)
            validation.check_price_vs_quadrature(params, contract)
            kernel = eq._RiskKernel(params, contract)
            reports = [kernel.report(x) for x in (0.0, 0.25, 0.5, 0.75) if x <= kernel.x_hi]
            triples = _quadrature_risks(params, contract, reports)
            assert len(prices) == 2 and None not in triples
            return prices + [v for triple in triples for v in triple]

        values = [quadrature_values(p, c) for p, c in markets]
        monkeypatch.setattr(oracle, "_PANELS", 2000)
        reference = [quadrature_values(p, c) for p, c in markets]
        assert [len(v) for v in values] == [len(v) for v in reference]
        worst = max(rel_err(a, b) for v, r in zip(values, reference) for a, b in zip(v, r))
        assert worst <= 1e-14


class TestQuadExpectation:
    def test_normalization(self):
        total = quad_expectation(lambda z: np.ones_like(z))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_lognormal_martingale(self):
        sig_sqrt_t = 0.2
        value = quad_expectation(lambda z: np.exp(sig_sqrt_t * z - 0.5 * sig_sqrt_t**2))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_tail_exponential_identity(self, ref_params, ref_contract):
        """Integral of the exponential kernel above d2 equals N(-(d2 - s))."""
        x = 0.7212
        price = fair_price(ref_params, ref_contract, x)
        d2 = risk_thresholds(ref_params, ref_contract, x, price).d2
        sig_sqrt_t = 0.2

        def kernel(z):
            return np.exp(sig_sqrt_t * z - 0.5 * sig_sqrt_t**2) * (z > d2)

        value = quad_expectation(kernel, breakpoints=[d2])
        assert value == pytest.approx(std_normal_cdf(-(d2 - sig_sqrt_t)), rel=1e-10)

    def test_indicator_matches_cdf(self):
        for cut in (-2.5, -0.3, 0.0, 1.7):
            value = quad_expectation(lambda z: (z <= cut).astype(float), breakpoints=[cut])
            assert value == pytest.approx(std_normal_cdf(cut), rel=1e-11)

    def test_breakpoints_outside_window_ignored(self):
        value = quad_expectation(lambda z: np.ones_like(z), breakpoints=[-50.0, math.inf])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_moments_against_closed_forms(self):
        assert quad_expectation(lambda z: z) == pytest.approx(0.0, abs=1e-12)
        assert quad_expectation(lambda z: z * z) == pytest.approx(1.0, abs=1e-11)
        assert quad_expectation(lambda z: z**4) == pytest.approx(3.0, abs=1e-10)

    def test_normalization_and_tail_identity_across_draws(self):
        """Martingale normalization and the shifted-tail identity hold to
        1e-10 for every drawn volatility scale and cut point."""
        from fairhedge.validation import draw_suite

        for params, contract, x in draw_suite(30, seed=29, threshold_window=7.0):
            sig_sqrt_t = params.volatility * math.sqrt(contract.expiry)
            half_var = 0.5 * sig_sqrt_t**2
            normalization = quad_expectation(lambda z: np.exp(sig_sqrt_t * z - half_var))
            assert normalization == pytest.approx(1.0, abs=1e-10)
            price = fair_price(params, contract, x)
            d2 = risk_thresholds(params, contract, x, price).d2
            tail = quad_expectation(
                lambda z: np.exp(sig_sqrt_t * z - half_var) * (z > d2), breakpoints=[d2]
            )
            assert tail == pytest.approx(std_normal_cdf(-(d2 - sig_sqrt_t)), rel=1e-10)
