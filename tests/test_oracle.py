"""Tests for the Monte Carlo simulator and the normal-quadrature engine."""

import math
import warnings

import numpy as np
import pytest

from fairhedge import (
    MarketParams,
    McConfig,
    NoLossEvents,
    QuadConfig,
    fair_price,
    holder_loss,
    mc_conditional_loss,
    quad_expectation,
    risk_thresholds,
    simulate_terminal,
    std_normal_cdf,
    writer_loss,
)
from fairhedge.oracle import RunningMoments, terminal_chunks, terminal_price

REF_EXPECTED_CALL = 14.665260653636608  # quadrature value, see test_core

class TestSimulateTerminal:
    def test_deterministic_for_fixed_config(self, ref_params):
        cfg = McConfig(paths=50_000, seed=7, chunk_size=8192)
        first = simulate_terminal(ref_params, 1.0, cfg)
        second = simulate_terminal(ref_params, 1.0, cfg)
        assert np.array_equal(first, second)

    def test_path_count_and_positivity(self, ref_params):
        sample = simulate_terminal(ref_params, 1.0, McConfig(paths=10_001, seed=3, chunk_size=1000))
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
        # Identical (paths, seed, chunk_size) must agree; a different
        # chunk size is a different stream and may not.
        a = simulate_terminal(ref_params, 1.0, McConfig(paths=4096, seed=5, chunk_size=1024))
        b = simulate_terminal(ref_params, 1.0, McConfig(paths=4096, seed=5, chunk_size=1024))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk_size", [8192, 1_000_000])
    def test_sample_and_losses_equal_the_plain_expressions(
        self, ref_params, ref_contract, chunk_size
    ):
        # Pins the in-place evaluation to the bits of the plain expressions
        # S0 exp(loc + scale z) per chunk stream, (S-K)^+ - x (S - S0 e^{rT}) - C e^{rT}
        # and C e^{rT} - (S-K)^+, chunked (13 chunks, the last partial) and in one chunk.
        paths, x, price = 100_003, 0.7212, 12.1
        sizes = [min(chunk_size, paths - start) for start in range(0, paths, chunk_size)]
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

        sample = simulate_terminal(
            ref_params, 1.0, McConfig(paths=paths, seed=11, chunk_size=chunk_size)
        )
        assert np.array_equal(sample, plain)
        assert np.array_equal(terminal_price(ref_params, 1.0, z), plain)
        assert np.array_equal(writer_loss(ref_params, ref_contract, x, price, sample), plain_writer)
        assert np.array_equal(holder_loss(ref_params, ref_contract, price, sample), plain_holder)

    def test_scalar_terminal_price_matches_the_array_map(self, ref_params):
        z = np.array([-1.5, 0.0, 0.3])
        mapped = terminal_price(ref_params, 1.0, z)
        assert [float(terminal_price(ref_params, 1.0, float(v))) for v in z] == mapped.tolist()

    def test_rejects_nonpositive_expiry(self, ref_params):
        with pytest.raises(ValueError, match="expiry"):
            simulate_terminal(ref_params, 0.0, McConfig(paths=10, seed=1))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="paths"):
            McConfig(paths=0)
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1)


class TestMcConditionalLoss:
    def test_hand_counted_sample(self):
        est = mc_conditional_loss([-1.0, 2.0, 4.0])
        assert est.mean == pytest.approx(3.0)
        assert est.n_effective == 2
        # sample std of {2, 4} is sqrt(2); / sqrt(2) gives 1
        assert est.std_error == pytest.approx(1.0)

    def test_no_positive_entries(self):
        with pytest.raises(NoLossEvents):
            mc_conditional_loss([-1.0, 0.0, -3.5])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mc_conditional_loss([])

    def test_single_positive_entry_has_unknown_error(self):
        est = mc_conditional_loss([-1.0, 5.0])
        assert est.mean == pytest.approx(5.0)
        assert est.n_effective == 1
        assert math.isinf(est.std_error)


class TestTerminalChunks:
    def test_chunks_concatenate_to_the_sample(self, ref_params):
        # The reused buffer is overwritten by the next chunk, so each chunk is copied.
        cfg = McConfig(paths=10_001, seed=3, chunk_size=1000)
        chunks = [chunk.copy() for chunk in terminal_chunks(ref_params, 1.0, cfg)]
        assert [c.size for c in chunks] == [1000] * 10 + [1]
        assert np.array_equal(np.concatenate(chunks), simulate_terminal(ref_params, 1.0, cfg))


def parent_conditional_loss(values):
    """The whole-array estimator: numpy mean and std(ddof=1) of the positive entries."""
    positive = values[values > 0]
    n = positive.size
    std_error = float(positive.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(positive.mean()), std_error, n


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
        assert mc_conditional_loss(values) == est

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

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="z_bounds"):
            QuadConfig(z_bounds=(1.0, -1.0))
        with pytest.raises(ValueError, match="panels"):
            QuadConfig(panels=0)

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
