"""Tests for the cross-check suite: each costly step runs once, values unchanged.

The suite shares one quote between its Monte Carlo and grid checks and one
quadrature rule between the four loss integrands. These tests pin that the
shared versions give exactly the values of the step-by-step ones, and that
a sample too small for a finite Monte Carlo band fails the check instead of
raising or passing.
"""

import warnings

import numpy as np

import fairhedge.equilibrium as eq
import fairhedge.validation as validation
from fairhedge import McConfig, QuadConfig, quad_expectation
from fairhedge.oracle import terminal_price
from fairhedge.validation import (
    check_mc_agreement,
    draw_suite,
    quadrature_risk,
    run_all_checks,
)


def quadrature_risk_by_four_rules(params, contract, x, price, quad_cfg):
    """quadrature_risk as four independent quad_expectation calls."""
    th = eq.risk_thresholds(params, contract, x, price)

    def w_loss(z):
        terminal = terminal_price(params, contract.expiry, z)
        return eq.writer_loss(params, contract, x, price, terminal)

    def h_loss(z):
        return eq.holder_loss(params, contract, price, terminal_price(params, contract.expiry, z))

    cuts = [th.d1, th.d, th.d2, th.d_prime]
    prob = quad_expectation(lambda z: (w_loss(z) > 0).astype(float), quad_cfg, cuts)
    w_cond = quad_expectation(lambda z: np.maximum(w_loss(z), 0.0), quad_cfg, cuts) / prob
    h_prob = quad_expectation(lambda z: (h_loss(z) > 0).astype(float), quad_cfg, cuts)
    h_cond = quad_expectation(lambda z: np.maximum(h_loss(z), 0.0), quad_cfg, cuts) / h_prob
    return prob, w_cond, h_cond


def test_quadrature_risk_equals_four_separate_rules():
    cfg = QuadConfig()
    for params, contract, x in draw_suite(12, seed=31, threshold_window=8.0):
        price = eq.fair_price(params, contract, x)
        shared = quadrature_risk(params, contract, x, price, cfg)
        assert shared == quadrature_risk_by_four_rules(params, contract, x, price, cfg)


def test_run_all_checks_quotes_once(monkeypatch, ref_params, ref_contract):
    calls = []
    original = eq.minimize_writer_risk

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(eq, "minimize_writer_risk", counted)
    results = run_all_checks(
        ref_params, ref_contract, mc_cfg=McConfig(paths=20_000),
        ordering_draws=5, monotonicity_draws=5,
    )
    assert len(calls) == 1
    assert [r.name for r in results][-2:] == ["mc_agreement", "quote_grid_consistency"]
    assert all(r.passed for r in results)


def test_single_path_fails_mc_check_without_warnings(ref_params, ref_contract):
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=1), quote)
    assert result.name == "mc_agreement"
    assert not result.passed
    assert "at least 2 paths" in result.detail


def test_no_writer_losses_fail_mc_check(monkeypatch, ref_params, ref_contract):
    # At the reference quote the writer gains when S(T) stays at the strike.
    monkeypatch.setattr(validation, "simulate_terminal", lambda *args: np.full(16, 100.0))
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=16), quote)
    assert not result.passed
    assert "no strictly positive losses" in result.detail



def test_single_positive_loss_fails_mc_check(ref_params, ref_contract):
    # Three paths give one positive writer loss, whose standard error is inf:
    # an infinite band would pass any gap, so the check must fail instead.
    quote = eq.minimize_writer_risk(ref_params, ref_contract)
    result = check_mc_agreement(ref_params, ref_contract, McConfig(paths=3, seed=0), quote)
    assert not result.passed
    assert result.detail == "writer_risk has 1 positive loss; a band needs at least 2; paths 3"
