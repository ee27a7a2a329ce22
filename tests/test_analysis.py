import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abprobe.analysis import (
    AnalyticParams,
    EMPIRICAL_COEFF_TABLE,
    EmpiricalCoeffs,
    analytic_xi,
    empirical_xi,
    empirical_xi_slope,
    fit_coeffs,
    lookup_coeffs,
    normalized_mse,
    required_m,
    rp_theoretical,
)
from abprobe.probing import SequenceConfig


# -- normalized MSE ---------------------------------------------------------

def test_mse_zero_for_perfect_estimates():
    pairs = [(5e6, 5e6), (6e6, 6e6)]
    assert normalized_mse(pairs, 1e7) == 0.0


def test_mse_constant_error():
    d = 2e5
    pairs = [(5e6, 5e6 + d)] * 10
    assert normalized_mse(pairs, 1e7) == pytest.approx(d**2 / 1e14, rel=1e-12)


def test_mse_example_value():
    # A=6.2e6, Ahat=5.2e6, C=1e7 -> 0.01
    assert normalized_mse([(6.2e6, 5.2e6)], 1e7) == pytest.approx(0.01, rel=1e-12)


def test_mse_translation_detecting():
    rng = np.random.default_rng(0)
    true = rng.uniform(4e6, 8e6, 100)
    d = 3e5
    xi = normalized_mse(np.column_stack([true, true + d]), 1e7)
    assert xi == pytest.approx(d**2 / 1e14, rel=1e-12)


def test_mse_rejects_empty():
    with pytest.raises(ValueError):
        normalized_mse([], 1e7)


# -- theoretical portion variance ----------------------------------------------

def test_rp_unit_delta():
    assert rp_theoretical(1.0, 1.0, 0.7, 1.0) == 1.0


def test_rp_delta4():
    assert rp_theoretical(1.0, 1.0, 0.7, 4.0) == pytest.approx(4.0**-0.6, rel=1e-12)


def test_rp_h1_independent_of_delta():
    vals = [rp_theoretical(2.0, 3.0, 1.0 - 1e-12, d) for d in (0.5, 1.0, 7.0)]
    assert vals == pytest.approx([9.0 / 4.0] * 3, rel=1e-9)


def test_rp_rejects_bad_delta():
    with pytest.raises(ValueError):
        rp_theoretical(1.0, 1.0, 0.7, 0.0)


# -- analytic error recursion -----------------------------------------------------

def analytic_params(m=34, p=3, rates=0.65, packet_size=0.000125, **kw):
    # M, P, the representative rate and S map to the portion deltas as a
    # run's config maps them
    seq = SequenceConfig(m=m, p=p, packet_size=packet_size, rate_min=rates, rate_max=rates)
    base = dict(capacity=1.0, sigma=1.0, hurst=0.7, lam=1e-4, psi0=1.0, n_sequences=1000)
    base.update(kw)
    return AnalyticParams(deltas=seq.portion_spans(rates), **base)


def test_analytic_zero_lambda_decays_to_zero():
    res_short = analytic_xi(analytic_params(lam=0.0, n_sequences=50))
    res_long = analytic_xi(analytic_params(lam=0.0, n_sequences=5000))
    assert res_long.xi < res_short.xi
    assert res_long.psi_final < 1e-3


def test_analytic_p1_matches_riccati_fixed_point():
    # psi* solves psi = (psi + lam) R / (psi + lam + R):
    # psi* = (-lam + sqrt(lam^2 + 4 lam R)) / 2
    lam = 1e-3
    params = analytic_params(p=1, m=17, lam=lam, rates=0.5, n_sequences=100000)
    (delta,) = params.deltas
    r = rp_theoretical(1.0, 1.0, 0.7, delta)
    expected = 0.5 * (-lam + math.sqrt(lam**2 + 4 * lam * r))
    res = analytic_xi(params)
    assert res.converged
    assert res.xi == pytest.approx(expected, rel=1e-9)


def test_analytic_monotone_in_p_and_m():
    # theoretical error shrinks with more portions and with more packets
    grid_m = list(range(16, 101, 6))
    for m in (16, 34, 64, 100):
        xis = [analytic_xi(analytic_params(m=m, p=p)).xi for p in range(1, 6)]
        assert all(a > b for a, b in zip(xis, xis[1:]))
    for p in range(1, 6):
        xis = [analytic_xi(analytic_params(m=m, p=p)).xi for m in grid_m]
        assert all(a > b for a, b in zip(xis, xis[1:]))


def test_analytic_params_deltas_are_a_hashable_positive_tuple():
    # M=34, P=3, S=1e-3 bit at u=0.65: 11 pairs per portion, 0.011/0.65 s each
    params = analytic_params()
    assert params.deltas == pytest.approx((0.011 / 0.65,) * 3, rel=1e-15)
    assert type(params.deltas) is tuple and all(type(d) is float for d in params.deltas)
    assert hash(params) == hash(analytic_params()) and params == analytic_params()
    for bad in ((), (1.0, 0.0), (1.0, -1.0), (math.nan,)):
        with pytest.raises(ValueError, match="deltas"):
            AnalyticParams(capacity=1.0, sigma=1.0, hurst=0.7, lam=1e-4, psi0=1.0, deltas=bad)


def test_analytic_nonconvergence_flagged():
    res = analytic_xi(analytic_params(n_sequences=2))
    assert not res.converged
    assert res.n_iter == 2


# -- fitted error surface -----------------------------------------------------------

def coeffs_c10_p3():
    return lookup_coeffs(10e6, 3)


def test_empirical_xi_example():
    # a=0.01, b=0.33 (C=10 Mbit/s, P=3 cell), M=34
    xi = empirical_xi(coeffs_c10_p3(), 34, 3)
    direct = 0.01 * math.exp(1.1 * 3) / (34**0.33 * (3**2 + 3))
    assert xi == direct
    assert xi == pytest.approx(0.00705, abs=1e-5)


def test_empirical_xi_b_zero_limit():
    c = EmpiricalCoeffs(a=0.01, b=1e-12, capacity=10e6, p=3)
    assert empirical_xi(c, 20, 3) == pytest.approx(empirical_xi(c, 90, 3), rel=1e-9)


def test_empirical_xi_linear_in_a():
    c1 = EmpiricalCoeffs(a=0.01, b=0.33, capacity=10e6, p=3)
    c2 = EmpiricalCoeffs(a=0.02, b=0.33, capacity=10e6, p=3)
    assert empirical_xi(c2, 34, 3) == pytest.approx(2 * empirical_xi(c1, 34, 3), rel=1e-12)


@given(m=st.integers(4, 200), p=st.integers(1, 5))
def test_slope_always_negative(m, p):
    c = lookup_coeffs(30e6, p)
    assert empirical_xi_slope(c, m, p) < 0.0


def test_slope_matches_finite_difference():
    c = coeffs_c10_p3()
    m = 34
    h = 1e-4
    num = (
        c.a * math.exp(3.3) / ((m + h) ** c.b * 12)
        - c.a * math.exp(3.3) / ((m - h) ** c.b * 12)
    ) / (2 * h)
    assert empirical_xi_slope(c, m, 3) == pytest.approx(num, rel=1e-6)


def test_slope_vanishes_as_b_to_zero():
    small = EmpiricalCoeffs(a=0.01, b=1e-9, capacity=10e6, p=3)
    assert abs(empirical_xi_slope(small, 34, 3)) < 1e-10


# -- inversion ------------------------------------------------------------------

def test_required_m_inverts_example():
    xi = empirical_xi(coeffs_c10_p3(), 34, 3)
    assert required_m(coeffs_c10_p3(), 3, xi) == 34
    # the printed 3-sig-fig value also lands on 34 (raw requirement 34.1)
    assert required_m(coeffs_c10_p3(), 3, 0.00705) == 34


@given(m_steps=st.integers(1, 30), p=st.integers(1, 5))
def test_required_m_round_trip(m_steps, p):
    m = m_steps * p + 1
    if m - 1 < 2 * p:
        m = 2 * p + 1
    c = lookup_coeffs(50e6, p)
    xi = empirical_xi(c, m, p)
    m_back = required_m(c, p, xi)
    assert m_back >= m
    assert m_back - m <= p  # within one divisibility step


def test_required_m_power_law_scaling():
    c = EmpiricalCoeffs(a=0.01, b=0.5, capacity=10e6, p=3)
    xi = empirical_xi(c, 61, 3)
    m1 = required_m(c, 3, xi)
    m2 = required_m(c, 3, xi / 2)
    assert m2 / m1 == pytest.approx(2 ** (1 / 0.5), rel=0.05)


def test_required_m_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        required_m(coeffs_c10_p3(), 3, 0.0)


# -- coefficient table -------------------------------------------------------------

def test_lookup_exact_cells():
    assert (lookup_coeffs(10e6, 4).a, lookup_coeffs(10e6, 4).b) == (0.26, 1.26)
    assert (lookup_coeffs(70e6, 5).a, lookup_coeffs(70e6, 5).b) == (0.36, 1.14)


def test_lookup_nearest_row():
    c = lookup_coeffs(35e6, 1)
    assert c.capacity == 30e6
    assert (c.a, c.b) == (0.07, 0.21)


def test_lookup_tie_prefers_lower_capacity():
    assert lookup_coeffs(40e6, 2).capacity == 30e6


def test_lookup_rejects_bad_p():
    with pytest.raises(ValueError):
        lookup_coeffs(10e6, 0)
    with pytest.raises(ValueError):
        lookup_coeffs(10e6, 6)


def test_table_shape():
    assert sorted(EMPIRICAL_COEFF_TABLE) == [10e6, 30e6, 50e6, 70e6]
    for row in EMPIRICAL_COEFF_TABLE.values():
        assert sorted(row) == [1, 2, 3, 4, 5]
        for a, b in row.values():
            assert a > 0 and b > 0


# -- coefficient fitting -------------------------------------------------------------

def test_fit_recovers_exact_model():
    true = EmpiricalCoeffs(a=0.05, b=0.7, capacity=10e6, p=2)
    ms = [16, 28, 40, 64, 100]
    pts = [(m, empirical_xi(true, m, 2)) for m in ms]
    fit = fit_coeffs(pts, 2)
    assert fit.a == pytest.approx(true.a, rel=1e-6)
    assert fit.b == pytest.approx(true.b, rel=1e-6)


def test_fit_two_points_exact():
    true = EmpiricalCoeffs(a=0.03, b=0.4, capacity=10e6, p=3)
    pts = [(m, empirical_xi(true, m, 3)) for m in (20, 80)]
    fit = fit_coeffs(pts, 3)
    assert fit.a == pytest.approx(true.a, rel=1e-9)
    assert fit.b == pytest.approx(true.b, rel=1e-9)


def test_fit_with_multiplicative_noise():
    true = EmpiricalCoeffs(a=0.05, b=0.7, capacity=10e6, p=2)
    ms = list(range(16, 101, 6))
    rng = np.random.default_rng(123)
    errs_a, errs_b = [], []
    for _ in range(100):
        pts = [(m, empirical_xi(true, m, 2) * (1 + rng.normal(0, 0.01))) for m in ms]
        fit = fit_coeffs(pts, 2)
        errs_a.append(abs(fit.a - true.a) / true.a)
        errs_b.append(abs(fit.b - true.b) / true.b)
    assert np.median(errs_a) < 0.05
    assert np.median(errs_b) < 0.05


def test_fit_rejects_degenerate_design():
    with pytest.raises(ValueError):
        fit_coeffs([(34, 0.01), (34, 0.012)], 3)
