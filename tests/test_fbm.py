import cProfile
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import abprobe.path
from abprobe import fbm
from abprobe.fbm import (
    FbmParams,
    FbmTrace,
    _next_fast_len,
    fgn_davies_harte,
    generate_trace,
)
from abprobe.path import RATE_CEILING, PathModel


def make_params(**kw):
    base = dict(hurst=0.7, sigma=1.0, mu=0.0, dt=1.0, horizon=4.0, seed=0)
    base.update(kw)
    return FbmParams(**base)


def increments_of(params):
    """A lead zero, then the fGn increments generate_trace(params, max_rate)
    builds its volume from (the trace keeps only the volume), bit for bit."""
    incr = fgn_davies_harte(params.n_samples - 1, params.hurst, np.random.default_rng(params.seed))
    return np.concatenate([[0.0], incr])


def omega_of(params):
    """The omega samples the volume pass sums from the increments, bit for bit."""
    return np.cumsum(increments_of(params) * params.dt**params.hurst)


@pytest.fixture
def set_block(monkeypatch):
    """set_block(points) sets fbm._BLOCK for one test.  The spectral scales
    cached before and during the test are dropped, so that no scale built
    at another block size (different in the last bits) crosses tests."""

    def set_block(points):
        monkeypatch.setattr(fbm, "_BLOCK", points)
        fbm._SCALE_CACHE.clear()

    yield set_block
    fbm._SCALE_CACHE.clear()


def assert_owns_its_bytes(x, size):
    # the transform buffer, shrunk to its samples, not a view of it
    assert x.base is None and x.flags.owndata
    assert len(x) == size and x.nbytes == 8 * size


# -- parameter validation ---------------------------------------------------

@pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.5])
def test_rejects_bad_hurst(hurst):
    with pytest.raises(ValueError):
        make_params(hurst=hurst)


@pytest.mark.parametrize("field", ["sigma", "mu"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_rejects_bad_sigma_and_mu(field, value):
    with pytest.raises(ValueError, match=field):
        make_params(**{field: value})


def test_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        make_params(dt=0.0)
    with pytest.raises(ValueError):
        make_params(dt=-1.0)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            make_params(dt=dt)


def test_rejects_horizon_below_dt():
    with pytest.raises(ValueError):
        make_params(dt=1.0, horizon=0.5)
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon must be finite"):
            make_params(horizon=horizon)


def test_rejects_dt_too_small_to_count_the_samples():
    # horizon / dt overflows to inf: n_samples could not be formed
    with pytest.raises(ValueError, match="raise dt"):
        make_params(dt=5e-324, horizon=6.0)
    assert make_params(dt=1e-300, horizon=6.0).n_samples > 10**300


def smooth_even_reference(target: int) -> int:
    """Smallest even integer >= target (and >= 2) with no prime factor above 5."""
    m = max(target, 2)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if m % 2 == 0 and k == 1:
            return m
        m += 1


def test_next_fast_len_matches_brute_force():
    rng = np.random.default_rng(3)
    targets = [*range(-2, 3001), *rng.integers(3001, 10**7, 300).tolist(),
               2 * (3340001 - 1), 2 * (10000001 - 1)]
    for target in targets:
        assert _next_fast_len(target) == smooth_even_reference(target), target


def test_next_fast_len_of_an_absurd_target_is_even_and_5_smooth():
    target = int(1.2e301)
    m = _next_fast_len(target)
    assert target <= m < 2 * target and m % 2 == 0
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    assert m == 1


def test_sample_count():
    assert make_params(dt=0.5, horizon=4.0).n_samples == 9
    assert generate_trace(make_params(dt=0.5, horizon=4.0), math.inf).n == 9


@pytest.mark.parametrize("max_rate", [0.0, -1.0, math.nan])
def test_trace_rejects_bad_ceiling(max_rate):
    with pytest.raises(ValueError, match="max_rate must be > 0"):
        generate_trace(make_params(), max_rate)


# -- determinism -------------------------------------------------------------

def test_trace_deterministic_under_seed():
    p = make_params(seed=1234, dt=0.25, horizon=10.0)
    a = generate_trace(p, 3.0)
    b = generate_trace(p, 3.0)
    assert np.array_equal(omega_of(p), omega_of(p))
    assert np.array_equal(a.volume, b.volume)
    # built over its increments, a trace has the same volume
    buf = increments_of(p)
    assert fbm._volume(p, buf, 3.0) == (a.clamp_fraction, a.cap_fraction, a.max_rate)
    assert np.array_equal(buf, a.volume)


def test_different_seeds_differ():
    a = omega_of(make_params(seed=1))
    b = omega_of(make_params(seed=2))
    assert not np.array_equal(a, b)


def test_omega_starts_at_zero():
    # b(0) = sigma*omega(0) clamps to 0
    assert omega_of(make_params())[0] == 0.0
    assert generate_trace(make_params(), math.inf).volume[0] == 0.0


# -- distributional fidelity --------------------------------------------------

def test_h_half_reduces_to_brownian():
    # H=0.5: increments over disjoint unit intervals are iid standard normal
    inc = np.diff(omega_of(make_params(hurst=0.5, dt=1.0, horizon=60000.0, seed=11)))
    n = len(inc)
    assert abs(inc.mean()) < 4.0 / np.sqrt(n)
    assert abs(inc.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    lag1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
    assert abs(lag1) < 4.0 / np.sqrt(n)


def test_fbm_covariance_monte_carlo():
    # ensemble E[omega(1) omega(2)] -> 0.5*(|1+1|^2H + 1 - 1) = 0.5*2^1.4
    expected = 0.5 * 2**1.4  # = 1.3195079107728942
    n_traces = 100_000
    prods = np.empty(n_traces)
    for s in range(n_traces):
        omega = omega_of(FbmParams(hurst=0.7, sigma=1.0, mu=0.0, dt=1.0, horizon=2.0, seed=s))
        prods[s] = omega[1] * omega[2]
    se = prods.std(ddof=1) / np.sqrt(n_traces)
    assert abs(prods.mean() - expected) < 3.0 * se


def test_stationary_increments_ks():
    # increment law over [t, t+1] does not depend on t (grid points on a unit grid)
    horizon = 8
    n_traces = 10_000
    a = np.empty(n_traces)
    b = np.empty(n_traces)
    for s in range(n_traces):
        omega = omega_of(FbmParams(hurst=0.7, sigma=1.0, mu=0.0, dt=1.0, horizon=horizon, seed=s))
        a[s] = omega[1] - omega[0]
        b[s] = omega[horizon // 2 + 1] - omega[horizon // 2]
    _, pvalue = stats.ks_2samp(a, b)
    assert pvalue > 0.01


def test_variance_scaling_slope():
    # log Var(windowed rate) vs log delta has slope 2H - 2
    hurst = 0.7
    deltas = np.array([0.25, 0.5, 1.0, 2.0, 2.5])
    n_traces = 10_000
    # mu large enough that the monotone clamp never bites, and a rate
    # ceiling (0.95 * 100) far above the traffic
    rates = np.empty((n_traces, len(deltas)))
    for s in range(n_traces):
        path = PathModel(100.0, FbmParams(hurst=hurst, sigma=1.0, mu=50.0, dt=0.25, horizon=4.0, seed=s))
        assert path.cap_fraction == 0.0
        rates[s] = path.cross_rate(1.0, deltas)
    var = rates.var(axis=0, ddof=1)
    slope = np.polyfit(np.log(deltas), np.log(var), 1)[0]
    assert abs(slope - (2 * hurst - 2)) < 0.05


def test_rate_variance_value_at_delta4():
    # Var(rate over delta) = sigma^2 delta^(2H-2): 4^-0.6 = 0.43528
    expected = 4.0**-0.6
    n_traces = 10_000
    vals = np.empty(n_traces)
    for s in range(n_traces):
        path = PathModel(100.0, FbmParams(hurst=0.7, sigma=1.0, mu=50.0, dt=1.0, horizon=4.0, seed=s))
        assert path.cap_fraction == 0.0
        vals[s] = path.cross_rate(0.0, 4.0) - 50.0
    var = vals.var(ddof=1)
    se = var * np.sqrt(2.0 / (n_traces - 1))
    assert abs(var - expected) < 3.0 * se


# -- volume queries (through the path; its rate ceiling never binds here) ------

def test_cumulative_bits_zero_at_origin():
    assert PathModel(1e7, make_params(sigma=1.0, mu=5e6)).cumulative_cross_bits(0.0) == 0.0


def test_cumulative_bits_deterministic_fluid():
    path = PathModel(1e7, make_params(sigma=0.0, mu=5e6, dt=0.5, horizon=4.0))
    assert path.cumulative_cross_bits(2.0) == pytest.approx(1e7, rel=1e-12)
    assert path.cross_rate(0.7, 2.3) == pytest.approx(5e6, rel=1e-12)


def test_monotone_clamp_by_hand(monkeypatch):
    # mu=1, sigma=1, increments [-2, 3] at dt=1, so omega(1) = -2: raw
    # b(1) = -1 -> clamped to 0; the path's ceiling, 9.5, is never reached
    p = make_params(mu=1.0, sigma=1.0, dt=1.0, horizon=2.0)
    volume = np.array([0.0, -2.0, 3.0])
    trace = FbmTrace(volume, *fbm._volume(p, volume, 9.5))
    assert trace.volume.tolist() == [0.0, 0.0, 3.0]
    monkeypatch.setattr(abprobe.path, "generate_trace", lambda params, max_rate: trace)
    path = PathModel(10.0, p)
    assert path.cumulative_cross_bits(1.0) == 0.0
    assert path.cumulative_cross_bits(0.5) == 0.0  # between two clamped grid points of 0
    # raw recovers: b(2) = 2 + 1 = 3
    assert path.cumulative_cross_bits(2.0) == pytest.approx(3.0)
    assert path.clamp_fraction == pytest.approx(1.0 / 3.0)


def test_cumulative_nondecreasing_and_rate_nonnegative():
    path = PathModel(1e3, make_params(mu=0.3, sigma=1.0, dt=0.1, horizon=20.0, seed=5))
    assert path.cap_fraction == 0.0
    ts = np.linspace(0.0, 20.0, 500)
    vals = np.array([path.cumulative_cross_bits(t) for t in ts])
    assert np.all(np.diff(vals) >= -1e-12)
    for t in (0.0, 3.3, 11.7):
        assert path.cross_rate(t, 1.3) >= 0.0


def test_query_domain_errors():
    path = PathModel(10.0, make_params())
    with pytest.raises(ValueError):
        path.cumulative_cross_bits(-0.5)
    with pytest.raises(ValueError):
        path.cumulative_cross_bits(5.0)
    with pytest.raises(ValueError, match="time outside"):
        path.cumulative_cross_bits(math.nan)
    with pytest.raises(ValueError, match="delta must be"):
        path.cross_rate(1.0, math.nan)
    with pytest.raises(ValueError):
        path.cross_rate(3.0, 2.0)
    with pytest.raises(ValueError):
        path.cross_rate(1.0, 0.0)
    with pytest.raises(ValueError):
        path.cross_rate(1.0, np.array([0.5, 0.0]))


def test_trace_generation_at_awkward_sizes():
    # embedding sizes must stay even 5-smooth; n_incr=70000 once tripped this
    p = make_params(dt=3e-4, horizon=21.0, seed=0)
    assert generate_trace(p, math.inf).n == p.n_samples == 70001


def test_fgn_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fgn_davies_harte(10, 1.2, rng)
    with pytest.raises(ValueError):
        fgn_davies_harte(0, 0.7, rng)


# -- agreement with the straightforward formulas ------------------------------
# The synthesis and the eigenvalues run through one half-length complex
# four-step inverse FFT; these references use numpy's length-m rfft/irfft.
# The rounding differs, so they agree to stated tolerances: omega (and the
# clamped grid) within 1e-12*max|omega|, eigenvalues within 1e-13*max(lam),
# and clamp_fraction within two grid points.  Measured: ~1e-14 and ~2e-15
# on these cases.

OMEGA_RTOL = 1e-12
LAM_RTOL = 1e-13


def reference_eigenvalues(hurst, m):
    """Three k^2H powers per lag, the row by concatenation, rfft().real."""
    two_h = 2.0 * hurst
    half = m // 2
    k = np.arange(half + 1, dtype=float)
    gamma = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.rfft(row).real


def reference_fgn(lam, n, rng):
    """n increments by irfft of the sqrt-scaled spectrum of eigenvalues 0..m/2."""
    lam = np.clip(lam, 0.0, None)
    half = len(lam) - 1
    m = 2 * half
    z = rng.standard_normal(m)
    spec = np.empty(half + 1, dtype=complex)
    spec[0] = np.sqrt(m * lam[0]) * z[0]
    spec[half] = np.sqrt(m * lam[half]) * z[half]
    spec[1:half] = np.sqrt(m * lam[1:half] / 2.0) * (z[1:half] + 1j * z[half + 1 :])
    return np.fft.irfft(spec, n=m)[:n]


def reference_trace(params):
    """(omega, raw, clamped) by direct synthesis: sqrt-scaled spectrum from
    the eigenvalues, raw = mu*t + sigma*omega, running max of max(0, raw)."""
    rng = np.random.default_rng(params.seed)
    n = params.n_samples - 1
    if n == 1:
        incr = rng.standard_normal(1)
    else:
        for m in (_next_fast_len(2 * n), 2 * n):
            lam = reference_eigenvalues(params.hurst, m)
            if lam.min() >= -1e-8 * lam.max():
                break
        incr = reference_fgn(lam, n, rng)
    incr = incr * params.dt**params.hurst
    omega = np.concatenate([[0.0], np.cumsum(incr)])
    raw = params.mu * (params.dt * np.arange(n + 1)) + params.sigma * omega
    return omega, raw, np.maximum.accumulate(np.maximum(raw, 0.0))


def assert_trace_matches_reference(params):
    tr = generate_trace(params, math.inf)
    omega, raw, cum = reference_trace(params)
    tol = OMEGA_RTOL * np.abs(omega).max()
    assert np.abs(omega_of(params) - omega).max() <= tol
    assert np.abs(tr.volume - cum).max() <= params.sigma * tol
    assert abs(tr.clamp_fraction - float(np.mean(cum > raw))) * tr.n <= 2


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.7, 0.99])
@pytest.mark.parametrize("n_samples", [2, 8, 1001])
def test_trace_bit_identical_to_reference(hurst, n_samples):
    # within the tolerances stated above
    fbm._SCALE_CACHE.clear()
    for seed in (3, 4):  # the second call reuses the cached spectral scale
        assert_trace_matches_reference(
            make_params(hurst=hurst, mu=0.4, dt=0.5, horizon=0.5 * (n_samples - 1), seed=seed)
        )


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_trace_matches_reference_over_several_blocks(hurst):
    # m = 144000: a 250 x 288 four-step grid, three pre-pass blocks, 17
    # twiddle blocks.  H = 0.05 is left out at this length: its eigenvalues
    # near bin 0 are ~1e-6 of the largest, so their ~1e-15 rounding moves
    # omega's drift by ~4e-12 of max|omega| (the synthesis alone agrees to
    # ~2e-14).
    fbm._SCALE_CACHE.clear()
    assert_trace_matches_reference(make_params(hurst=hurst, mu=0.4, horizon=70000.0, seed=7))


@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.5, 0.75, 0.99])
def test_embedding_eigenvalues_bit_identical(hurst):
    # within LAM_RTOL, on the padded embedding m = _next_fast_len(2n)
    for n in (2, 7, 1000, 1009):
        lam = fbm._embedding_eigenvalues(n, hurst)
        assert_owns_its_bytes(lam, _next_fast_len(2 * n) // 2 + 1)
        ref = reference_eigenvalues(hurst, _next_fast_len(2 * n))
        assert np.abs(lam - np.clip(ref, 0.0, None)).max() <= LAM_RTOL * ref.max()


@pytest.mark.parametrize("n, hurst", [(1605456, 0.93), (1003333, 0.99)])
def test_embedding_falls_back_to_2n_then_raises(n, hurst):
    # The expected choice is the first embedding the rfft reference finds
    # definite.  Here the padded one rounds to indefinite in both cases; the
    # minimal 2n one is definite in the first (lam_min/lam_max = +1.0e-8,
    # against -2.2e-8 padded) and indefinite too in the second.
    fits = [(m, reference_eigenvalues(hurst, m)) for m in (_next_fast_len(2 * n), 2 * n)]
    fits = [(m, ref) for m, ref in fits if ref.min() >= -1e-8 * ref.max()]
    if not fits:
        with pytest.raises(ValueError, match=f"n={n}-increment traffic trace at hurst={hurst}"):
            fbm._embedding_eigenvalues(n, hurst)
        return
    m, ref = fits[0]
    lam = fbm._embedding_eigenvalues(n, hurst)
    assert len(lam) == m // 2 + 1
    assert np.abs(lam - np.clip(ref, 0.0, None)).max() <= LAM_RTOL * ref.max()


@pytest.mark.parametrize("n", [7, 1009])
def test_prime_fallback_synthesis_matches_reference(monkeypatch, n):
    # an embedding length of exactly 2n, as the fallback uses, gives a prime
    # half length, which the four-step FFT runs as a single lane
    monkeypatch.setattr(fbm, "_next_fast_len", lambda target: target)
    monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
    assert fbm._grid_shape(n) == (1, n)
    x = fgn_davies_harte(n, 0.7, np.random.default_rng(5))
    assert_owns_its_bytes(x, n)
    want = reference_fgn(reference_eigenvalues(0.7, 2 * n), n, np.random.default_rng(5))
    assert np.abs(x - want).max() <= OMEGA_RTOL * np.abs(want).max()


@pytest.mark.parametrize("block", [3, 4])
@pytest.mark.parametrize("half", [10, 12, 13, 15, 16])
def test_blocked_passes_match_reference(monkeypatch, set_block, block, half):
    # The embedding m = 2*half exactly, with 3 or 4 points per block, on
    # 2 x 5, 3 x 4, 1 x 13, 3 x 5 and 4 x 4 grids: the normals are drawn in
    # blocks of whole grid columns across the re/im split, bin 0 pairs with
    # the real bin half, an even half pairs bin half/2 with itself, and the
    # pre-pass's last block on row 0, whose bins reach the midpoint from
    # below while their partners reach it from above, is full for some
    # halves and partial for others; a middle row of an even L1 pairs with
    # itself.
    set_block(block)
    monkeypatch.setattr(fbm, "_next_fast_len", lambda target: target)
    ref = reference_eigenvalues(0.7, 2 * half)
    lam = fbm._embedding_eigenvalues(half, 0.7)
    assert_owns_its_bytes(lam, half + 1)
    assert np.abs(lam - np.clip(ref, 0.0, None)).max() <= LAM_RTOL * ref.max()
    x = fgn_davies_harte(half, 0.7, np.random.default_rng(half))
    assert_owns_its_bytes(x, half)
    want = reference_fgn(ref, half, np.random.default_rng(half))
    assert np.abs(x - want).max() <= OMEGA_RTOL * np.abs(want).max()


def whole_array_covariance(half, hurst):
    """gamma(0..half) by the whole-array formula the blocked build replaced:
    q[k] = |k-1|^2H for k = 0..half+2, then
    gamma(k) = 0.5*((q[k+2] - 2q[k+1]) + q[k])."""
    q = np.arange(-1.0, half + 2)
    q[0] = 1.0
    q **= 2.0 * hurst
    return 0.5 * ((q[2:] - 2.0 * q[1:-1]) + q[:-2])


@pytest.mark.parametrize("block", [3, 4, None])
@pytest.mark.parametrize("half", [10, 12, 13, 15, 16, 33750])
@pytest.mark.parametrize("hurst", [0.05, 0.7, 0.99])
def test_blocked_covariance_build_equals_whole_array_formula(set_block, block, half, hurst):
    # bit for bit, |k-1|^2H raised a block at a time; 33750 (150 x 225) runs
    # over several blocks at the default size
    if block is not None:
        set_block(block)
    buf = fbm._covariance_spectrum(half, hurst)
    re, im = fbm._bin_views(buf)
    want = whole_array_covariance(half, hurst)
    assert np.array_equal(re.reshape(-1), want[:half])
    assert buf[1] == want[half]  # the real bin half, in bin 0's imaginary slot
    assert not im.reshape(-1)[1:].any()


@pytest.mark.parametrize("block", [3, 4, None])
def test_volume_equals_whole_array_formula(set_block, block):
    # bit for bit, with omega's sum, the clamp and the capped volume carried
    # across blocks; at the default block the trace spans four blocks
    n = 201 if block else 3 * fbm._BLOCK + 201
    p = make_params(mu=0.3, sigma=1.0, dt=0.1, horizon=0.1 * (n - 1), seed=5)
    incr = increments_of(p)
    if block is not None:
        set_block(block)
    raw = np.arange(p.n_samples, dtype=float)
    raw *= p.dt
    raw *= p.mu
    raw += p.sigma * np.cumsum(incr * p.dt**p.hurst)
    cum = np.maximum.accumulate(np.maximum(raw, 0.0))
    inc = np.diff(cum)
    into = np.arange(fbm._BLOCK, p.n_samples, fbm._BLOCK) - 1  # the steps into a block
    # the clamp binds across a block boundary at a level set in the block before
    assert any(cum[b] > raw[b] and cum[b] == cum[b - 1] > 0.0 for b in into + 1)
    # a ceiling that some step into a block crosses, and none
    for max_rate in (0.5 * inc[into].max() / p.dt, math.inf):
        capped = np.minimum(inc, max_rate * p.dt)
        buf = incr.copy()
        fractions = fbm._volume(p, buf, max_rate)
        assert np.array_equal(buf, np.concatenate([[0.0], np.cumsum(capped)]))
        assert fractions == (
            float(np.mean(cum > raw)), float(np.mean(capped < inc)), float(capped.max() / p.dt)
        )
        assert all(type(f) is float for f in fractions)
        assert np.any(capped[into] < inc[into]) == (max_rate < math.inf)


# -- the output in the transform's own buffer -----------------------------------

def packed(spec, pool=None):
    """_irfft's packed spectrum of X[0..L]: bin k, a complex pair, at
    grid[k % L1, k // L1] of the (L1, L2) grid over the buffer, the real
    bin L in bin 0's imaginary slot (a build, so it takes _irfft's pool)."""
    half = len(spec) - 1
    l1, l2 = fbm._grid_shape(half)
    buf = np.empty(2 * half)
    slots = buf.reshape(l1, l2, 2)
    slots[:, :, 0] = spec[:half].real.reshape(l2, l1).T
    slots[:, :, 1] = spec[:half].imag.reshape(l2, l1).T
    buf[1] = spec[half].real
    return buf


@pytest.mark.parametrize("block", [4, 1000, 1 << 16])
@pytest.mark.parametrize(
    "half, lead, count",
    [
        (16, 1, 9),  # 4 x 4: L1 and L2 even
        (16, 0, 17),
        (15, 1, 15),  # 3 x 5: both odd
        (15, 0, 16),
        (6, 1, 6),  # 2 x 3: L1 even, L2 odd, so bin L/2 off row 0
        (6, 0, 7),
        (18, 1, 18),  # 3 x 6: L1 odd, L2 even
        (18, 0, 19),
        (4, 0, 5),  # 2 x 2
        (1000, 1, 1000),  # 25 x 40
        (1000, 0, 1001),
        (1005, 1, 1005),  # 15 x 67
        (16200, 1, 16200),  # 120 x 135: at block 1000, the pre-pass pairs 7 rows at a time
        (16200, 0, 16201),
        (18000, 1, 17000),  # 125 x 144
        (18000, 0, 18001),
        (13, 1, 13),  # prime L: one lane, L1 = 1
        (13, 0, 14),
        (1009, 1, 1009),
        (1009, 0, 1010),
        (1, 1, 1),  # L = 1: bin 0 and the real bin 1 only
        (1, 0, 2),
    ],
)
def test_irfft_output_in_its_own_buffer(set_block, block, half, lead, count):
    set_block(block)
    rng = np.random.default_rng(half + count)
    spec = rng.standard_normal(half + 1) + 1j * rng.standard_normal(half + 1)
    want = np.fft.irfft(spec, n=2 * half)[:count]
    x = fbm._irfft(packed, (spec,), lead, count)
    assert_owns_its_bytes(x, lead + count)
    assert np.all(x[:lead] == 0.0)
    assert np.abs(x[lead:] - want).max() <= OMEGA_RTOL * np.abs(want).max()


def test_irfft_refuses_a_buffer_held_elsewhere():
    # the shrink is in place or not at all: a second reference raises
    # instead of leaving a copy beside the full buffer
    held = []

    def build(spec, pool):
        held.append(packed(spec))
        return held[-1]

    with pytest.raises(ValueError, match="resize"):
        fbm._irfft(build, (np.arange(9.0) + 0j,), 0, 9)


@pytest.mark.parametrize("half", [2 * 70001, 3 * 70001, 4 * 70001])
def test_irfft_rows_longer_than_a_block(half):
    # 2, 3 and 4 x 70001 grids at the default block: each of the pre-pass's
    # pairings (row 0, the rows from 1, the middle row of an even L1) and
    # the twiddle run over several chunks of columns
    assert fbm._grid_shape(half)[1] > fbm._BLOCK
    rng = np.random.default_rng(half)
    spec = rng.standard_normal(half + 1) + 1j * rng.standard_normal(half + 1)
    want = np.fft.irfft(spec, n=2 * half)[:half]
    x = fbm._irfft(packed, (spec,), 1, half)
    assert_owns_its_bytes(x, half + 1)
    assert x[0] == 0.0
    assert np.abs(x[1:] - want).max() <= OMEGA_RTOL * np.abs(want).max()


def test_trace_built_through_wrapped_calls(monkeypatch):
    # the buffer is built inside _irfft, so wrappers that hold their
    # arguments (a decorator, a tracer, a frame evaluator) do not block the
    # in-place shrink
    p = make_params(mu=0.3, sigma=1.0, dt=0.1, horizon=20.0, seed=5)
    monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
    want = generate_trace(p, math.inf).volume
    for name in ("_irfft", "_fgn"):
        inner = getattr(fbm, name)
        monkeypatch.setattr(fbm, name, lambda *args, inner=inner: inner(*args))
    fbm._SCALE_CACHE.clear()  # the eigenvalues take the wrapped path too
    assert np.array_equal(generate_trace(p, math.inf).volume, want)


@pytest.mark.parametrize("hook", ["settrace", "setprofile", "cProfile"])
def test_trace_built_under_a_tracer_or_profiler(monkeypatch, hook):
    # a tracer or profiler holds one more reference to the transform buffer
    # (the frame's locals, the bound method it reports), which the in-place
    # shrink refuses; the trace is then built in a copy, the same bit for bit
    p = make_params(mu=0.3, sigma=1.0, dt=0.1, horizon=20.0, seed=5)
    monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
    want = generate_trace(p, math.inf).volume
    fbm._SCALE_CACHE.clear()  # the eigenvalues are built under the hook too
    if hook == "cProfile":
        got = cProfile.Profile().runcall(generate_trace, p, math.inf).volume
    else:
        set_hook, previous = getattr(sys, hook), getattr(sys, "get" + hook[3:])()

        def hook_fn(frame, event, arg):
            return hook_fn

        set_hook(hook_fn)
        try:
            got = generate_trace(p, math.inf).volume
        finally:
            set_hook(previous)
    assert np.array_equal(got, want)
    assert_owns_its_bytes(got, p.n_samples)


@pytest.mark.parametrize("exact", [False, True])
def test_trace_built_in_place_equals_clamp_of_its_omega(monkeypatch, set_block, exact):
    # bit for bit, in blocks of 4 points: the volume pass over the
    # synthesis's own array, as generate_trace and as the path run it,
    # against the same pass over a copy of the increments
    set_block(4)
    if exact:
        monkeypatch.setattr(fbm, "_next_fast_len", lambda target: target)
    for n in (2, 3, 9, 14, 16, 201):
        p = make_params(mu=0.3, sigma=1.0, dt=0.1, horizon=0.1 * (n - 1), seed=n)
        ceiling = RATE_CEILING * 3.0  # a rate ceiling the clamp's steps cross
        tr = generate_trace(p, ceiling)
        ref = increments_of(p)
        fractions = fbm._volume(p, ref, ceiling)
        assert (tr.clamp_fraction, tr.cap_fraction, tr.max_rate) == fractions
        assert np.array_equal(tr.volume, ref)
        assert_owns_its_bytes(tr.volume, n)
        # the increments, before the volume pass hides them
        with monkeypatch.context() as m:
            m.setattr(fbm, "_volume", lambda params, buf, max_rate: (0.0, 0.0, 0.0))
            assert np.array_equal(generate_trace(p, ceiling).volume, increments_of(p))
        path = PathModel(3.0, p)
        assert np.array_equal(path._eff, ref)
        assert path.clamp_fraction == tr.clamp_fraction
        assert (path.cap_fraction, path.max_fluid_rate) == fractions[1:]
        assert_owns_its_bytes(path._eff, n)
        assert not path._eff.flags.writeable


def whole_array_prepass(grid):
    """The pre-pass's C[0..L-1] in bin order by the whole-array formula
    C[k] = W + g_k*(X[k] - W), W = conj X[L-k], g_k = 1/2 + i*e^(i*pi*k/L)/2,
    from the packed X on the grid (the real bin L in bin 0's imaginary slot)."""
    x = grid.T.reshape(-1)
    k = np.arange(len(x))
    x = np.append(x, x[0].imag)
    x[0] = x[0].real
    w = np.conj(x[len(k) - k])
    return w + (0.5 + 0.5j * np.exp(1j * np.pi * k / len(k))) * (x[:-1] - w)


# grid halves of every parity of L1 and L2, each at blocks of 3 and 4 points
# and the default block, then rows longer than the default block
PREPASS_HALVES = [
    1,  # 1 x 1: bin 0 and the real bin 1 only
    2,  # 1 x 2
    13,  # 1 x 13
    6,  # 2 x 3: L1 even, L2 odd, so bin L/2 off row 0
    16,  # 4 x 4: both even
    42,  # 6 x 7
    12,  # 3 x 4: L1 odd, L2 even
    30,  # 5 x 6
    15,  # 3 x 5: both odd
    16200,  # 120 x 135
    18000,  # 125 x 144
]


@pytest.mark.parametrize(
    "half, block",
    [(h, b) for h in PREPASS_HALVES for b in (3, 4, None)]
    + [(2 * 70001, None), (3 * 70001, None), (4 * 70001, None)],
)
def test_prepass_equals_whole_array_formula(set_block, half, block):
    # every bin is written, within a few ulp of the formula, whichever of the
    # three pairings (row 0, the rows from 1, the middle row of an even L1)
    # it falls in and however the blocks cut them
    if block is not None:
        set_block(block)
    rng = np.random.default_rng(half)
    shape = fbm._grid_shape(half)
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = whole_array_prepass(grid)
    before = grid.copy()
    fbm._prepass(grid)
    assert np.all(grid != before)
    assert np.abs(grid.T.reshape(-1) - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("length", [1, 2, 97, 18000, 2 * 70001, 3 * 70001])
def test_fft_inplace_matches_numpy(length):
    # the input in natural order along grid.T, the output in grid.reshape(-1)
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    l1, l2 = fbm._grid_shape(length)
    grid = x.reshape(l2, l1).T.copy()
    fbm._fft_inplace(grid)
    ref = np.fft.ifft(x)
    assert np.abs(grid.reshape(-1) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_trace_build_peak_memory_per_sample():
    # Measured: 25.9 B per sample, i.e. the half-length FFT buffer the
    # normals are drawn into (8 B) and the cached scale (4 B) per embedding
    # point at m = 2n, plus ~1 MB of block buffers.  The FFT works inside
    # that buffer with one lane of scratch and the samples stay in it, so
    # tracemalloc sees the whole peak.
    n = 2**20 + 1
    p = FbmParams(hurst=0.7, sigma=2.5e5, mu=4e6, dt=1e-3, horizon=1e-3 * (n - 1), seed=0)
    fbm._SCALE_CACHE.clear()
    tracemalloc.start()
    try:
        PathModel(1e7, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 26.0


@pytest.mark.parametrize("half", [2 * 500009, 1000 * 1000, 2916 * 3456])
def test_synthesis_temporaries_stay_within_blocks(monkeypatch, half):
    # tracemalloc's peak of one synthesis with its scale cached, less the
    # 8 B per embedding point of its transform buffer: the block buffers of
    # the passes, at most a few _BLOCK points each, whatever the grid's shape
    # (2 x 500009 is the m = 2n fallback's for n = 2 * prime; the last one is
    # fine_trace's).  Measured: 1.3, 1.0 and 1.1 MiB.
    monkeypatch.setattr(fbm, "_next_fast_len", lambda target: target)
    monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
    fgn_davies_harte(half, 0.7, np.random.default_rng(0))
    tracemalloc.start()
    try:
        fgn_davies_harte(half, 0.7, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * 2 * half <= 4 * 2**20


def test_cold_eigenvalue_step_peak_per_point():
    # The embedding's eigenvalues at run_cli's size are built in one 8 B per
    # point buffer, gamma a block at a time, with no |k-1|^2H array beside
    # it.  Measured: 8.16 B per point.
    n = 3336666
    tracemalloc.start()
    try:
        lam = fbm._embedding_eigenvalues(n, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * (len(lam) - 1)) <= 8.6


def test_traced_build_fits_its_estimate(monkeypatch):
    # under a tracer _irfft copies the kept points out of the full buffer,
    # and peak_bytes counts that copy: tracemalloc's peak with the scale
    # cached, plus the scale, stays within the estimate
    n = 2**20 + 1
    p = FbmParams(hurst=0.7, sigma=2.5e5, mu=4e6, dt=1e-3, horizon=1e-3 * (n - 1), seed=0)
    monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
    generate_trace(p, math.inf)
    (scale,) = fbm._SCALE_CACHE.values()
    untraced = fbm.peak_bytes([(n, p.hurst)])

    def hook(frame, event, arg):
        return hook

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        estimate = fbm.peak_bytes([(n, p.hurst)])
        tracemalloc.start()
        generate_trace(p, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(previous)
    assert untraced < estimate
    assert peak + scale.nbytes <= estimate


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_trace_build_peak_rss_per_embedding_point():
    # Peak RSS rise of one cold trace build in a fresh process, over its
    # embedding length: ~13.9 B per point measured (12 B for the
    # buffer and the scale, the rest the block buffers and the allocator).
    # A length-m numpy irfft needs ~24 B per point of output and working
    # memory on its own (~37 B for the whole build), which tracemalloc does
    # not see.  The child reads its own VmHWM, not ru_maxrss: a process
    # started by exec inherits in ru_maxrss the peak RSS of the one that
    # started it, here the test runner's, which can hide the whole rise.
    code = (
        "from abprobe.fbm import FbmParams, _next_fast_len, generate_trace\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
        "n = 2**21 + 1\n"
        "p = FbmParams(hurst=0.7, sigma=2.5e5, mu=4e6, dt=1e-3, horizon=1e-3 * (n - 1))\n"
        "base = peak_kib()\n"
        "generate_trace(p, float('inf'))\n"
        "print((peak_kib() - base) * 1024 / _next_fast_len(2 * (n - 1)))\n"
    )
    src = str(Path(fbm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert float(out.stdout) < 15.0


# -- the passes on two threads -------------------------------------------------

@pytest.mark.parametrize(
    "n, exact, shape",
    [
        (3336666, False, (1728, 1944)),  # run_cli's
        (1215 * 1280, True, (1215, 1280)),  # odd L1
        (1024 * 1125, True, (1024, 1125)),  # even L1: row 512 pairs with itself
        (1048583, True, (1, 1048583)),  # one row: a prime L, one lane
        (2 * 524309, True, (2, 524309)),  # the m = 2n fallback's for n = 2 * prime
    ],
)
def test_threads_equal_serial_bit_for_bit(monkeypatch, n, exact, shape):
    # the same synthesis with the passes on one thread and on two: the cold
    # one (the covariance build too) and then a warm trace, equal bit for
    # bit; every transform above the cutoff starts its own worker and joins
    # it before it returns
    if exact:
        monkeypatch.setattr(fbm, "_next_fast_len", lambda target: target)
    assert fbm._grid_shape(fbm._next_fast_len(2 * n) // 2) == shape
    assert n >= fbm._THREADED * fbm._BLOCK
    pools = []

    class CountedPool(fbm.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fbm, "ThreadPoolExecutor", CountedPool)
    p = make_params(mu=4e6, sigma=2.5e5, dt=1e-3, horizon=1e-3 * n, seed=3)
    got = []
    for threads in (1, 2):
        monkeypatch.setattr(fbm, "_THREADS", threads)
        monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
        pools.clear()
        before = threading.active_count()
        x = fgn_davies_harte(n, p.hurst, np.random.default_rng(7))
        volume = generate_trace(p, RATE_CEILING * 3.0).volume
        assert threading.active_count() == before
        # the eigenvalues, then two syntheses, each with one worker or none
        assert pools == [(1,)] * 3 * (threads - 1)
        got.append((x, volume))
    assert np.array_equal(got[0][0], got[1][0])
    assert np.array_equal(got[0][1], got[1][1])


def test_threads_under_stress_equal_serial(monkeypatch):
    # more threads than the pipeline and most hosts have CPUs, switching as
    # often as the interpreter lets them: each split still writes disjoint
    # parts of the grid, so the synthesis is the serial one bit for bit
    n = 1024 * 1125
    monkeypatch.setattr(fbm, "_next_fast_len", lambda target: target)
    got = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 4):
            monkeypatch.setattr(fbm, "_THREADS", threads)
            monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
            got.append(fgn_davies_harte(n, 0.7, np.random.default_rng(11)))
    finally:
        sys.setswitchinterval(previous)
    assert np.array_equal(got[0], got[1])


def test_small_synthesis_starts_no_thread(monkeypatch):
    # below the cutoff every pass runs on the calling thread; the eigenvalue
    # transform keeps up to 1.25 n + 1 points, so n is half the cutoff
    monkeypatch.setattr(fbm, "_THREADS", 2)
    monkeypatch.setattr(fbm, "_SCALE_CACHE", {})
    monkeypatch.setattr(fbm, "ThreadPoolExecutor", refuse_pool)
    n = fbm._THREADED * fbm._BLOCK // 2
    assert len(fgn_davies_harte(n, 0.7, np.random.default_rng(0))) == n
    assert len(fgn_davies_harte(16, 0.7, np.random.default_rng(0))) == 16


def refuse_pool(*args, **kwargs):
    raise AssertionError("a worker thread was started")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="sets the CPU affinity")
def test_thread_count_follows_the_cpus_the_process_may_run_on():
    # one CPU: the module runs every pass on the calling thread, and an
    # ensemble of four seeds, each worker needing one byte, runs in this process
    src = str(Path(fbm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " \
        "from abprobe import experiment, fbm; " \
        "print(fbm._THREADS, experiment._pool_size(4, 1))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["1", "1"]
    assert fbm._THREADS == min(2, fbm.CPUS) and fbm.CPUS == len(os.sched_getaffinity(0))
