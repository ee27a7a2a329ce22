import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import abprobe.path
from abprobe.fbm import FbmParams
from abprobe.path import (
    RATE_CEILING,
    HopWorkload,
    PathModel,
    fluid_strain_oracle,
    strain_bounds_check,
    transit_sequence,
)
from abprobe.probing import SequenceConfig, build_schedule, draw_portion_rates, pair_strains
from test_fbm import omega_of

C = 1e7
S_BITS = 12000.0


def constant_traffic(mu, horizon=20.0, dt=1e-3):
    return FbmParams(hurst=0.7, sigma=0.0, mu=mu, dt=dt, horizon=horizon)


def fbm_traffic(seed=0, mu=4e6, sigma=2e5, horizon=20.0, dt=3e-4):
    return FbmParams(hurst=0.7, sigma=sigma, mu=mu, dt=dt, horizon=horizon, seed=seed)


def make_path(params, capacity=C):
    return PathModel(capacity=capacity, params=params)


def schedule_at_rate(u, m=11, p=1, t_start=0.0, packet_size=1500.0):
    cfg = SequenceConfig(m=m, p=p, packet_size=packet_size, rate_min=u, rate_max=u)
    return build_schedule(cfg, np.full(p, u), t_start)


# -- fluid strain oracle ------------------------------------------------------

def test_oracle_below_break_is_zero():
    assert fluid_strain_oracle(5e6, C, 4e6) == 0.0


def test_oracle_above_break_value():
    # (1.2e7 + 4e6)/1e7 - 1 = 0.6
    assert fluid_strain_oracle(1.2e7, C, 4e6) == pytest.approx(0.6, rel=1e-12)


def test_oracle_continuous_at_kink():
    y = 4e6
    u = C - y
    assert fluid_strain_oracle(u, C, y) == 0.0
    assert fluid_strain_oracle(u * (1 + 1e-12), C, y) == pytest.approx(0.0, abs=1e-9)


def test_oracle_rejects_saturated_link():
    with pytest.raises(ValueError):
        fluid_strain_oracle(5e6, C, C)
    with pytest.raises(ValueError):
        fluid_strain_oracle(0.0, C, 4e6)


# -- transit: idle and congested limits ----------------------------------------

def test_idle_link_preserves_spacing():
    # no cross traffic, u < C, empty queue: output gaps equal input gaps
    params = constant_traffic(mu=0.0)
    path = make_path(params)
    sched = schedule_at_rate(5e6)
    result, state = transit_sequence(path, sched, HopWorkload())
    g_in = np.diff(sched.send_times)
    g_out = np.diff(result.departures)
    assert g_out == pytest.approx(g_in, rel=1e-12)
    assert result.true_ab == pytest.approx(C)
    assert state.w == pytest.approx(S_BITS / C)  # last packet still in service


def test_back_to_back_probes_leave_at_service_rate():
    # u > C on an idle link: every output gap is exactly S/C
    params = constant_traffic(mu=0.0)
    path = make_path(params)
    sched = schedule_at_rate(4e7)
    result, _ = transit_sequence(path, sched, HopWorkload())
    assert np.diff(result.departures) == pytest.approx(S_BITS / C, rel=1e-12)


def test_busy_link_constant_fluid_matches_oracle():
    # sigma=0, g_in <= S/C: measured strain equals the fluid oracle exactly
    y, u = 4e6, 1.25e7
    params = constant_traffic(mu=y)
    path = make_path(params)
    sched = schedule_at_rate(u, m=21)
    result, _ = transit_sequence(path, sched, HopWorkload())
    strains = pair_strains(sched, result.departures)
    expected = fluid_strain_oracle(u, C, y)
    assert strains == pytest.approx(np.full(20, expected), rel=1e-9)


def test_moderate_rate_constant_fluid_converges_to_oracle():
    # A < u < C: once the queue stays busy the strain sits on the oracle line
    y, u = 4e6, 8e6  # A = 6e6 < u < C
    params = constant_traffic(mu=y, horizon=30.0)
    path = make_path(params)
    sched = schedule_at_rate(u, m=201)
    result, _ = transit_sequence(path, sched, HopWorkload())
    strains = pair_strains(sched, result.departures)
    expected = fluid_strain_oracle(u, C, y)
    envelope = S_BITS / ((S_BITS / u) * C)  # = u/C, the probe-granularity slack
    assert np.all(np.abs(strains - expected) <= envelope + 1e-9)
    assert strains[-1] == pytest.approx(expected, rel=1e-6)


# -- transit: bookkeeping invariants -------------------------------------------

def test_fifo_and_service_floor():
    path = make_path(fbm_traffic(seed=3))
    state = HopWorkload()
    for k in range(10):
        cfg = SequenceConfig(m=18, p=2, packet_size=1500.0, rate_min=1e6, rate_max=1.2e7)
        rates = draw_portion_rates(cfg, np.random.default_rng([3, k]))
        sched = build_schedule(cfg, rates, t_start=k * 1.0)
        result, state = transit_sequence(path, sched, state)
        gaps = np.diff(result.departures)
        assert np.all(gaps > 0)
        assert np.all(gaps >= S_BITS / C - 1e-12)


def test_work_conservation_and_idle_bounds():
    path = make_path(fbm_traffic(seed=5))
    state = HopWorkload()
    t_end = 0.0
    for k in range(10):
        sched = schedule_at_rate(6e6, m=18, t_start=k * 1.0)
        result, state = transit_sequence(path, sched, state)
        t_end = sched.send_times[-1]
    elapsed = t_end - 0.0
    assert 0.0 <= state.idle_accum <= elapsed + 1e-9


def test_queue_persists_across_sequences():
    y, u = 4e6, 1.2e7
    params = constant_traffic(mu=y, horizon=10.0)
    path = make_path(params)
    sched1 = schedule_at_rate(u, m=21, t_start=0.0)
    _, carried = transit_sequence(path, sched1, HopWorkload())
    assert carried.w > 0.0
    # second sequence launched while the backlog is still draining:
    # carried queue delays it, a reset queue would not
    sched2 = schedule_at_rate(u, m=21, t_start=0.03)
    r_carried, _ = transit_sequence(path, sched2, carried)
    r_reset, _ = transit_sequence(path, sched2, HopWorkload(t=0.03))
    assert r_carried.departures[0] > r_reset.departures[0]


def test_transit_rejects_bad_inputs():
    path = make_path(constant_traffic(mu=0.0, horizon=5.0))
    sched = schedule_at_rate(5e6, t_start=1.0)
    with pytest.raises(ValueError):
        transit_sequence(path, sched, HopWorkload(t=2.0))  # starts in the past
    late = schedule_at_rate(5e6, t_start=4.99)
    with pytest.raises(ValueError):  # escapes the traffic horizon
        transit_sequence(path, late, HopWorkload(t=0.0))


def test_true_ab_constant_fluid():
    params = constant_traffic(mu=4e6)
    path = make_path(params)
    result, _ = transit_sequence(path, schedule_at_rate(8e6), HopWorkload())
    assert result.true_ab == pytest.approx(6e6, rel=1e-9)


# -- strain bounds audit ---------------------------------------------------------

def test_bounds_equality_case():
    y, u = 4e6, 1.25e7  # g_in = 9.6e-4 <= S/C = 1.2e-3
    params = constant_traffic(mu=y)
    path = make_path(params)
    sched = schedule_at_rate(u, m=21)
    result, _ = transit_sequence(path, sched, HopWorkload())
    (report,) = strain_bounds_check(result, path, sched)
    assert report.equality_case
    assert report.passed
    assert report.lower == report.upper
    g_in = S_BITS / u
    assert report.strain == pytest.approx(y / C + S_BITS / (g_in * C) - 1.0, rel=1e-9)


def test_bounds_idle_path():
    # strain 0 sits inside [y/C - 1, y/C + S/(g_in C)] when y=0 and g_in > S/C
    params = constant_traffic(mu=0.0)
    path = make_path(params)
    sched = schedule_at_rate(5e6, m=11)
    result, _ = transit_sequence(path, sched, HopWorkload())
    (report,) = strain_bounds_check(result, path, sched)
    assert not report.equality_case
    assert report.passed
    assert report.lower == pytest.approx(-1.0)
    assert report.strain == pytest.approx(0.0, abs=1e-9)


def test_bounds_hold_on_random_fbm_scenario():
    path = make_path(fbm_traffic(seed=21, horizon=60.0))
    state = HopWorkload()
    rng = np.random.default_rng(77)
    checked = 0
    for k in range(50):
        cfg = SequenceConfig(m=22, p=3, packet_size=1500.0, rate_min=1.2e6, rate_max=1.2e7)
        sched = build_schedule(cfg, draw_portion_rates(cfg, rng), t_start=k * 1.0)
        result, state = transit_sequence(path, sched, state)
        for rep in strain_bounds_check(result, path, sched):
            assert rep.passed
            checked += 1
    assert checked == 150


@given(seed=st.integers(0, 50), m=st.integers(5, 30), u_frac=st.floats(0.2, 3.0))
def test_departures_strictly_increasing_property(seed, m, u_frac):
    path = make_path(fbm_traffic(seed=seed, horizon=5.0))
    sched = schedule_at_rate(u_frac * C, m=m, t_start=0.1)
    result, state = transit_sequence(path, sched, HopWorkload())
    assert np.all(np.diff(result.departures) > 0)
    assert state.w >= 0.0
    assert 0.0 <= state.idle_accum


# -- array transit against the per-packet reference ------------------------------

def reference_advance(path, w, t0, t1):
    """Workload from t0 to t1, grid cell by grid cell, so it assumes nothing
    about the fluid rate: (workload at t1, idle time)."""
    c, dt = path.capacity, path.params.dt
    idle = 0.0
    t = t0
    while t < t1 - 1e-15:
        cell_end = min((math.floor(t / dt + 1e-9) + 1) * dt, t1)
        w += (path.cumulative_cross_bits(cell_end) - path.cumulative_cross_bits(t)) / c
        w -= cell_end - t
        if w < 0.0:
            idle -= w
            w = 0.0
        t = cell_end
    return w, idle


def reference_transit(path, send, packet_bits, reset_queue=False):
    """The per-packet Lindley loop, sequence after sequence: departures, the
    workload each row found at its start and total idle time."""
    s_serv = packet_bits / path.capacity
    t = w = idle = 0.0
    deps, carried = [], []
    for row in send.tolist():
        if reset_queue:
            t, w = row[0], 0.0
        carried.append(w)
        dep = []
        for a in row:
            wn, idle_inc = reference_advance(path, w, t, a)
            idle += idle_inc
            dep.append(a + wn + s_serv)
            t, w = a, wn + s_serv
        deps.append(dep)
    return np.array(deps), np.array(carried), idle


def run_schedule(n, spacing, rate_min, rate_max, m=22, p=3, seed=5):
    cfg = SequenceConfig(m=m, p=p, packet_size=1500.0, rate_min=rate_min, rate_max=rate_max)
    rates = draw_portion_rates(cfg, np.random.default_rng(seed), n)
    return build_schedule(cfg, rates, 0.05 + spacing * np.arange(n))


@pytest.mark.parametrize(
    "case, reset_queue",
    [("carried", False), ("reset", True), ("bursty", False), ("bursty", True)],
)
def test_run_transit_matches_per_packet_reference(case, reset_queue):
    if case == "bursty":
        # fluid bursts far above C, so the rate ceiling binds often
        path = make_path(fbm_traffic(seed=11, sigma=4e6, mu=9e6, horizon=12.0))
        assert path.cap_fraction > 0.1
        sched = run_schedule(50, 0.2, 6e6, 3e7)
    else:
        # heavy load and 0.1 s spacing, so some sequences start on a backlog
        path = make_path(fbm_traffic(seed=4, mu=8.5e6, sigma=1e6, horizon=12.0))
        sched = run_schedule(60, 0.1, 6e6, 3e7)
    send = sched.send_times
    result, state = transit_sequence(path, sched, HopWorkload(), reset_queue)
    ref_dep, carried, ref_idle = reference_transit(path, send, S_BITS, reset_queue)
    if not reset_queue:
        assert np.any(carried[1:] > S_BITS / C)
    assert np.abs(result.departures - ref_dep).max() <= 1e-12
    assert state.idle_accum == pytest.approx(ref_idle, rel=1e-9, abs=1e-12)
    assert state.w == pytest.approx(ref_dep[-1, -1] - send[-1, -1], abs=1e-12)
    for row, ab in zip(send, result.true_ab):
        y = path.cross_rate(row[0], row[-1] - row[0])
        assert ab == pytest.approx(max(0.0, C - y), rel=1e-12)
    reports = strain_bounds_check(result, path, sched)
    assert len(reports) == 3 * len(send) and all(rep.passed for rep in reports)


# -- effective volume against the straightforward build --------------------------

@pytest.mark.parametrize("ceiling", [0.5 * C, 0.95 * C, 3.0 * C])
@pytest.mark.parametrize("horizon", [3e-4, 0.75, 2.0])
def test_effective_volume_bit_identical_to_reference(ceiling, horizon):
    # the same traffic against a rate ceiling below, near and far above its
    # mean rate, each set by the capacity, against the clamp of the trace's
    # omega by whole-array steps (tests/test_fbm.py checks the blocked pass
    # at other block sizes)
    params = fbm_traffic(seed=11, sigma=4e6, mu=9e6, horizon=horizon)
    dt = params.dt
    raw = np.arange(params.n_samples, dtype=float)
    raw *= dt
    raw *= params.mu
    raw += params.sigma * omega_of(params)
    inc = np.diff(np.maximum.accumulate(np.maximum(raw, 0.0)))
    path = make_path(params, capacity=ceiling / RATE_CEILING)
    capped = np.minimum(inc, RATE_CEILING * path.capacity * dt)
    assert np.array_equal(path._eff, np.concatenate([[0.0], np.cumsum(capped)]))
    assert path.cap_fraction == float(np.mean(capped < inc))
    assert type(path.cap_fraction) is float
    assert path.max_fluid_rate == float(capped.max() / dt)
    assert path.max_fluid_rate < path.capacity
    if ceiling < C and len(inc) > 1:
        assert 0.0 < path.cap_fraction < 1.0  # the cap bites


@pytest.mark.parametrize("capacity", [0.0, -1.0, float("nan"), float("inf")])
def test_path_rejects_bad_capacity(monkeypatch, capacity):
    monkeypatch.setattr(abprobe.path, "generate_trace", None)  # fails if reached
    with pytest.raises(ValueError, match="capacity must be a finite number > 0"):
        make_path(constant_traffic(mu=0.0), capacity=capacity)
