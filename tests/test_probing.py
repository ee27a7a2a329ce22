import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from abprobe.probing import (
    R_FLOOR_DEFAULT,
    SequenceConfig,
    balanced_portion_sizes,
    build_schedule,
    draw_portion_rates,
    gate_mask,
    pair_strains,
    reduce_measurement,
)


def span(sched):
    """First-to-last packet time of each sequence."""
    return sched.send_times[..., -1] - sched.send_times[..., 0]


def make_config(**kw):
    base = dict(m=34, p=3, packet_size=1500.0, rate_min=2e6, rate_max=1e7)
    base.update(kw)
    return SequenceConfig(**base)


# -- config validation --------------------------------------------------------

def test_rejects_too_few_pairs_per_portion():
    make_config(m=7, p=3)  # 6 pairs over 3 portions: exactly 2 each, allowed
    with pytest.raises(ValueError):
        make_config(m=6, p=3)


def test_rejects_bad_rates():
    with pytest.raises(ValueError):
        make_config(rate_min=0.0)
    with pytest.raises(ValueError):
        make_config(rate_min=2e6, rate_max=1e6)


def test_balanced_sizes():
    assert balanced_portion_sizes(33, 3) == (11, 11, 11)
    assert balanced_portion_sizes(16, 3) == (6, 5, 5)
    assert balanced_portion_sizes(15, 4) == (4, 4, 4, 3)


# -- rate drawing --------------------------------------------------------------

def test_degenerate_range_gives_constant_rates():
    cfg = make_config(rate_min=5e6, rate_max=5e6)
    rates = draw_portion_rates(cfg, np.random.default_rng(0))
    assert np.all(rates == 5e6)


def test_draw_deterministic_and_sorted():
    cfg = make_config(p=3, rate_min=2e6, rate_max=1e7)
    a = draw_portion_rates(cfg, np.random.default_rng(42))
    b = draw_portion_rates(cfg, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)


def test_draw_marginal_uniform():
    cfg = make_config(p=1, rate_min=2e6, rate_max=1e7)
    rng = np.random.default_rng(7)
    draws = np.array([draw_portion_rates(cfg, rng)[0] for _ in range(10_000)])
    _, pvalue = stats.kstest(draws, stats.uniform(loc=2e6, scale=8e6).cdf)
    assert pvalue > 0.01


def test_run_draw_and_schedule_equal_per_sequence_ones():
    # one (n, P) draw consumes the stream exactly as n single draws do
    cfg = make_config(m=16, p=3)
    rates = draw_portion_rates(cfg, np.random.default_rng(9), 40)
    rng = np.random.default_rng(9)
    singles = np.array([draw_portion_rates(cfg, rng) for _ in range(40)])
    assert np.array_equal(rates, singles)
    t0 = 0.7 * np.arange(40)
    run = build_schedule(cfg, rates, t0)
    assert span(run).shape == (40,)
    for k in range(40):
        one = build_schedule(cfg, rates[k], t0[k])
        assert np.array_equal(run.send_times[k], one.send_times)
        assert span(run)[k] == span(one)


# -- schedule construction -------------------------------------------------------

def test_schedule_span_example():
    # M=34, P=3, S=1500 B at u=6e6: delta_p = 11*12000/6e6 = 0.022 s
    cfg = make_config(m=34, p=3, packet_size=1500.0)
    sched = build_schedule(cfg, np.array([6e6, 6e6, 6e6]), t_start=0.0)
    assert cfg.portion_spans(sched.portion_rates) == pytest.approx([0.022] * 3, rel=1e-12)
    assert span(sched) == pytest.approx(0.066, rel=1e-12)
    assert sched.send_times[0] == 0.0
    assert len(sched.send_times) == 34


def test_p1_is_single_rate_train():
    cfg = make_config(m=17, p=1, rate_min=4e6, rate_max=4e6)
    sched = build_schedule(cfg, np.array([4e6]), t_start=1.0)
    gaps = np.diff(sched.send_times)
    assert np.allclose(gaps, 12000.0 / 4e6)
    assert len(gaps) == 16


def test_delta_t_equals_sum_of_portion_spans():
    cfg = make_config(m=22, p=3)
    rates = np.array([3e6, 5e6, 9e6])
    sched = build_schedule(cfg, rates, t_start=0.5)
    assert span(sched) == pytest.approx(cfg.portion_spans(rates).sum(), rel=1e-12)


@given(
    pairs_per_portion=st.integers(2, 8),
    p=st.integers(1, 6),
    extra=st.integers(0, 5),
    size=st.floats(100.0, 2000.0),
    seed=st.integers(0, 1000),
)
def test_schedule_structure_property(pairs_per_portion, p, extra, size, seed):
    m = pairs_per_portion * p + 1 + extra
    cfg = SequenceConfig(m=m, p=p, packet_size=size, rate_min=1e6, rate_max=1e7)
    rates = draw_portion_rates(cfg, np.random.default_rng(seed))
    sched = build_schedule(cfg, rates, t_start=0.0)
    assert len(sched.send_times) == m
    assert np.all(np.diff(sched.send_times) > 0)
    gaps = np.diff(sched.send_times)
    edges = cfg.portion_edges
    for a, b, rate in zip(edges[:-1], edges[1:], rates):
        assert np.allclose(gaps[a:b], cfg.packet_bits / rate, rtol=1e-9)
    assert sum(cfg.portion_sizes) == m - 1
    assert max(cfg.portion_sizes) - min(cfg.portion_sizes) <= 1


@given(
    p=st.integers(1, 6),
    m_extra=st.integers(0, 30),
    n=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_portion_edges_and_spans_property(p, m_extra, n, seed):
    # the edges delimit runs of equal gaps packet_bits/u_p in the send
    # times, and the portion spans add up to the sequence span
    cfg = make_config(m=2 * p + 1 + m_extra, p=p, rate_min=1e6, rate_max=1e7)
    rates = draw_portion_rates(cfg, np.random.default_rng(seed), n)
    sched = build_schedule(cfg, rates, np.arange(n, dtype=float))
    edges = cfg.portion_edges
    assert edges[0] == 0 and edges[-1] == cfg.m - 1 and len(edges) == p + 1
    assert np.array_equal(np.diff(edges), cfg.portion_sizes)
    portion = np.searchsorted(edges, np.arange(cfg.m - 1), side="right") - 1
    gaps = np.diff(sched.send_times, axis=-1)
    assert np.allclose(gaps, cfg.packet_bits / rates[:, portion], rtol=1e-9, atol=0)
    spans = cfg.portion_spans(rates)
    assert spans.shape == (n, p)
    assert np.allclose(spans.sum(axis=-1), span(sched), rtol=1e-12, atol=0)


# -- strain computation -----------------------------------------------------------

def test_pair_strain_arithmetic():
    # g_in 10 ms, g_out 12 ms -> strain 0.2
    cfg = make_config(m=5, p=1, rate_min=1.2e6, rate_max=1.2e6)
    sched = build_schedule(cfg, np.array([1.2e6]), 0.0)  # gaps == 0.01 s
    arrivals = sched.send_times[0] + np.arange(5) * 0.012
    strains = pair_strains(sched, arrivals)
    assert strains == pytest.approx([0.2] * 4, rel=1e-9)


@given(offset=st.floats(-5.0, 5.0), seed=st.integers(0, 100))
def test_strain_invariant_to_constant_delay(offset, seed):
    cfg = make_config(m=10, p=1)
    rates = draw_portion_rates(cfg, np.random.default_rng(seed))
    sched = build_schedule(cfg, rates, t_start=10.0)
    strains = pair_strains(sched, sched.send_times + offset)
    assert np.allclose(strains, 0.0, atol=1e-9)


def test_congested_pair_strain():
    # g_out = S/C with u > C, no cross traffic: strain = u/C - 1
    u, c = 2e7, 1e7
    cfg = make_config(m=5, p=1, rate_min=u, rate_max=u)
    sched = build_schedule(cfg, np.array([u]), 0.0)
    arrivals = sched.send_times[0] + np.arange(5) * (cfg.packet_bits / c)
    strains = pair_strains(sched, arrivals)
    assert strains == pytest.approx([u / c - 1.0] * 4, rel=1e-9)


def test_nonincreasing_arrivals_rejected():
    cfg = make_config(m=5, p=1)
    sched = build_schedule(cfg, np.array([5e6]), 0.0)
    bad = sched.send_times.copy()
    bad[2] = bad[1]
    with pytest.raises(ValueError):
        pair_strains(sched, bad)


# -- measurement reduction ----------------------------------------------------------

def test_reduce_measurement_hand_values():
    # portion strains [0.1, 0.3] -> z = 0.2, r = 0.02 (n-1 denominator)
    cfg = SequenceConfig(m=5, p=2, packet_size=1500.0, rate_min=1e6, rate_max=1e7)
    sched = build_schedule(cfg, np.array([2e6, 8e6]), 0.0)
    strains = np.array([0.1, 0.3, 0.5, 0.9])
    meas = reduce_measurement(strains, sched)
    assert meas.z == pytest.approx([0.2, 0.7])
    assert meas.r_diag == pytest.approx([0.02, 0.08])
    assert np.array_equal(meas.rates, sched.portion_rates)


def test_equal_strains_hit_variance_floor():
    cfg = SequenceConfig(m=5, p=1, packet_size=1500.0, rate_min=1e6, rate_max=1e7)
    sched = build_schedule(cfg, np.array([5e6]), 0.0)
    meas = reduce_measurement(np.full(4, 0.25), sched)
    assert meas.r_diag[0] == R_FLOOR_DEFAULT == 1e-6


def test_p1_reduction_is_scalar():
    cfg = SequenceConfig(m=17, p=1, packet_size=1500.0, rate_min=1e6, rate_max=1e7)
    sched = build_schedule(cfg, np.array([5e6]), 0.0)
    strains = np.random.default_rng(3).normal(0.2, 0.01, 16)
    meas = reduce_measurement(strains, sched)
    assert meas.z.shape == (1,)
    assert meas.z[0] == pytest.approx(strains.mean())
    assert meas.r_diag[0] == pytest.approx(strains.var(ddof=1))


def test_run_reduction_matches_per_portion_var():
    # 17 pairs over 3 portions: sizes 6, 6, 5
    cfg = SequenceConfig(m=18, p=3, packet_size=1500.0, rate_min=1e6, rate_max=1e7)
    rng = np.random.default_rng(4)
    sched = build_schedule(cfg, draw_portion_rates(cfg, rng, 30), np.arange(30.0))
    strains = rng.normal(0.2, 0.05, (30, 17))
    meas = reduce_measurement(strains, sched)
    assert meas.z.shape == meas.r_diag.shape == (30, 3)
    assert np.array_equal(meas.rates, sched.portion_rates)
    # every variance sits above the floor, so np.var is compared unfloored
    assert np.all(meas.r_diag > 100 * R_FLOOR_DEFAULT)
    edges = cfg.portion_edges
    assert edges.tolist() == [0, 6, 12, 17]
    for k in range(30):
        for p, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            assert meas.z[k, p] == pytest.approx(strains[k, a:b].mean(), rel=1e-13)
            assert meas.r_diag[k, p] == pytest.approx(strains[k, a:b].var(ddof=1), rel=1e-12)


@given(
    p=st.integers(1, 6),
    pairs_per_portion=st.integers(2, 6),
    seed=st.integers(0, 500),
)
def test_reduction_lengths_and_floor_property(p, pairs_per_portion, seed):
    m = p * pairs_per_portion + 1
    cfg = SequenceConfig(m=m, p=p, packet_size=1000.0, rate_min=1e6, rate_max=1e7)
    rng = np.random.default_rng(seed)
    sched = build_schedule(cfg, draw_portion_rates(cfg, rng), 0.0)
    meas = reduce_measurement(rng.normal(0.1, 0.05, m - 1), sched)
    assert len(meas.z) == len(meas.rates) == len(meas.r_diag) == p
    assert np.all(meas.r_diag >= 1e-6)


def test_gate_mask():
    cfg = SequenceConfig(m=7, p=3, packet_size=1500.0, rate_min=1e6, rate_max=1e7)
    sched = build_schedule(cfg, np.array([2e6, 5e6, 8e6]), 0.0)
    meas = reduce_measurement(np.array([0.0, 0.0, 0.2, 0.21, -0.001, 0.004]), sched)
    assert list(gate_mask(meas, 0.005)) == [False, True, False]
    assert list(gate_mask(meas, 0.0)) == [True, True, True]
