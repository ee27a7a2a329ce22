"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Every tolerance is pinned here; the heavy scenario runs are
deterministic in their seed lists, so reruns reproduce identical numbers.
"""

import math
import time

import numpy as np
import pytest

from abprobe.analysis import (
    analytic_xi,
    empirical_xi,
    empirical_xi_slope,
    lookup_coeffs,
    required_m,
)
from abprobe.cli import main
from abprobe.experiment import RunConfig, compare_bart, run, sweep
from abprobe.fbm import FbmParams
from abprobe.kalman import FilterState, update_sequential, update_vector
from abprobe.path import PathModel
from abprobe.probing import StrainMeasurement

C10 = 10e6


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def median_of(rows, key, **match):
    for row in rows:
        if row["seed"] == "median" and all(row[k] == v for k, v in match.items()):
            return row[key]
    raise KeyError(f"no median row matching {match}")


def test_criterion_1_kf_equivalence_oracle():
    # sequential scalar updates == joint vector update, 1e-9 relative,
    # >= 1000 random cases across P in 1..6, under 5 s
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_cases = 1200
    worst = 0.0
    for i in range(n_cases):
        p = int(rng.integers(1, 7))
        a = rng.normal(0.0, 1.0, (2, 2))
        state = FilterState(
            x=rng.normal(0.0, 2.0, 2),
            psi=a @ a.T + 1e-3 * np.eye(2),
            lam=1e-4,
            c_ref=1e7,
        )
        meas = StrainMeasurement(
            z=rng.normal(0.0, 1.0, p),
            rates=rng.uniform(0.05, 3.0, p) * 1e7,
            r_diag=rng.uniform(1e-6, 0.5, p),
        )
        s = update_sequential(state, meas)
        v = update_vector(state, meas)
        scale = max(np.abs(v.x).max(), np.abs(v.psi).max(), 1e-30)
        worst = max(
            worst,
            np.abs(s.x - v.x).max() / scale,
            np.abs(s.psi - v.psi).max() / scale,
        )
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"{n_cases} cases, worst relative difference {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_fluid_consistency():
    # sigma=0 constant fluid, all probe rates above the break: the estimate
    # locks onto C - y within 0.1% of C inside 50 sequences
    t0 = time.time()
    cfg = RunConfig(capacity=C10, sigma=0.0, sequences=300, seed=1)
    rep = run(cfg)
    true_ab = C10 - 0.4 * C10
    tail_err = np.abs(rep.ab_hat[50:] - true_ab)
    xi_tail = rep.xi_after(50)
    elapsed = time.time() - t0
    report(
        2,
        tail_err.max() < 1e-3 * C10 and xi_tail < 1e-4 and elapsed < 10.0,
        f"max |err| after burn-in {tail_err.max():.3g} bit/s, "
        f"xi(tail) {xi_tail:.3g}, {elapsed:.1f}s",
    )


def test_criterion_3_strain_bounds():
    # every simulated portion satisfies the queueing strain envelope
    t0 = time.time()
    total = 0
    failed = 0
    for seed in (0, 1):
        cfg = RunConfig(capacity=C10, portions=5, packets=34, sequences=1000, seed=seed)
        rep = run(cfg, collect_bounds=True)
        total += len(rep.bound_reports)
        failed += sum(not b.passed for b in rep.bound_reports)
    elapsed = time.time() - t0
    report(
        3,
        total >= 10_000 and failed == 0 and elapsed < 30.0,
        f"{total} portions audited, {failed} outside the envelope, {elapsed:.1f}s",
    )


def test_criterion_4_fbm_fidelity():
    # variance of windowed rates scales as delta^(2H-2), slope within 0.05
    t0 = time.time()
    deltas = np.array([0.25, 0.4, 0.63, 1.0, 1.6, 2.5])
    results = {}
    for hurst in (0.6, 0.7, 0.8):
        n_traces = 10_000
        rates = np.empty((n_traces, len(deltas)))
        for s in range(n_traces):
            params = FbmParams(hurst=hurst, sigma=1.0, mu=50.0, dt=0.25, horizon=4.0, seed=s)
            path = PathModel(100.0, params)  # the 95 rate ceiling never binds at mu=50
            assert path.cap_fraction == 0.0
            rates[s] = path.cross_rate(1.0, deltas)
        var = rates.var(axis=0, ddof=1)
        slope = np.polyfit(np.log(deltas), np.log(var), 1)[0]
        results[hurst] = slope
    elapsed = time.time() - t0
    ok = all(abs(results[h] - (2 * h - 2)) < 0.05 for h in results) and elapsed < 60.0
    detail = ", ".join(
        f"H={h}: slope {results[h]:+.3f} (target {2*h-2:+.1f})" for h in results
    )
    report(4, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_5_table_trend():
    # packet-size/packet-count sweep: error strictly decreases along
    # (S=500,M=13) -> (S=900,M=22) -> (S=1500,M=34), and the last two land
    # within [0.5x, 5x] of the reference 0.013 and 0.009
    t0 = time.time()
    base = RunConfig(capacity=C10, portions=3, sequences=1000)
    rows = sweep(
        base,
        packets=[13, 22, 34],
        packet_size=[500.0, 900.0, 1500.0],
        seeds=range(10),
        paired=True,
    )
    xi13 = median_of(rows, "xi_sim", M=13, S=500.0)
    xi22 = median_of(rows, "xi_sim", M=22, S=900.0)
    xi34 = median_of(rows, "xi_sim", M=34, S=1500.0)
    elapsed = time.time() - t0
    ok = (
        xi13 > xi22 > xi34
        and 0.5 * 0.013 <= xi22 <= 5 * 0.013
        and 0.5 * 0.009 <= xi34 <= 5 * 0.009
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"medians {xi13:.4f} > {xi22:.4f} > {xi34:.4f}; "
        f"windows [{0.5*0.013:.4f},{5*0.013:.3f}] / [{0.5*0.009:.4f},{5*0.009:.3f}], "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_grid_trends():
    # C=1 grid: analytic error strictly decreasing in P and M; simulated
    # error decreasing in M for every P; and the analytic curve falls faster
    # with P than the simulated one (their gap opens as P grows)
    t0 = time.time()
    m_grid = list(range(16, 101, 6))
    p_grid = [1, 2, 3, 4, 5]
    base = RunConfig(capacity=1.0, packet_size=7.5e-4, sequences=1000)
    rows = sweep(base, packets=m_grid, portions=p_grid, seeds=range(6))

    ana = {(r["M"], r["P"]): r["xi_analytic"] for r in rows}
    sim = {
        (r["M"], r["P"]): r["xi_sim"] for r in rows if r["seed"] == "median"
    }

    ana_dec_p = all(
        ana[(m, p)] > ana[(m, p + 1)] for m in m_grid for p in p_grid[:-1]
    )
    ana_dec_m = all(
        ana[(m_grid[i], p)] > ana[(m_grid[i + 1], p)]
        for p in p_grid
        for i in range(len(m_grid) - 1)
    )
    slopes = {}
    sim_dec_m = True
    for p in p_grid:
        xs = np.array([sim[(m, p)] for m in m_grid])
        slopes[p] = np.polyfit(np.log(m_grid), np.log(xs), 1)[0]
        sim_dec_m &= slopes[p] < 0 and xs[0] > xs[-1]

    # "analytical curves will decrease faster than curves of simulation":
    # going from P=1 to P=5 the analytic error drops by a larger factor than
    # the simulated error, so the simulated-vs-analytic gap opens with P
    lower_half = [m for m in m_grid if m <= 58]
    gap_opens = all(
        sim[(m, 5)] / sim[(m, 1)] > ana[(m, 5)] / ana[(m, 1)] for m in lower_half
    )
    sim_drop = float(np.median([sim[(m, 5)] / sim[(m, 1)] for m in m_grid]))
    ana_drop = float(np.median([ana[(m, 5)] / ana[(m, 1)] for m in m_grid]))
    gap_opens &= sim_drop > ana_drop

    elapsed = time.time() - t0
    ok = ana_dec_p and ana_dec_m and sim_dec_m and gap_opens and elapsed < 600.0
    report(
        6,
        ok,
        f"analytic monotone P/M: {ana_dec_p}/{ana_dec_m}; sim slopes "
        + " ".join(f"P{p}:{slopes[p]:+.2f}" for p in p_grid)
        + f"; P5/P1 drop sim {sim_drop:.2f} vs analytic {ana_drop:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_portion_count_tradeoff():
    # few packets: three portions beat four; enough packets: four catch up
    t0 = time.time()
    base = RunConfig(capacity=C10, sequences=1000)
    rows = sweep(base, packets=[17, 34], portions=[3, 4], seeds=range(20))
    xi = {
        (m, p): median_of(rows, "xi_sim", M=m, P=p)
        for m in (17, 34)
        for p in (3, 4)
    }
    elapsed = time.time() - t0
    ok = xi[(17, 3)] < xi[(17, 4)] and xi[(34, 4)] <= xi[(34, 3)] and elapsed < 300.0
    report(
        7,
        ok,
        f"M=17: P3 {xi[(17,3)]:.4f} < P4 {xi[(17,4)]:.4f}; "
        f"M=34: P4 {xi[(34,4)]:.4f} <= P3 {xi[(34,3)]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_8_single_vs_multi_rate():
    # identical traffic per seed: multi-rate beats single-rate, for every
    # initial guess, and the multi-rate error orders by initial-guess error
    t0 = time.time()
    base = RunConfig(capacity=C10, packets=17, mu=3.8e6, sequences=1000)
    rows = compare_bart(
        base,
        portions=(2,),
        initial_ab=[2.5e6, 5e6, 8.5e6],
        seeds=range(20),
    )
    xi = {}
    for method in ("bart", "mrbart"):
        for ab0 in (2.5e6, 5e6, 8.5e6):
            xi[(method, ab0)] = median_of(rows, "xi", method=method, initial_ab=ab0)
    each_ok = all(xi[("mrbart", ab)] <= xi[("bart", ab)] for ab in (2.5e6, 5e6, 8.5e6))
    strict = xi[("mrbart", 5e6)] < xi[("bart", 5e6)]
    ordering = xi[("mrbart", 5e6)] < xi[("mrbart", 8.5e6)] < xi[("mrbart", 2.5e6)]
    elapsed = time.time() - t0
    ok = each_ok and strict and ordering and elapsed < 600.0
    detail = " ".join(
        f"ab0={ab/1e6:g}M:[mr {xi[('mrbart',ab)]:.4f} vs single {xi[('bart',ab)]:.4f}]"
        for ab in (2.5e6, 5e6, 8.5e6)
    )
    report(8, ok, f"{detail}; ordering {ordering}, {elapsed:.0f}s")


def test_criterion_9_empirical_model_closure():
    # fitted-surface evaluation matches direct formula evaluation, inverts
    # back to M=34, and the analytic slope matches finite differences
    t0 = time.time()
    coeffs = lookup_coeffs(C10, 3)
    xi = empirical_xi(coeffs, 34, 3)
    direct = 0.01 * math.exp(1.1 * 3) / (34**0.33 * (3**2 + 3))
    formula_ok = xi == direct and abs(xi - 0.00705) < 1e-5  # 0.00705 is the 3-sf print
    invert_ok = required_m(coeffs, 3, xi) == 34 and required_m(coeffs, 3, 0.00705) == 34
    h = 1e-4
    fd = (
        coeffs.a * math.exp(3.3) / ((34 + h) ** coeffs.b * 12)
        - coeffs.a * math.exp(3.3) / ((34 - h) ** coeffs.b * 12)
    ) / (2 * h)
    slope = empirical_xi_slope(coeffs, 34, 3)
    slope_ok = abs(slope - fd) / abs(fd) < 1e-6
    elapsed = time.time() - t0
    report(
        9,
        formula_ok and invert_ok and slope_ok and elapsed < 1.0,
        f"xi(34,3)={xi:.8f}, required_m={required_m(coeffs, 3, xi)}, "
        f"slope rel err {abs(slope-fd)/abs(fd):.2e}, {elapsed:.2f}s",
    )


def test_criterion_10_determinism(tmp_path):
    # identical config and seed give byte-identical CSV, for run and sweep
    t0 = time.time()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--sequences", "25", "--seed", "7", "--out"]
    assert main([*args, str(a)]) == 0
    assert main([*args, str(b)]) == 0
    run_ok = a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    sweep_args = ["sweep", "--sequences", "10", "--packets", "13,22", "--seeds", "0:2", "--out"]
    assert main([*sweep_args, str(sa)]) == 0
    assert main([*sweep_args, str(sb)]) == 0
    sweep_ok = sa.read_bytes() == sb.read_bytes()
    elapsed = time.time() - t0
    report(
        10,
        run_ok and sweep_ok and elapsed < 10.0,
        f"run bytes equal: {run_ok}, sweep bytes equal: {sweep_ok}, {elapsed:.1f}s",
    )
