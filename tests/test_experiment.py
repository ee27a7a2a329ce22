import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import abprobe.path
from abprobe import experiment, fbm
from abprobe.experiment import (
    EVENT_HEADER,
    SEQUENCE_GAP,
    RunConfig,
    _fmt,
    compare_bart,
    model_grid_rows,
    run,
    sweep,
)
from abprobe.fbm import peak_bytes
from abprobe.kalman import initial_state, predict, update_sequential, update_vector
from abprobe.path import HopWorkload, PathModel, transit_sequence
from abprobe.probing import (
    StrainMeasurement,
    build_schedule,
    draw_portion_rates,
    pair_strains,
    reduce_measurement,
)


def refuse(*args):
    raise AssertionError("trace synthesis reached")


def small_config(**kw):
    base = dict(sequences=30, seed=5)
    base.update(kw)
    return RunConfig(**base)


def test_finalize_fills_capacity_scaled_defaults():
    cfg = RunConfig(capacity=2e7).finalize()
    assert cfg.sigma == pytest.approx(0.025 * 2e7)
    assert cfg.mu == pytest.approx(0.4 * 2e7)
    assert cfg.rate_min == pytest.approx(0.7 * 2e7)
    assert cfg.rate_max == pytest.approx(3.2 * 2e7)
    assert cfg.initial_ab == pytest.approx(1e7)
    assert cfg.dt == pytest.approx(12000.0 / (4 * 2e7))
    fcfg = cfg.filter_config()
    assert fcfg.c_ref == cfg.capacity
    assert fcfg.ab_cap == cfg.rate_max
    assert fcfg.psi0 == 0.02


def test_finalize_rejects_overflowing_sequences():
    with pytest.raises(ValueError, match="rate_min"):
        RunConfig(rate_min=1e4).finalize()


def test_finalize_rejects_probe_gaps_below_clock_resolution():
    # the shortest gap, 8*packet_size/rate_max, must exceed two float steps
    # of the send times at the horizon, or consecutive ones round together
    for rate_max in (1e22, 1e30):
        with pytest.raises(ValueError, match="rate_max .* lower rate_max or raise packet_size"):
            RunConfig(sequences=5, rate_max=rate_max).finalize()
    edge = 8 * 1500.0 / (2 * math.ulp(RunConfig(sequences=5).horizon))
    with pytest.raises(ValueError, match="must exceed"):
        RunConfig(sequences=5, rate_max=edge).finalize()
    assert run(RunConfig(sequences=5, rate_max=edge / 1.5)).n == 5


def test_finalize_refuses_gate_threshold_none_or_negative():
    # 0 keeps every portion; there is no None mode
    with pytest.raises(ValueError, match="gate_threshold must be a number"):
        RunConfig(gate_threshold=None).finalize()
    with pytest.raises(ValueError, match="gate_threshold must be >= 0"):
        RunConfig(gate_threshold=-1e-3).finalize()


def test_finalize_keeps_explicit_values():
    cfg = RunConfig(sigma=1e5, rate_min=5e6, initial_ab=7e6).finalize()
    assert cfg.sigma == 1e5
    assert cfg.rate_min == 5e6
    assert cfg.initial_ab == 7e6


def test_run_deterministic_and_sane():
    cfg = small_config()
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.ab_hat, b.ab_hat)
    assert np.array_equal(a.true_ab, b.true_ab)
    assert a.n == 30
    fin = cfg.finalize()
    assert np.all(a.ab_hat >= 0.0)
    assert np.all(a.ab_hat <= fin.rate_max)
    assert np.all(a.true_ab >= 0.0)
    assert np.isfinite(a.xi)


def test_run_rejects_mismatched_path():
    cfg = small_config(seed=1).finalize()
    path = PathModel(cfg.capacity, cfg.fbm_params())
    assert run(cfg, path=path).xi == run(cfg).xi
    # another seed, and another capacity with the same traffic parameters
    for other in (replace(cfg, seed=2), replace(cfg, capacity=2e7)):
        with pytest.raises(ValueError, match="supplied path"):
            run(other, path=path)


def test_reset_queue_changes_departures_not_crash():
    base = small_config(portions=3, packets=22)
    carried = run(base)
    fresh = run(RunConfig(**{**base.__dict__, "reset_queue": True}))
    assert carried.n == fresh.n
    # with a 1 s gap the queue usually drains anyway, so estimates stay close
    assert np.median(np.abs(carried.ab_hat - fresh.ab_hat)) < 0.2 * 1e7


def test_event_log_bytes(tmp_path):
    cfg = small_config(sequences=12, packets=14, portions=3).finalize()  # 13 pairs: 5, 4, 4
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(cfg, event_log=a)
    run(cfg, event_log=b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().count(b"\n") == 12 * 14 + 1

    # the same values written row by row through csv.writer and _fmt
    seq = cfg.sequence_config()
    path = PathModel(cfg.capacity, cfg.fbm_params())
    rates = draw_portion_rates(seq, np.random.default_rng([cfg.seed, 1]), 12)
    sched = build_schedule(seq, rates, np.arange(12) * SEQUENCE_GAP)
    send = sched.send_times
    dep = transit_sequence(path, sched, HopWorkload())[0].departures
    portion = np.concatenate([[0], np.repeat(np.arange(3), seq.portion_sizes)])
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(EVENT_HEADER)
    for k in range(12):
        for i in range(14):
            writer.writerow(
                [k, i, int(portion[i]), _fmt(send[k, i]), _fmt(send[k, i]), _fmt(dep[k, i])]
            )
    assert a.read_text() == expected.getvalue()


def test_sequential_and_joint_updates_agree_on_a_runs_own_inputs():
    # the sequential-vs-joint oracle of criterion 1, on the filter inputs of
    # a real run: its N x P measurement built as run builds it, chained
    # through predict and update_sequential from the initial state
    cfg = RunConfig(sequences=200).finalize()
    path = PathModel(cfg.capacity, cfg.fbm_params())
    seq, fcfg = cfg.sequence_config(), cfg.filter_config()
    rates = draw_portion_rates(seq, np.random.default_rng([cfg.seed, 1]), cfg.sequences)
    sched = build_schedule(seq, rates, np.arange(cfg.sequences) * SEQUENCE_GAP)
    dep = transit_sequence(path, sched, HopWorkload(), cfg.reset_queue)[0].departures
    meas = reduce_measurement(pair_strains(sched, dep), sched)

    state = initial_state(fcfg)
    chained = []
    for k in range(cfg.sequences):
        meas_k = StrainMeasurement(z=meas.z[k], rates=meas.rates[k], r_diag=meas.r_diag[k])
        predicted = predict(state)
        state = update_sequential(predicted, meas_k, fcfg.gate_threshold)
        joint = update_vector(predicted, meas_k, fcfg.gate_threshold)
        scale = max(np.abs(joint.x).max(), np.abs(joint.psi).max())
        assert np.abs(state.x - joint.x).max() <= 1e-9 * scale
        assert np.abs(state.psi - joint.psi).max() <= 1e-9 * scale
        (p00, p01), (_, p11) = state.psi.tolist()
        chained.append((state.alpha_hat, state.beta_hat, p00, p01, p11))

    # bit for bit the run's own columns: the replay saw the run's inputs
    rep = run(cfg, path=path)
    for name, column in zip(("alpha_hat", "beta_hat", "psi00", "psi01", "psi11"), zip(*chained)):
        assert np.array_equal(getattr(rep, name), column), name


def test_finalize_rejects_non_finite():
    for field in ("sigma", "mu", "lam", "capacity", "rate_max"):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            RunConfig(**{field: float("nan")}).finalize()
    with pytest.raises(ValueError, match="finite"):
        RunConfig(mu=float("inf")).finalize()


def test_run_rejects_trace_beyond_physical_memory(monkeypatch):
    # 1 Gb/s for 1e5 sequences: a 3.3e10-sample trace, about 1 TB at its FFT.
    # The scenario itself is valid; run rejects the trace before synthesis.
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    cfg = RunConfig(capacity=1e9, sequences=100_000)
    cfg.finalize()
    with pytest.raises(ValueError, match="GiB of physical memory"):
        run(cfg)


@pytest.mark.parametrize("variants, want", [
    ([{}], 100_776_960),  # the default run: 15 B per embedding point
    ([{"packets": 13, "portions": 3, "packet_size": 500.0}], 302_330_880),
    ([{"capacity": 1e9, "sequences": 100_000}], 1_006_632_960_000),
    # the largest trace's 15 B per point plus the others' cached scales
    ([{"capacity": c, "packet_size": 500.0, "sequences": 300} for c in (1e7, 2e7, 3e7)],
     346_275_000),
])
def test_trace_memory_estimate_in_bytes(monkeypatch, variants, want):
    # the estimates of a process with no tracer or profiler active, also when
    # the suite itself runs under one (a coverage tool): a traced synthesis
    # needs 4 B per point more, which test_fbm checks
    monkeypatch.setattr(fbm, "_traced", lambda: False)
    params = [RunConfig(**v).finalize().fbm_params() for v in variants]
    assert peak_bytes([(p.n_samples, p.hurst) for p in params]) == want


def test_estimate_csv_schema(tmp_path):
    rep = run(small_config())
    out = tmp_path / "est.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "seq_id,t,true_ab,ab_hat,raw_ab,alpha_hat,beta_hat,psi00,psi01,psi11,portions_used"
    assert len(lines) == 1 + rep.n


def test_sweep_rows_and_aggregates():
    rows = sweep(small_config(sequences=15), packets=[13, 22], seeds=(0, 1))
    assert len(rows) == 2 * 4
    med13 = [r for r in rows if r["M"] == 13 and r["seed"] == "median"]
    assert len(med13) == 1
    assert med13[0]["xi_analytic"] > 0
    assert med13[0]["xi_empirical"] > 0


def test_sweep_reuses_a_path_only_at_its_capacity():
    # sigma, mu and dt pinned: both capacities share each seed's traffic
    # parameters, and each needs a path of its own
    base = small_config(sequences=5, sigma=1e5, mu=2e6, dt=3e-4)
    rows = sweep(base, capacity=[5e6, 1e7], seeds=[0, 1])
    got = {(r["C"], r["seed"]): r["xi_sim"] for r in rows if isinstance(r["seed"], int)}
    want = {(c, s): run(replace(base, capacity=c, seed=s)).xi for c in (5e6, 1e7) for s in (0, 1)}
    assert got == want


def test_sweep_paired_rejects_ragged_axes():
    with pytest.raises(ValueError, match="paired"):
        sweep(small_config(), packets=[13, 22, 34], packet_size=[500.0, 900.0], paired=True)


def test_sweep_worker_pool_matches_serial(monkeypatch):
    base = small_config(sequences=15)
    monkeypatch.setattr(fbm, "CPUS", 1)
    serial = sweep(base, packets=[13, 22], seeds=(0, 1))
    monkeypatch.setattr(fbm, "CPUS", 2)
    pooled = sweep(base, packets=[13, 22], seeds=(0, 1))
    assert serial == pooled


def test_sweep_forks_after_a_threaded_synthesis():
    # the transform's worker thread is joined inside each synthesis, so no
    # pool outlives it into the processes a sweep forks: after a trace above
    # the thread cutoff, a 2-worker sweep (whose traces are above it too)
    # finishes with the serial rows.  A pool that outlived its synthesis
    # would leave the forked workers waiting on a thread they do not have,
    # so the check runs in a child process with a deadline.
    code = (
        "from abprobe import experiment, fbm\n"
        "from abprobe.experiment import RunConfig, sweep\n"
        "fbm._THREADS = 2\n"
        "fbm.CPUS = 2\n"
        "base = RunConfig(sequences=320, seed=5)\n"
        "params = base.finalize().fbm_params()\n"
        "assert params.n_samples > fbm._THREADED * fbm._BLOCK\n"
        "fbm.generate_trace(params, 1e7)\n"
        "pooled = sweep(base, packets=[13], seeds=(0, 1))\n"
        "fbm.CPUS = 1\n"
        "print(pooled == sweep(base, packets=[13], seeds=(0, 1)))\n"
    )
    src = str(Path(experiment.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True"


def test_pool_size_follows_seeds_cpus_and_memory(monkeypatch):
    gib = 2**30
    monkeypatch.setattr(fbm, "CPUS", 3)
    monkeypatch.setattr(experiment, "PHYSICAL_MEMORY", 10 * gib)
    assert experiment._pool_size(5, gib) == 3  # one per CPU
    assert experiment._pool_size(2, gib) == 2  # one per seed
    assert experiment._pool_size(5, 4 * gib) == 2  # as many as fit in memory
    assert experiment._pool_size(5, 10 * gib) == 1


def test_ensemble_runs_on_the_pool_size(monkeypatch):
    created = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps serially."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(fbm, "CPUS", 3)
    base = small_config(sequences=5)
    cfg = replace(base, packets=13).finalize()
    params = cfg.fbm_params()
    need = peak_bytes([(params.n_samples, params.hurst)]) + experiment.PROBE_BYTES * 5 * 13
    sweep(base, packets=[13], seeds=[3])  # one seed: serial
    seeds = [4, 2, 7, 1, 0]
    rows = []
    for fit in (5, 2, 1):  # workers that fit in memory
        monkeypatch.setattr(experiment, "PHYSICAL_MEMORY", fit * need)
        rows.append(sweep(base, packets=[13], seeds=seeds))
    assert created == [3, 2]
    assert rows[0] == rows[1] == rows[2]
    assert [r["seed"] for r in rows[0]] == [*seeds, "mean", "median"]


def test_compare_bart_shares_traffic():
    rows = compare_bart(small_config(packets=17), portions=(2,), seeds=(0, 1))
    methods = {r["method"] for r in rows}
    assert methods == {"bart", "mrbart"}
    per_seed = [r for r in rows if isinstance(r["seed"], int)]
    assert len(per_seed) == 4  # 2 methods x 2 seeds
    assert all(np.isfinite(r["xi"]) for r in per_seed)


def test_compare_bart_and_sweep_replay_the_same_runs():
    base = small_config(sequences=15, packets=17)
    compared = compare_bart(base, portions=(2,), seeds=(0, 1))
    swept = sweep(base, packets=[13, 17], portions=[2, 3], seeds=(0, 1))
    mrbart = {r["seed"]: r["xi"] for r in compared if r["method"] == "mrbart"}
    sim = {r["seed"]: r["xi_sim"] for r in swept if (r["M"], r["P"]) == (17, 2)}
    assert list(mrbart) == [0, 1, "mean", "median"]
    assert mrbart == sim


def test_ensembles_reject_an_empty_seed_list():
    with pytest.raises(ValueError, match="at least one seed"):
        sweep(small_config(), packets=[13], seeds=())
    with pytest.raises(ValueError, match="at least one seed"):
        compare_bart(small_config(), seeds=[])


@pytest.mark.parametrize(
    "seeds, message",
    [
        ([0, -1], "every seed must be >= 0, got -1"),
        ([0, 0], r"seeds must be distinct; \[0\] listed more than once"),
        ([*range(3), 1, 2], r"\[1, 2\] listed more than once"),
    ],
)
def test_ensembles_reject_negative_and_repeated_seeds_before_synthesis(monkeypatch, seeds, message):
    # a repeated seed would rerun its task and weigh twice in the mean and median rows
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    with pytest.raises(ValueError, match=message):
        sweep(small_config(), packets=[13], seeds=seeds)
    with pytest.raises(ValueError, match=message):
        compare_bart(small_config(), seeds=seeds)


def test_sweep_rows_vary_capacity_slowest_and_portions_fastest():
    base = small_config(sequences=5, sigma=1e5, mu=2e6, dt=3e-4)
    rows = sweep(base, capacity=[5e6, 1e7], packet_size=[900.0, 1500.0],
                 packets=[13, 17], portions=[2, 3])
    got = [(r["C"], r["S"], r["M"], r["P"]) for r in rows if r["seed"] == 0]
    assert got == [(c, s, m, p) for c in (5e6, 1e7) for s in (900.0, 1500.0)
                   for m in (13, 17) for p in (2, 3)]


def test_compare_bart_rows_vary_initial_ab_slowest_with_bart_first():
    rows = compare_bart(small_config(sequences=5, packets=17), initial_ab=[2.5e6, 5e6],
                        portions=[3, 1, 2])
    got = [(r["initial_ab"], r["p"]) for r in rows if r["seed"] == 0]
    assert got == [(ab, p) for ab in (2.5e6, 5e6) for p in (1, 3, 2)]


def test_model_grid_rows_vary_portions_slowest():
    rows = model_grid_rows(small_config(), packets=[16, 34], portions=[3, 1])
    assert [(r["P"], r["M"]) for r in rows] == [(3, 16), (3, 34), (1, 16), (1, 34)]


def test_an_axis_outside_the_command_is_a_type_error():
    with pytest.raises(TypeError, match="hurst"):
        sweep(small_config(), hurst=[0.6, 0.7])
    with pytest.raises(TypeError, match="packets"):
        compare_bart(small_config(), packets=[13, 17])
    with pytest.raises(TypeError, match="capacity"):
        model_grid_rows(small_config(), capacity=[1e7])


@pytest.mark.parametrize("paired", [False, True])
def test_sweep_rejects_a_repeated_point_before_synthesis(monkeypatch, paired):
    # a point run twice would weigh each seed twice in its mean and median rows
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    with pytest.raises(ValueError, match="listed more than once"):
        sweep(small_config(), capacity=[1e7, 1e7], seeds=[0, 1], paired=paired)
    with pytest.raises(ValueError, match="'packets': 13, 'portions': 2"):
        sweep(small_config(), packets=[13, 17, 13], portions=[2, 3, 2], paired=paired)


def test_paired_sweep_may_repeat_a_value_of_distinct_points():
    rows = sweep(small_config(sequences=5), packets=[13, 13], packet_size=[500.0, 900.0],
                 paired=True)
    assert [(r["M"], r["S"]) for r in rows if r["seed"] == 0] == [(13, 500.0), (13, 900.0)]


def test_compare_bart_rejects_a_repeated_point_before_synthesis(monkeypatch):
    monkeypatch.setattr(abprobe.path, "generate_trace", refuse)
    with pytest.raises(ValueError, match="'portions': 2"):
        compare_bart(small_config(), portions=[2, 2])
    with pytest.raises(ValueError, match="'portions': 1"):
        compare_bart(small_config(), portions=[1, 3, 1])
    with pytest.raises(ValueError, match="'initial_ab': 5000000.0"):
        compare_bart(small_config(), initial_ab=[5e6, 5e6])


def test_model_grid_rows_monotone_analytic():
    rows = model_grid_rows(small_config(), packets=[16, 34, 64], portions=[1, 3])
    for p in (1, 3):
        xs = [r["xi_analytic"] for r in rows if r["P"] == p]
        assert xs[0] > xs[1] > xs[2]
