"""Experiment orchestration: single runs, grid sweeps, and estimator
comparisons, all emitting plot-ready CSV.

A run is a pure function of (config, seed): traffic synthesis, N probing
sequences through the bottleneck, one filter step per sequence.  Sweeps and
comparisons partition work per seed so each worker builds its seed's path
(the synthesized trace and its effective volume) once and reuses it across
the grid points that share its traffic parameters and capacity; results are
merged in deterministic grid order regardless of completion order.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import numbers
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fbm
from .analysis import AnalyticParams, analytic_xi, empirical_xi, lookup_coeffs, normalized_mse
from .fbm import FbmParams, peak_bytes
from .kalman import FilterConfig, initial_state, process_sequence
from .path import HopWorkload, PathModel, strain_bounds_check, transit_sequence
from .probing import (
    ProbeSchedule,
    SequenceConfig,
    StrainMeasurement,
    build_schedule,
    draw_portion_rates,
    pair_strains,
    reduce_measurement,
)

__all__ = [
    "RunConfig",
    "ExperimentReport",
    "run",
    "sweep",
    "compare_bart",
    "model_grid_rows",
    "SWEEP_AXES", "COMPARE_AXES", "MODEL_AXES",
    "SWEEP_HEADER",
    "COMPARE_HEADER",
    "ESTIMATE_HEADER",
]

ESTIMATE_HEADER = [
    "seq_id", "t", "true_ab", "ab_hat", "raw_ab",
    "alpha_hat", "beta_hat", "psi00", "psi01", "psi11", "portions_used",
]
EVENT_HEADER = ["seq_id", "pkt_idx", "portion", "send_t", "arrive_t", "depart_t"]
SWEEP_HEADER = ["M", "P", "C", "S", "H", "lambda", "seed", "xi_sim", "xi_analytic", "xi_empirical"]
COMPARE_HEADER = ["method", "p", "m", "s", "initial_ab", "seed", "xi"]

SEQUENCE_GAP = 1.0  # seconds between sequence starts
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
# peak bytes a run holds per probe beside its trace: seven N x M float64
# arrays at once, the send times and the queue transit's working arrays.
# tracemalloc's peak around run(cfg, path=...) measured 56.1-56.3 B per probe
# at M=500, N=1000 and M=2000, N=500, with and without the event log.
PROBE_BYTES = 56


def _check_memory(cfgs, who: str) -> int:
    """Peak bytes of running the finalized cfgs one after another in one
    process: the synthesis of their traces plus the largest run's probe
    arrays.  ValueError naming `who` if that exceeds physical memory."""
    traces = {(c.fbm_params().n_samples, c.hurst) for c in cfgs}
    probes = max(c.sequences * c.packets for c in cfgs)
    need = peak_bytes(traces) + PROBE_BYTES * probes
    if need > PHYSICAL_MEMORY:
        samples = max(n for n, _ in traces)
        raise ValueError(
            f"{who} of {len(traces)} traffic {'trace' if len(traces) == 1 else 'traces'} "
            f"of up to {samples:.3g} samples and up to {probes:.3g} probes (sequences x "
            f"packets) per run needs about {need / 2**30:.3g} GiB, more than the "
            f"{PHYSICAL_MEMORY / 2**30:.3g} GiB of physical memory; raise "
            "packet_size or dt, or lower sequences, packets or capacity"
        )
    return need


# what a value of each RunConfig annotation must be; float fields take any real
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "bool": (bool, "true or false")}


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{x:.12g}"


@dataclass(frozen=True)
class RunConfig:
    """Full scenario for one simulated estimation run; the one owner of
    every scenario value.  Fields left at None are derived from the
    bottleneck capacity when the config is finalized:
      sigma    = 0.025 * capacity      mu         = 0.4 * capacity
      rate_min = 0.7 * capacity        rate_max   = 3.2 * capacity
      initial_ab = 0.5 * capacity      dt = packet_bits / (4 * capacity)
    The filter normalizes rates by the capacity and caps its readout at
    rate_max.  Model constants, not fields: path's rate ceiling
    RATE_CEILING * capacity, SEQUENCE_GAP, and probing's strain-variance
    floor R_FLOOR_DEFAULT.

    The probing range deliberately brackets the nominal capacity from the
    congestion side: portions below the strain break measure nothing and
    their gate/idle transients bias the fitted line, so the default draw
    starts above the expected break and extends well past the capacity.
    """

    capacity: float = 10e6
    hurst: float = 0.7
    sigma: float | None = None
    mu: float | None = None
    packets: int = 34
    portions: int = 2
    packet_size: float = 1500.0
    sequences: int = 1000
    rate_min: float | None = None
    rate_max: float | None = None
    lam: float = FilterConfig.lam
    psi0: float = 0.02
    initial_ab: float | None = None
    gate_threshold: float = FilterConfig.gate_threshold
    seed: int = 0
    reset_queue: bool = False
    dt: float | None = None

    def finalize(self) -> "RunConfig":
        """Fill derived defaults and cross-validate; raises ValueError with an
        actionable message on any inconsistency."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("| None"):
                continue
            kind, what = _FIELD_KINDS.get(f.type, (numbers.Real, "a number"))
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if not isinstance(value, numbers.Integral) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value}")
        c = self.capacity
        if c <= 0:
            raise ValueError(f"capacity must be > 0, got {c}")
        if self.sequences < 1:
            raise ValueError(f"sequences must be >= 1, got {self.sequences}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        sigma = 0.025 * c if self.sigma is None else self.sigma
        mu = 0.4 * c if self.mu is None else self.mu
        rate_min = 0.7 * c if self.rate_min is None else self.rate_min
        rate_max = 3.2 * c if self.rate_max is None else self.rate_max
        packet_bits = 8.0 * self.packet_size
        dt = packet_bits / (4.0 * c) if self.dt is None else self.dt
        initial_ab = 0.5 * c if self.initial_ab is None else self.initial_ab

        cfg = replace(
            self,
            sigma=sigma,
            mu=mu,
            rate_min=rate_min,
            rate_max=rate_max,
            dt=dt,
            initial_ab=initial_ab,
        )
        cfg.sequence_config()  # validates M/P/rates/packet size
        cfg.filter_config()  # validates lam/psi0/initial_ab
        worst_span = (cfg.packets - 1) * packet_bits / rate_min
        if worst_span > SEQUENCE_GAP:
            raise ValueError(
                f"a worst-case sequence spans {worst_span:.4g}s but sequences start "
                f"every {SEQUENCE_GAP}s; raise rate_min or shrink packets/packet_size"
            )
        tick = 2 * math.ulp(cfg.horizon)  # a shorter gap rounds send times together
        if packet_bits / rate_max <= tick:
            raise ValueError(
                f"the shortest probe gap, 8*packet_size/rate_max = {packet_bits / rate_max:.3g}s, "
                f"must exceed {tick:.3g}s, two float steps of the clock at the "
                f"{cfg.horizon:g}s horizon; lower rate_max or raise packet_size"
            )
        if dt >= SEQUENCE_GAP:
            raise ValueError(
                f"trace grid dt={dt} must be finer than the inter-sequence gap"
            )
        cfg.fbm_params()  # validates hurst/sigma/mu/dt/horizon
        return cfg

    # -- derived views ----------------------------------------------------

    @property
    def horizon(self) -> float:
        return (self.sequences + 1) * SEQUENCE_GAP

    def sequence_config(self) -> SequenceConfig:
        return SequenceConfig(
            m=self.packets,
            p=self.portions,
            packet_size=self.packet_size,
            rate_min=self.rate_min,
            rate_max=self.rate_max,
        )

    def fbm_params(self) -> FbmParams:
        return FbmParams(
            hurst=self.hurst,
            sigma=self.sigma,
            mu=self.mu,
            dt=self.dt,
            horizon=self.horizon,
            seed=self.seed,
        )

    def filter_config(self) -> FilterConfig:
        # normalization reference: the nominal bottleneck capacity keeps both
        # state components O(1) and makes the initial-AB guess metric faithful
        return FilterConfig(
            c_ref=self.capacity,
            lam=self.lam,
            psi0=self.psi0,
            initial_ab=self.initial_ab,
            ab_cap=self.rate_max,
            gate_threshold=self.gate_threshold,
        )

    def analytic_params(self) -> AnalyticParams:
        return AnalyticParams(
            capacity=self.capacity,
            sigma=self.sigma,
            hurst=self.hurst,
            lam=self.lam,
            psi0=self.psi0,
            deltas=self.sequence_config().portion_spans(0.5 * (self.rate_min + self.rate_max)),
            n_sequences=self.sequences,
        )


@dataclass
class ExperimentReport:
    """Per-sequence estimation record of one run; bound_reports is the
    envelope audit's record array when run collects bounds, else None."""

    config: RunConfig
    t_start: np.ndarray
    true_ab: np.ndarray
    ab_hat: np.ndarray
    raw_ab: np.ndarray
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    psi00: np.ndarray
    psi01: np.ndarray
    psi11: np.ndarray
    portions_used: np.ndarray
    degenerate: np.ndarray
    clamp_fraction: float
    cap_fraction: float
    bound_reports: np.recarray | None = None

    @property
    def n(self) -> int:
        return len(self.true_ab)

    @property
    def xi(self) -> float:
        return self.xi_after(0)

    def xi_after(self, burn_in: int) -> float:
        return normalized_mse(
            np.column_stack([self.true_ab[burn_in:], self.ab_hat[burn_in:]]),
            self.config.capacity,
        )

    def to_csv(self, path) -> None:
        """The estimate stream, one row per sequence, to path or, with None, to stdout."""
        columns = {"seq_id": range(self.n), "t": self.t_start.tolist()}
        columns.update((name, getattr(self, name).tolist()) for name in ESTIMATE_HEADER[2:])
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        _write_rows(path, ESTIMATE_HEADER, rows)


def run(
    config: RunConfig,
    path: PathModel | None = None,
    collect_bounds: bool = False,
    event_log=None,
) -> ExperimentReport:
    """Execute one full estimation run; deterministic per (config, seed).

    A pre-built path may be supplied to share traffic across runs; its
    traffic parameters and capacity must match the config's exactly.
    """
    cfg = config.finalize()
    params = cfg.fbm_params()
    if path is None:
        _check_memory([cfg], "a run")
        path = PathModel(cfg.capacity, params)
    elif (path.params, path.capacity) != (params, cfg.capacity):
        raise ValueError(
            f"supplied path was built from {path.params} at capacity {path.capacity}, "
            f"config needs {params} at capacity {cfg.capacity}"
        )
    seq_cfg = cfg.sequence_config()
    fcfg = cfg.filter_config()

    n = cfg.sequences
    t_start = np.arange(n) * SEQUENCE_GAP
    rates = draw_portion_rates(seq_cfg, np.random.default_rng([cfg.seed, 1]), n)
    sched = build_schedule(seq_cfg, rates, t_start)
    result, _ = transit_sequence(path, sched, HopWorkload(), cfg.reset_queue)
    meas = reduce_measurement(pair_strains(sched, result.departures), sched)
    if event_log is not None:
        _write_event_log(event_log, sched, result.departures)

    state = initial_state(fcfg)
    last_ab = fcfg.initial_ab
    rows = []
    for k in range(n):
        meas_k = StrainMeasurement(z=meas.z[k], rates=meas.rates[k], r_diag=meas.r_diag[k])
        state, rec = process_sequence(state, meas_k, fcfg, last_ab)
        last_ab = rec.ab_hat
        (p00, p01), (_, p11) = state.psi.tolist()
        rows.append((rec.ab_hat, rec.raw_ab, state.alpha_hat, state.beta_hat, p00, p01, p11,
                     rec.portions_used, rec.degenerate))
    names = ("ab_hat", "raw_ab", "alpha_hat", "beta_hat", "psi00", "psi01", "psi11",
             "portions_used", "degenerate")
    cols = dict(zip(names, map(np.array, zip(*rows))))
    bounds = strain_bounds_check(result, path, sched) if collect_bounds else None

    return ExperimentReport(
        config=cfg,
        clamp_fraction=path.clamp_fraction,
        cap_fraction=path.cap_fraction,
        bound_reports=bounds,
        t_start=t_start,
        true_ab=result.true_ab,
        **cols,
    )


def _write_event_log(path, sched: ProbeSchedule, dep: np.ndarray) -> None:
    """One row per probe, formatted as _fmt would; a probe reaches the
    bottleneck at its send time, so send_t and arrive_t hold one value."""
    config = sched.config
    portion = [0] + np.repeat(np.arange(config.p), config.portion_sizes).tolist()
    packet = [f",{i},{p}," for i, p in enumerate(portion)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\n")
        for k, (send_row, dep_row) in enumerate(zip(sched.send_times, dep)):
            rows = zip(packet, map("{:.12g}".format, send_row.tolist()), dep_row.tolist())
            fh.write("".join([f"{k}{i_p}{t},{t},{d:.12g}\n" for i_p, t, d in rows]))


# -- seed ensembles ------------------------------------------------------
#
# A sweep and a comparison are both a list of variants (RunConfig overrides)
# run on every seed.  Each seed is one task that builds its path once and
# replays it while consecutive variants need the same traffic and capacity.


def _seed_task(args):
    base, variants, seed = args
    xis = []
    key = path = None
    for overrides in variants:
        cfg = replace(base, seed=seed, **overrides).finalize()
        if (cfg.fbm_params(), cfg.capacity) != key:
            key = (cfg.fbm_params(), cfg.capacity)
            path = None  # free the previous variant's path first
            path = PathModel(cfg.capacity, key[0])
        xis.append(run(cfg, path=path).xi)
    return seed, xis


def _pool_size(n_seeds: int, need: int) -> int:
    """Worker processes of an ensemble whose workers each need `need` bytes:
    one per seed, capped by fbm.CPUS and by how many fit in physical memory."""
    return min(n_seeds, fbm.CPUS, PHYSICAL_MEMORY // need)


def _ensemble_rows(base, variants, seeds, columns, xi_key) -> list[dict]:
    """One row per (variant, seed) with that run's error under xi_key, then
    the seed mean and median; columns(cfg) gives a finalized variant's other
    columns.  Every seed (>= 0, each listed once) and every variant is
    validated before any trace is synthesized; the seeds run in a process
    pool when _pool_size gives more than one worker."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("an ensemble needs at least one seed")
    if min(seeds) < 0:
        raise ValueError(f"every seed must be >= 0, got {min(seeds)}")
    repeated = sorted(s for s, n in Counter(seeds).items() if n > 1)
    if repeated:
        raise ValueError(f"seeds must be distinct; {repeated} listed more than once")
    cfgs = [replace(base, **v).finalize() for v in variants]
    # each worker process runs its seeds' variants one after another
    workers = _pool_size(len(seeds), _check_memory(cfgs, "one worker of the ensemble"))
    tasks = [(base, variants, seed) for seed in seeds]
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            by_seed = dict(pool.map(_seed_task, tasks))
    else:
        by_seed = dict(map(_seed_task, tasks))
    rows = []
    for idx, cfg in enumerate(cfgs):
        common = columns(cfg)
        sims = [by_seed[seed][idx] for seed in seeds]
        rows += [{**common, "seed": seed, xi_key: xi} for seed, xi in zip(seeds, sims)]
        rows.append({**common, "seed": "mean", xi_key: float(np.mean(sims))})
        rows.append({**common, "seed": "median", xi_key: float(np.median(sims))})
    return rows


def _model_xi(cfg: RunConfig) -> dict:
    """Analytic and fitted-model error of a config whose derived fields are
    filled; the fit covers P 1..5 and is nan outside it."""
    xi_ana = analytic_xi(cfg.analytic_params()).xi
    p = cfg.portions
    if 1 <= p <= 5:
        xi_emp = empirical_xi(lookup_coeffs(cfg.capacity, p), cfg.packets, p)
    else:
        xi_emp = float("nan")
    return {"xi_analytic": xi_ana, "xi_empirical": xi_emp}


def _write_rows(path, header, rows) -> None:
    """The header's columns of rows as CSV, to path or, without one, to stdout."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])


# -- grids ---------------------------------------------------------------
#
# Each command's axes are RunConfig fields, slowest-varying first.

SWEEP_AXES = ("capacity", "packet_size", "packets", "portions")
COMPARE_AXES = ("initial_ab", "portions")
MODEL_AXES = ("portions", "packets")


def _grid_points(base: RunConfig, names, axes: dict, paired: bool = False) -> list[dict]:
    """RunConfig overrides over the named axes: the cross product of the
    value lists in axes (an axis not given takes base's value), or with
    paired their i-th values together.  TypeError for an axis outside names,
    ValueError for a point listed twice, since its seed mean and median
    would count each seed twice."""
    unknown = sorted(set(axes) - set(names))
    if unknown:
        raise TypeError(f"unexpected axes {unknown}; the axes here are {list(names)}")
    values = [list(axes[n]) if n in axes else [getattr(base, n)] for n in names]
    if not paired:
        points = list(itertools.product(*values))
    else:
        lengths = dict(zip(names, map(len, values)))
        width = max(lengths.values())
        if any(n not in (1, width) for n in lengths.values()):
            raise ValueError(
                "paired sweep needs axes of equal length (or singletons); "
                f"got lengths {lengths}"
            )
        points = list(zip(*(v * width if len(v) == 1 else v for v in values)))
    repeated = [p for p, n in Counter(points).items() if n > 1]
    if repeated:
        given = {n: v for n, v in zip(names, repeated[0]) if n in axes}
        raise ValueError(f"grid point {given} is listed more than once; list each point once")
    return [dict(zip(names, p)) for p in points]


def _sweep_columns(cfg: RunConfig) -> dict:
    return {
        "M": cfg.packets, "P": cfg.portions, "C": cfg.capacity, "S": cfg.packet_size,
        "H": cfg.hurst, "lambda": cfg.lam, **_model_xi(cfg),
    }


def sweep(base: RunConfig, seeds=(0,), paired: bool = False, **axes) -> list[dict]:
    """Run the grid over SWEEP_AXES (each a keyword with its value list) x
    seeds; one row per (point, seed) plus seed-aggregated rows, with
    analytic and fitted-model overlays per point."""
    points = _grid_points(base, SWEEP_AXES, axes, paired)
    return _ensemble_rows(base, points, seeds, _sweep_columns, "xi_sim")


# -- estimator comparisons -------------------------------------------------


def _compare_columns(cfg: RunConfig) -> dict:
    return {
        "method": "bart" if cfg.portions == 1 else "mrbart",
        "p": cfg.portions, "m": cfg.packets, "s": cfg.packet_size,
        "initial_ab": cfg.initial_ab,
    }


def compare_bart(base: RunConfig, seeds=(0,), **axes) -> list[dict]:
    """Single-rate (P=1) versus multi-rate estimation on identical traffic,
    over COMPARE_AXES.

    Every (method, initial_ab) variant replays the same trace per seed, so
    differences are purely estimator-side.  P = 1 runs first for each
    initial guess; the multi-rate portions and the filter's initial_ab
    guesses default to the base scenario's values.
    """
    portions = list(axes.get("portions", [base.portions]))
    if 1 in portions:
        portions.remove(1)
    points = _grid_points(base, COMPARE_AXES, {**axes, "portions": [1, *portions]})
    return _ensemble_rows(base, points, seeds, _compare_columns, "xi")


def model_grid_rows(base: RunConfig, **axes) -> list[dict]:
    """Analytic and fitted-model error (a sweep's columns, without its
    simulation) over the MODEL_AXES grid at the base scenario."""
    points = _grid_points(base, MODEL_AXES, axes)
    return [_sweep_columns(replace(base, **p).finalize()) for p in points]
