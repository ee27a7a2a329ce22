"""Per-layer counters and metrics of a traced iteration.

Layers are abprobe's modules.  Hooks read counts from the values that cross
a wrapped boundary (the arguments and the return value), so they see what
the program computed without changing it.  A hook that no longer fits the
program's types is counted in ``trace.hook_errors`` instead of failing the
run.
"""

from __future__ import annotations

import os
from pathlib import Path
from statistics import median

import numpy as np

from tracer import MODULES

ORACLE_SAMPLES = 500
ORACLE_RTOL = 1e-9


class Hooks:
    """Counter hooks for one traced run; keeps the filter inputs of the
    first traced iteration as samples for the Kalman oracle."""

    def __init__(self):
        self.samples: list[tuple] = []
        self.keep_samples = True

    def install(self, tracer) -> None:
        tracer.hooks.update(
            {
                "fbm.generate_trace": self.generate_trace,
                "path.PathModel": self.path_model,
                "path.transit_sequence": self.transit,
                "kalman.process_sequence": self.process_sequence,
                "experiment.to_csv": self.to_csv,
                "experiment._write_rows": self.write_rows,
            }
        )

    @staticmethod
    def generate_trace(tr, args, kwargs, trace) -> None:
        c = tr.counters
        c["fbm.samples"] += trace.n
        c["fbm.clamp_fraction"] = trace.clamp_fraction

    @staticmethod
    def path_model(tr, args, kwargs, path) -> None:
        c = tr.counters
        c["path.models"] += 1
        c["path.cap_fraction_sum"] += path.cap_fraction
        c["path.slow_path"] += path.max_fluid_rate >= path.capacity

    @staticmethod
    def transit(tr, args, kwargs, result) -> None:
        schedule, state_in = args[1], args[2]
        state_out = result[1]
        c = tr.counters
        c["path.packets"] += len(schedule.send_times)
        c["path.idle_s"] += state_out.idle_accum - state_in.idle_accum
        c["path.window_s"] += state_out.t - state_in.t

    def process_sequence(self, tr, args, kwargs, result) -> None:
        state, meas, config = args[:3]
        record = result[1]
        c = tr.counters
        c["kalman.portions_offered"] += len(meas.z)
        c["kalman.portions_used"] += record.portions_used
        c["kalman.degenerate"] += bool(record.degenerate)
        c["kalman.all_gated"] += record.portions_used == 0
        if self.keep_samples:
            self.samples.append((state, meas, config.gate_threshold))

    @staticmethod
    def _count_file(tr, target) -> None:
        if isinstance(target, (str, os.PathLike)):
            data = Path(target).read_bytes()
            tr.counters["experiment.csv_rows"] += data.count(b"\n")
            tr.counters["experiment.csv_bytes"] += len(data)

    def to_csv(self, tr, args, kwargs, result) -> None:
        self._count_file(tr, args[1] if len(args) > 1 else kwargs.get("path_or_file"))

    def write_rows(self, tr, args, kwargs, result) -> None:
        self._count_file(tr, args[0] if args else kwargs.get("path"))


def snapshot(tr) -> dict[str, float]:
    """Timings and counts of the tracer's current iteration."""
    s = tr.self_s
    layer_s = tr.layer_self_s()
    layer_calls = tr.layer_calls()
    c = tr.counters
    m: dict[str, float] = {}
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_s.get(layer, 0.0)
    csv_s = s.get("experiment.to_csv", 0.0) + s.get("experiment._write_rows", 0.0)
    m["experiment.csv_s"] = csv_s
    m["experiment.self_s"] -= csv_s
    m["path.volume_build_s"] = s.get("path.PathModel", 0.0)
    m["path.transit_s"] = s.get("path.transit_sequence", 0.0)
    m["probing.schedule_s"] = s.get("probing.draw_portion_rates", 0.0) + s.get(
        "probing.build_schedule", 0.0
    )
    m["probing.reduce_s"] = s.get("probing.pair_strains", 0.0) + s.get(
        "probing.reduce_measurement", 0.0
    )
    total = sum(layer_s.values())
    fbm_volume = m["fbm.self_s"] + m["path.volume_build_s"]
    per_sequence = (
        m["path.transit_s"]
        + m["probing.self_s"]
        + m["kalman.self_s"]
        + m["experiment.self_s"]
        + csv_s
    )
    m["share.fbm_volume"] = fbm_volume / total if total else 0.0
    m["share.per_sequence"] = per_sequence / total if total else 0.0
    for layer in ("fbm", "probing", "kalman"):
        m[f"{layer}.calls"] = layer_calls.get(layer, 0)
    m["trace.spans"] = tr.span_count()
    m["trace.bookkeeping_s"] = tr.bookkeeping_s
    m.update(c)
    return m


COUNTS = (
    "fbm.calls", "fbm.samples", "fbm.fft_len", "fbm.peak_alloc_mb", "fbm.clamp_fraction",
    "path.peak_alloc_mb", "path.packets", "path.slow_path",
    "probing.calls",
    "kalman.calls", "kalman.portions_offered", "kalman.portions_used",
    "kalman.degenerate", "kalman.all_gated",
    "experiment.csv_rows", "experiment.csv_bytes",
    "trace.spans", "trace.hook_errors",
)
TIMINGS = (
    "fbm.self_s", "path.self_s", "path.volume_build_s", "path.transit_s",
    "probing.self_s", "probing.schedule_s", "probing.reduce_s",
    "kalman.self_s", "analysis.self_s", "experiment.self_s", "experiment.csv_s",
    "cli.self_s", "share.fbm_volume", "share.per_sequence", "trace.bookkeeping_s",
)


def per_layer_metrics(snapshots: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Timings are medians over the traced iterations; counts come from the
    first one, whose seed is the run's base seed, so they repeat exactly."""
    first = snapshots[0]
    m = {name: float(first.get(name, 0.0)) for name in COUNTS}
    for name in TIMINGS:
        m[name] = median([snap.get(name, 0.0) for snap in snapshots])
    m["fbm.ns_per_sample"] = 1e9 * m["fbm.self_s"] / m["fbm.samples"] if m["fbm.samples"] else 0.0
    m["path.ns_per_packet"] = (
        1e9 * m["path.transit_s"] / m["path.packets"] if m["path.packets"] else 0.0
    )
    models = first.get("path.models", 0)
    m["path.cap_fraction"] = first.get("path.cap_fraction_sum", 0.0) / models if models else 0.0
    window = first.get("path.window_s", 0.0)
    m["path.idle_fraction"] = first.get("path.idle_s", 0.0) / window if window else 0.0
    offered = m["kalman.portions_offered"]
    m["kalman.used_ratio"] = m["kalman.portions_used"] / offered if offered else 0.0
    m["trace.iterations"] = float(len(snapshots))
    m["trace.overhead_ratio"] = median(traced_s) / median(untraced_s) - 1.0
    return m


def audit(workload, seed: int, tracer, experiment) -> tuple[int, int]:
    """Strain-envelope audit of the iteration's run at `seed`, under its own
    oracle span so the layer spans stay clean: (portions, failures)."""
    cfg = workload.run_config(seed)
    report = tracer.call("oracle.audit", experiment.run, (cfg,), {"collect_bounds": True})
    failures = sum(not bound.passed for bound in report.bound_reports)
    return len(report.bound_reports), failures


def kalman_oracle(samples: list[tuple], tracer, kalman) -> tuple[int, float]:
    """Sequential vs joint Kalman update on up to ORACLE_SAMPLES of the run's
    real filter inputs: (samples checked, worst relative difference)."""

    def compare(picked):
        worst = 0.0
        for state, meas, gate in picked:
            predicted = kalman.predict(state)
            seq = kalman.update_sequential(predicted, meas, gate)
            vec = kalman.update_vector(predicted, meas, gate)
            scale = max(np.abs(vec.x).max(), np.abs(vec.psi).max(), 1e-30)
            diff = max(np.abs(seq.x - vec.x).max(), np.abs(seq.psi - vec.psi).max())
            worst = max(worst, float(diff / scale))
        return worst

    picked = samples[:: max(1, len(samples) // ORACLE_SAMPLES)]
    return len(picked), tracer.call("oracle.kalman", compare, (picked,))
