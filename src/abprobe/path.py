"""Single-bottleneck FIFO path at the hop-workload level.

Cross-traffic is fluid (the capped volume of an fbm trace), probes discrete.
The bottleneck queue is tracked as a workload process w(t): seconds of
unfinished service.  Between probe arrivals the fluid adds d(arrivals)/C of
work while the server drains at unit rate, floored at zero with idle time
accrued; each probe adds S_bits/C of work and departs FIFO after the workload
it found on arrival.  The fluid's rate is capped at RATE_CEILING * C, so it
never outruns the server.

Propagation delays are zero, so a probe reaches the bottleneck at its send
time and the receiver at its bottleneck departure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import FbmParams, generate_trace
from .probing import ProbeSchedule

__all__ = [
    "PathModel",
    "HopWorkload",
    "TransitResult",
    "fluid_strain_oracle",
    "transit_sequence",
    "strain_bounds_check",
]

# cap on the effective cross-traffic rate, as a fraction of capacity; the
# closed-form transit relies on it staying below 1
RATE_CEILING = 0.95


def fluid_strain_oracle(u: float, capacity: float, y: float) -> float:
    """Asymptotic fluid-flow strain for probe rate u against cross rate y.

    Zero while u <= C - y; beyond the break the strain grows linearly,
    (u + y)/C - 1.  Continuous, with the kink exactly at u = C - y.
    """
    if u <= 0:
        raise ValueError(f"probe rate must be > 0, got {u}")
    if capacity <= 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if not 0 <= y < capacity:
        raise ValueError(
            f"cross rate must satisfy 0 <= y < capacity, got y={y}, C={capacity}"
        )
    return max(0.0, (u + y) / capacity - 1.0)


@dataclass(frozen=True)
class HopWorkload:
    """Bottleneck queue state carried across probing sequences.

    t            simulation clock (s); no event before t remains unprocessed
    w            remaining workload (s of service), >= 0
    idle_accum   total idle time accumulated since the state was created (s)
    """

    t: float = 0.0
    w: float = 0.0
    idle_accum: float = 0.0


@dataclass(frozen=True)
class TransitResult:
    """Receiver-side view of one probing sequence."""

    departures: np.ndarray
    true_ab: float


class PathModel:
    """Bottleneck capacity plus the effective fluid arrival process.

    The path computes only its rate ceiling, RATE_CEILING * capacity, and
    asks fbm.generate_trace for the trace of params at that ceiling: the
    monotone clamp of b(t) = mu*t + sigma*omega(t), rate-capped in the
    same pass, so the bottleneck keeps positive residual bandwidth.  The
    path keeps the trace's array as its one traffic volume.  clamp_fraction
    reports how often the clamp altered b(t), cap_fraction how often the
    cap bit and max_fluid_rate the highest capped rate on the grid.  This
    effective volume answers every cross-traffic volume and rate query
    (cumulative_cross_bits, cross_rate).  Immutable after construction, so
    runs of the same traffic and capacity may share one path.
    """

    def __init__(self, capacity: float, params: FbmParams):
        if not (math.isfinite(capacity) and capacity > 0):
            raise ValueError(f"capacity must be a finite number > 0, got {capacity}")
        self.capacity = float(capacity)
        self.params = params
        trace = generate_trace(params, RATE_CEILING * self.capacity)
        self.clamp_fraction = trace.clamp_fraction
        self.cap_fraction = trace.cap_fraction
        self.max_fluid_rate = trace.max_rate
        trace.volume.flags.writeable = False
        self._eff = trace.volume
        self._horizon = (trace.n - 1) * params.dt

    @property
    def horizon(self) -> float:
        return self._horizon

    def cumulative_cross_bits(self, t):
        """Effective (clamped, capped) cumulative cross-traffic bits at t."""
        t_arr = np.asarray(t, dtype=float)
        # written so that NaN, which fails every comparison, is outside too
        if not np.all((t_arr >= -1e-9) & (t_arr <= self._horizon * (1 + 1e-12) + 1e-9)):
            raise ValueError(f"time outside traffic horizon [0, {self._horizon}]")
        pos = np.clip(t_arr / self.params.dt, 0.0, len(self._eff) - 1.0)
        j = np.minimum(pos.astype(np.int64), len(self._eff) - 2)
        frac = pos - j
        out = self._eff[j] + (self._eff[j + 1] - self._eff[j]) * frac
        return float(out) if np.isscalar(t) else out

    def cross_rate(self, t: float, delta):
        """Mean effective cross rate over [t, t+delta] (bits/s); delta may be
        an array of windows."""
        if not np.all((np.asarray(delta) > 0) & np.isfinite(delta)):
            raise ValueError(f"delta must be a finite number > 0, got {delta}")
        return (
            self.cumulative_cross_bits(t + delta) - self.cumulative_cross_bits(t)
        ) / delta


def transit_sequence(
    path: PathModel,
    schedule: ProbeSchedule,
    state: HopWorkload,
    reset_queue: bool = False,
) -> tuple[TransitResult, HopWorkload]:
    """Push a probe sequence, or a run of them stacked as rows, through the queue.

    Lindley's recursion in closed form: with G(t) = eff(t)/C - t, a probe
    arriving at b after the event at a finds the workload
    w(b) = G(b) - min(G(a) - w(a), min of G over [a, b]),
    so each sequence is one running minimum, taken relative to G where its
    starting workload is known, to keep rounding at the scale of one
    sequence.  The rate ceiling keeps the fluid below capacity, so G falls
    between probes and its minimum over a gap sits at the gap's end: the
    running minimum needs G at the probe times alone.  The queue
    carries from row to row unless reset_queue empties it before every
    sequence.

    Returns receiver arrival timestamps, the ground-truth available bandwidth
    over each sequence's observation window, and the queue state at the last
    probe arrival.
    """
    send = schedule.send_times
    lead, m = send.shape[:-1], send.shape[-1]
    a = send.reshape(-1, m)
    flat = a.ravel()
    if np.any(np.diff(flat) <= 0):
        raise ValueError("schedule send times must be strictly increasing")
    if flat[0] < state.t - 1e-9:
        raise ValueError(
            f"sequence starts at {flat[0]} before the path clock {state.t}"
        )
    if flat[-1] > path.horizon + 1e-9:
        raise ValueError(
            f"schedule extends to {flat[-1]}, beyond the traffic horizon {path.horizon}"
        )

    c = path.capacity
    s_serv = schedule.config.packet_bits / c
    t_ref = a[:, 0].copy()  # where each row's starting workload is known
    if not reset_queue:
        t_ref[0] = min(state.t, flat[0])
        t_ref[1:] = a[:-1, -1]
    bits = path.cumulative_cross_bits(a)
    bits_ref = path.cumulative_cross_bits(t_ref)
    g = (bits - bits_ref[:, None]) / c - (a - t_ref[:, None])

    # probe i of a row finds level = min(carry, min_{j<=i} g_j + j*s) - i*s
    offset = s_serv * np.arange(m)
    run_min = np.minimum.accumulate(g + offset, axis=1)
    carry = np.zeros(len(a))  # G(t_ref) - w(t_ref), relative to G(t_ref)
    if not reset_queue:
        c_k = -state.w
        last = float(offset[-1])
        for k, (r, g_last) in enumerate(zip(run_min[:, -1].tolist(), g[:, -1].tolist())):
            carry[k] = c_k
            c_k = -((g_last - min(c_k, r) + last) + s_serv)
    level = np.minimum(run_min, carry[:, None])
    wait = g - level + offset
    dep = (a + wait + s_serv).reshape(send.shape)
    dep.flags.writeable = False

    idle = carry - level[:, -1]
    delta_t = a[:, -1] - a[:, 0]
    true_ab = np.maximum(0.0, c - (bits[:, -1] - bits[:, 0]) / delta_t)
    new_state = HopWorkload(
        t=float(flat[-1]),
        w=float(wait[-1, -1] + s_serv),
        idle_accum=state.idle_accum + float(idle.sum()),
    )
    # [()] turns the one-sequence case's 0-d array into a scalar
    result = TransitResult(departures=dep, true_ab=true_ab.reshape(lead)[()])
    return result, new_state


def strain_bounds_check(
    result: TransitResult, path: PathModel, schedule: ProbeSchedule
) -> np.recarray:
    """Check every portion's mean strain against the fluid queueing envelope.

    Congested portions (mean input gap <= S/C) must sit exactly at
    y/C + S/(g_in*C) - 1; the rest must lie in [y/C - 1, y/C + S/(g_in*C)].
    One record per portion, sequence by sequence, with the fields portion,
    rate, g_in and g_out (mean input and output gaps), strain, y_true (mean
    cross rate), lower and upper (the envelope), equality_case (congested)
    and passed.  Pure audit: estimation never sees these numbers.
    """
    c = path.capacity
    s_bits = schedule.config.packet_bits
    send = schedule.send_times.reshape(-1, schedule.config.m)
    dep = result.departures.reshape(send.shape)
    edges = schedule.config.portion_edges
    sizes = np.diff(edges)
    g_in = np.add.reduceat(np.diff(send), edges[:-1], axis=1) / sizes
    g_out = np.add.reduceat(np.diff(dep), edges[:-1], axis=1) / sizes
    strain = g_out / g_in - 1.0
    t_p, t_end = send[:, edges[:-1]], send[:, edges[1:]]
    y = (path.cumulative_cross_bits(t_end) - path.cumulative_cross_bits(t_p)) / (t_end - t_p)
    top = y / c + s_bits / (g_in * c)
    equality = g_in <= s_bits / c * (1 + 1e-12)
    lower = np.where(equality, top - 1.0, y / c - 1.0)
    upper = np.where(equality, top - 1.0, top)
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    passed = (strain >= lower - tol) & (strain <= upper + tol)
    portion = np.broadcast_to(np.arange(len(sizes)), strain.shape)
    rate = np.broadcast_to(schedule.portion_rates, strain.shape)
    columns = (portion, rate, g_in, g_out, strain, y, lower, upper, equality, passed)
    return np.rec.fromarrays(
        [col.ravel() for col in columns],
        names="portion, rate, g_in, g_out, strain, y_true, lower, upper, equality_case, passed",
    )
