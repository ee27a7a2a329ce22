"""Multi-rate probe schedules and the reduction of receiver timestamps to
per-portion strain measurements.

A sequence is M packets of S bytes forming M-1 probe pairs, split into P
constant-rate portions.  Portion p transmits at rate u_p: every gap in the
portion equals S_bits/u_p.  The receiver-side measurement per sequence is the
vector of portion-mean strains z, the portion rates (first column of the
measurement matrix), and the per-portion strain sample variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SequenceConfig",
    "ProbeSchedule",
    "StrainMeasurement",
    "draw_portion_rates",
    "build_schedule",
    "pair_strains",
    "reduce_measurement",
    "gate_mask",
]

R_FLOOR_DEFAULT = 1e-6


def balanced_portion_sizes(pairs: int, portions: int) -> tuple[int, ...]:
    """Split `pairs` probe pairs into `portions` near-equal groups.

    Equal groups of (M-1)/P pairs when P divides M-1; otherwise the remainder
    is spread over the leading portions (sizes differ by at most one).
    """
    base, rem = divmod(pairs, portions)
    return tuple([base + 1] * rem + [base] * (portions - rem))


@dataclass(frozen=True)
class SequenceConfig:
    """Shape of one probing sequence.

    m            packets per sequence (M)
    p            portions (P)
    packet_size  probe packet size S in bytes
    rate_min     lower edge of the per-portion rate draw (bits/s)
    rate_max     upper edge of the per-portion rate draw (bits/s)
    """

    m: int
    p: int
    packet_size: float
    rate_min: float
    rate_max: float

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"portions must be >= 1, got {self.p}")
        if self.m - 1 < 2 * self.p:
            raise ValueError(
                f"need at least two probe pairs per portion: M={self.m}, P={self.p}"
            )
        if self.packet_size <= 0:
            raise ValueError(f"packet_size must be > 0, got {self.packet_size}")
        if not 0 < self.rate_min <= self.rate_max:
            raise ValueError(
                f"need 0 < rate_min <= rate_max, got [{self.rate_min}, {self.rate_max}]"
            )

    @property
    def packet_bits(self) -> float:
        return 8.0 * self.packet_size

    @property
    def portion_sizes(self) -> tuple[int, ...]:
        return balanced_portion_sizes(self.m - 1, self.p)

    @property
    def portion_edges(self) -> np.ndarray:
        """P+1 pair-index boundaries: portion p spans pairs
        edges[p]:edges[p+1]."""
        return np.concatenate([[0], np.cumsum(self.portion_sizes)])

    def portion_spans(self, rates) -> np.ndarray:
        """Observation time of each portion at rates (..., P): the sum of its
        pairs' gaps, sizes * packet_bits / rates."""
        return np.asarray(self.portion_sizes, dtype=float) * self.packet_bits / rates


@dataclass(frozen=True)
class ProbeSchedule:
    """Transmit timestamps and per-portion rates of one sequence, or of a
    run of sequences stacked as rows: send_times (..., M), portion_rates
    (..., P)."""

    send_times: np.ndarray
    portion_rates: np.ndarray
    config: SequenceConfig


def draw_portion_rates(
    config: SequenceConfig, rng: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """P rates, iid uniform on [rate_min, rate_max], sorted ascending.

    With n, an (n, P) array whose row k is what the k-th of n successive
    single draws would return: one call consumes the same stream.
    """
    size = config.p if n is None else (n, config.p)
    rates = rng.uniform(config.rate_min, config.rate_max, size)
    rates.sort(axis=-1)
    return rates


def build_schedule(config: SequenceConfig, rates: np.ndarray, t_start) -> ProbeSchedule:
    """Lay out packet 0 at t_start, then constant-rate gaps portion by portion.

    rates (..., P) with t_start of the leading shape lays out every row's
    sequence at once.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape[-1:] != (config.p,):
        raise ValueError(f"expected {config.p} rates per sequence, got shape {rates.shape}")
    if np.any(rates <= 0):
        raise ValueError("portion rates must be positive")
    gaps = np.repeat(config.packet_bits / rates, config.portion_sizes, axis=-1)
    t0 = np.asarray(t_start, dtype=float)[..., None]
    send = np.empty(rates.shape[:-1] + (config.m,))
    send[..., :1] = t0
    np.cumsum(gaps, axis=-1, out=send[..., 1:])
    send[..., 1:] += t0
    send.flags.writeable = False
    return ProbeSchedule(send_times=send, portion_rates=rates, config=config)


def pair_strains(schedule: ProbeSchedule, arrivals: np.ndarray) -> np.ndarray:
    """Per-pair strain: receiver gap over sender gap, minus one."""
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.shape != schedule.send_times.shape:
        raise ValueError(
            f"expected arrivals shaped {schedule.send_times.shape}, got {arrivals.shape}"
        )
    g_out = np.diff(arrivals, axis=-1)
    if np.any(g_out <= 0):
        raise ValueError("arrivals must be strictly increasing (simulator bug?)")
    g_in = np.diff(schedule.send_times, axis=-1)
    return g_out / g_in - 1.0


@dataclass(frozen=True)
class StrainMeasurement:
    """One Kalman measurement: portion-mean strains z, rates (the measurement
    matrix's first column), and the diagonal of the strain covariance.  A
    run's measurements stack as rows."""

    z: np.ndarray
    rates: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self) -> None:
        if not (np.shape(self.z) == np.shape(self.rates) == np.shape(self.r_diag)):
            raise ValueError("z, rates and r_diag must have equal shapes")
        if np.any(self.r_diag <= 0):
            raise ValueError("r_diag entries must be positive")


def reduce_measurement(strains: np.ndarray, schedule: ProbeSchedule) -> StrainMeasurement:
    """Portion means and (n-1)-denominator sample variances of pair strains.

    Variances are taken in two passes, as np.var does, and floored at
    R_FLOOR_DEFAULT: a portion whose strains are all equal (typical when its
    rate is below the available bandwidth) would otherwise be infinitely
    trusted by the filter.
    """
    strains = np.asarray(strains, dtype=float)
    want = schedule.send_times.shape[:-1] + (schedule.config.m - 1,)
    if strains.shape != want:
        raise ValueError(f"expected pair strains shaped {want}, got {strains.shape}")
    edges = schedule.config.portion_edges
    sizes = np.diff(edges)
    z = np.add.reduceat(strains, edges[:-1], axis=-1) / sizes
    dev = strains - np.repeat(z, sizes, axis=-1)
    var = np.add.reduceat(dev * dev, edges[:-1], axis=-1) / (sizes - 1)
    return StrainMeasurement(
        z=z, rates=schedule.portion_rates.copy(), r_diag=np.maximum(var, R_FLOOR_DEFAULT)
    )


def gate_mask(meas: StrainMeasurement, threshold: float) -> np.ndarray:
    """Congestion gate: keep portions with |z| >= threshold.

    The linear strain law only holds above the congestion break; a portion
    probing below it reports zero strain and would drag the fitted line flat.
    threshold=0 keeps every portion; a negative one is refused.
    """
    if not threshold >= 0:
        raise ValueError(f"gate_threshold must be >= 0, got {threshold}")
    return np.abs(meas.z) >= threshold
