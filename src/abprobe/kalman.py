"""Kalman filter over the strain line: random-walk state (alpha, beta),
sequential-scalar measurement updates, and the available-bandwidth readout.

The congested-regime strain law is z = alpha*u + beta with alpha = 1/C and
beta = (y - C)/C, so the AB estimate is -beta_hat/alpha_hat.  One filter
update per probing sequence: each portion contributes a scalar measurement
row [u_p, 1] with noise variance R_p; because R is diagonal the P scalar
updates are algebraically identical to the joint vector update while costing
O(P) instead of a PxP inversion (update_vector remains as the oracle).

Internally rates and alpha are nondimensionalized by c_ref so both state
components are O(1) and a single process-noise level acts comparably on
both.  Everything exposed is in bits/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probing import StrainMeasurement, gate_mask

__all__ = [
    "FilterConfig",
    "FilterState",
    "EstimateRecord",
    "initial_state",
    "predict",
    "update_sequential",
    "update_vector",
    "ab_estimate",
    "process_sequence",
]

GATE_THRESHOLD_DEFAULT = 0.005
# degeneracy threshold on the normalized alpha_hat*c_ref: at or below it the
# readout holds the previous sequence's value
ALPHA_MIN = 1e-3


@dataclass(frozen=True)
class FilterConfig:
    """Estimator knobs; RunConfig.filter_config fills them from the scenario.

    c_ref       rate normalization (bits/s): the bottleneck capacity
    psi0        initial error covariance scale (Psi_0 = psi0 * I, normalized)
    initial_ab  initial AB guess (bits/s) mapped to the state via
                alpha0 = 1/c_ref, beta0 = -initial_ab/c_ref
    ab_cap      clamp for the AB readout (bits/s)
    lam         process-noise level, per-step variance added to each
                normalized state component
    gate_threshold  |z| below this drops the portion from the update
                    (None disables gating)
    """

    c_ref: float
    psi0: float
    initial_ab: float
    ab_cap: float
    lam: float = 1e-4
    gate_threshold: float | None = GATE_THRESHOLD_DEFAULT

    def __post_init__(self) -> None:
        if self.c_ref <= 0:
            raise ValueError(f"c_ref must be > 0, got {self.c_ref}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.psi0 < 0:
            raise ValueError(f"psi0 must be >= 0, got {self.psi0}")


@dataclass(frozen=True)
class FilterState:
    """Mean and error covariance of the normalized state (alpha*c_ref, beta)."""

    x: np.ndarray
    psi: np.ndarray
    lam: float
    c_ref: float

    @property
    def alpha_hat(self) -> float:
        """Estimated inverse capacity, s/bit."""
        return float(self.x[0]) / self.c_ref

    @property
    def beta_hat(self) -> float:
        return float(self.x[1])


@dataclass(frozen=True)
class EstimateRecord:
    """AB readout of one sequence."""

    ab_hat: float
    raw_ab: float
    portions_used: int
    degenerate: bool = False


def initial_state(config: FilterConfig) -> FilterState:
    x = np.array([1.0, -config.initial_ab / config.c_ref])
    psi = config.psi0 * np.eye(2)
    return FilterState(x=x, psi=psi, lam=config.lam, c_ref=config.c_ref)


def predict(state: FilterState) -> FilterState:
    """Random-walk time update: mean unchanged, covariance grows by lam*I."""
    return FilterState(
        x=state.x.copy(),
        psi=state.psi + state.lam * np.eye(2),
        lam=state.lam,
        c_ref=state.c_ref,
    )


def update_sequential(
    state: FilterState,
    meas: StrainMeasurement,
    gate_threshold: float | None = None,
) -> FilterState:
    """P scalar updates in portion order, Joseph-stabilized.

    Each row h = [u_p, 1] gives the gain k = Psi h / (h' Psi h + R_p) and
    Psi <- (I - k h') Psi (I - k h')' + R_p k k', written out for the 2x2
    case in plain floats.  Gated portions are skipped; with every portion
    gated this is a no-op.
    """
    (x0, x1), (p00, p01), (_, p11) = state.x.tolist(), *state.psi.tolist()
    rows = zip((meas.rates / state.c_ref).tolist(), meas.z.tolist(), meas.r_diag.tolist())
    for u, z, r in rows:
        if gate_threshold is not None and not abs(z) >= gate_threshold:
            continue
        ph0 = p00 * u + p01
        ph1 = p01 * u + p11
        s = u * ph0 + ph1 + r
        k0 = ph0 / s
        k1 = ph1 / s
        innovation = z - (u * x0 + x1)
        x0 += k0 * innovation
        x1 += k1 * innovation
        a00, a01, a10, a11 = 1.0 - k0 * u, -k0, -k1 * u, 1.0 - k1
        b00 = a00 * p00 + a01 * p01
        b01 = a00 * p01 + a01 * p11
        b10 = a10 * p00 + a11 * p01
        b11 = a10 * p01 + a11 * p11
        p00 = b00 * a00 + b01 * a01 + r * k0 * k0
        p11 = b10 * a10 + b11 * a11 + r * k1 * k1
        p01 = 0.5 * ((b00 * a10 + b01 * a11) + (b10 * a00 + b11 * a01)) + r * k0 * k1
    return FilterState(
        x=np.array([x0, x1]),
        psi=np.array([[p00, p01], [p01, p11]]),
        lam=state.lam,
        c_ref=state.c_ref,
    )


def update_vector(
    state: FilterState,
    meas: StrainMeasurement,
    gate_threshold: float | None = None,
) -> FilterState:
    """Joint update with the full P x 2 measurement matrix (oracle path).

    Algebraically identical to update_sequential for diagonal R; costs a
    PxP inversion.
    """
    keep = gate_mask(meas, gate_threshold)
    if not np.any(keep):
        return FilterState(
            x=state.x.copy(), psi=state.psi.copy(), lam=state.lam, c_ref=state.c_ref
        )
    u = meas.rates[keep] / state.c_ref
    z = meas.z[keep]
    r = meas.r_diag[keep]
    H = np.column_stack([u, np.ones_like(u)])
    psi = state.psi
    S = H @ psi @ H.T + np.diag(r)
    K = np.linalg.solve(S.T, (psi @ H.T).T).T
    x = state.x + K @ (z - H @ state.x)
    ikh = np.eye(2) - K @ H
    psi = ikh @ psi @ ikh.T + (K * r) @ K.T
    return FilterState(x=x, psi=0.5 * (psi + psi.T), lam=state.lam, c_ref=state.c_ref)


def ab_estimate(
    state: FilterState,
    config: FilterConfig,
    last_ab: float | None = None,
    portions_used: int = 0,
) -> EstimateRecord:
    """AB readout -beta_hat/alpha_hat, clamped to [0, ab_cap].

    A near-zero (or negative) alpha_hat makes the ratio meaningless; such
    sequences are flagged degenerate and hold the previous estimate rather
    than emitting an unbounded value.
    """
    alpha = state.alpha_hat
    beta = state.beta_hat
    if alpha != 0.0:
        raw = -beta / alpha
    elif beta != 0.0:
        raw = math.inf if -beta > 0 else -math.inf
    else:
        raw = math.nan
    if last_ab is None:
        last_ab = config.initial_ab
    if alpha <= ALPHA_MIN / config.c_ref:
        ab = min(max(last_ab, 0.0), config.ab_cap)
        return EstimateRecord(ab_hat=ab, raw_ab=raw, portions_used=portions_used, degenerate=True)
    ab = min(max(raw, 0.0), config.ab_cap)
    return EstimateRecord(ab_hat=ab, raw_ab=raw, portions_used=portions_used)


def process_sequence(
    state: FilterState,
    meas: StrainMeasurement,
    config: FilterConfig,
    last_ab: float | None = None,
) -> tuple[FilterState, EstimateRecord]:
    """One full filter step per probing sequence: predict, update, read out."""
    st = predict(state)
    st = update_sequential(st, meas, config.gate_threshold)
    used = int(gate_mask(meas, config.gate_threshold).sum())
    record = ab_estimate(st, config, last_ab=last_ab, portions_used=used)
    return st, record
