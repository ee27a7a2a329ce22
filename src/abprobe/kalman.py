"""Kalman filter over the strain line: random-walk state (alpha, beta),
sequential-scalar measurement updates, and the available-bandwidth readout.

The congested-regime strain law is z = alpha*u + beta with alpha = 1/C and
beta = (y - C)/C, so the AB estimate is -beta_hat/alpha_hat.  One filter
update per probing sequence: each portion contributes a scalar measurement
row [u_p, 1] with noise variance R_p; because R is diagonal the P scalar
updates are algebraically identical to the joint vector update while costing
O(P) instead of a PxP inversion (update_vector remains as the oracle).
Congestion gating drops a portion whose |z| is below gate_threshold; a
threshold of 0 keeps every portion.

Internally rates and alpha are nondimensionalized by c_ref so both state
components are O(1) and a single process-noise level acts comparably on
both.  Everything exposed is in bits/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "process_sequence",
]

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
                    (>= 0; 0 keeps every portion)
    """

    c_ref: float
    psi0: float
    initial_ab: float
    ab_cap: float
    lam: float = 1e-4
    gate_threshold: float = 0.005

    def __post_init__(self) -> None:
        if self.c_ref <= 0:
            raise ValueError(f"c_ref must be > 0, got {self.c_ref}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.psi0 < 0:
            raise ValueError(f"psi0 must be >= 0, got {self.psi0}")
        if not self.gate_threshold >= 0:
            raise ValueError(f"gate_threshold must be >= 0, got {self.gate_threshold}")


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
    degenerate: bool


def _state(x0, x1, p00, p01, p11, lam: float, c_ref: float) -> FilterState:
    return FilterState(np.array([x0, x1]), np.array([[p00, p01], [p01, p11]]), lam, c_ref)


def initial_state(config: FilterConfig) -> FilterState:
    psi0 = config.psi0
    return _state(1.0, -config.initial_ab / config.c_ref, psi0, 0.0, psi0, config.lam, config.c_ref)


def predict(state: FilterState) -> FilterState:
    """Random-walk time update: mean unchanged, covariance grows by lam*I."""
    return replace(state, x=state.x.copy(), psi=state.psi + state.lam * np.eye(2))


def _joseph(x0, x1, p00, p01, p11, meas: StrainMeasurement, c_ref: float, gate: float):
    """Gated scalar Joseph updates of the normalized state in portion order,
    in plain floats: ((x0, x1, p00, p01, p11), portions used).

    Each row h = [u_p, 1] gives the gain k = Psi h / (h' Psi h + R_p) and
    Psi <- (I - k h') Psi (I - k h')' + R_p k k', written out for the 2x2
    case.  A portion with |z| below gate is skipped.
    """
    used = 0
    for u, z, r in zip((meas.rates / c_ref).tolist(), meas.z.tolist(), meas.r_diag.tolist()):
        if not abs(z) >= gate:
            continue
        used += 1
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
    return (x0, x1, p00, p01, p11), used


def update_sequential(
    state: FilterState,
    meas: StrainMeasurement,
    gate_threshold: float = 0.0,
) -> FilterState:
    """P scalar Joseph updates in portion order; gated portions are skipped,
    and with every portion gated this is a no-op."""
    if not gate_threshold >= 0:
        raise ValueError(f"gate_threshold must be >= 0, got {gate_threshold}")
    (x0, x1), (p00, p01), (_, p11) = state.x.tolist(), *state.psi.tolist()
    post, _ = _joseph(x0, x1, p00, p01, p11, meas, state.c_ref, gate_threshold)
    return _state(*post, state.lam, state.c_ref)


def update_vector(
    state: FilterState,
    meas: StrainMeasurement,
    gate_threshold: float = 0.0,
) -> FilterState:
    """Joint update with the full P x 2 measurement matrix (oracle path).

    Algebraically identical to update_sequential for diagonal R; costs a
    PxP inversion.
    """
    keep = gate_mask(meas, gate_threshold)
    if not np.any(keep):
        return replace(state, x=state.x.copy(), psi=state.psi.copy())
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
    return replace(state, x=x, psi=0.5 * (psi + psi.T))


def _readout(alpha: float, beta: float, config: FilterConfig, last_ab: float):
    """AB readout -beta/alpha clamped to [0, ab_cap]: (ab_hat, raw_ab, degenerate).
    A near-zero (or negative) alpha makes the ratio meaningless; that readout
    is flagged degenerate and holds last_ab rather than an unbounded value."""
    if alpha != 0.0:
        raw = -beta / alpha
    else:
        raw = math.nan if beta == 0.0 else math.inf if -beta > 0 else -math.inf
    degenerate = alpha <= ALPHA_MIN / config.c_ref
    return min(max(last_ab if degenerate else raw, 0.0), config.ab_cap), raw, degenerate


def process_sequence(
    state: FilterState,
    meas: StrainMeasurement,
    config: FilterConfig,
    last_ab: float,
) -> tuple[FilterState, EstimateRecord]:
    """One full filter step per probing sequence: predict (Psi + lam*I),
    the gated updates, and the readout, which holds last_ab when degenerate."""
    (x0, x1), (p00, p01), (_, p11) = state.x.tolist(), *state.psi.tolist()
    lam, gate = state.lam, config.gate_threshold
    post, used = _joseph(x0, x1, p00 + lam, p01, p11 + lam, meas, state.c_ref, gate)
    ab, raw, degenerate = _readout(post[0] / state.c_ref, post[1], config, last_ab)
    return _state(*post, lam, state.c_ref), EstimateRecord(ab, raw, used, degenerate)
