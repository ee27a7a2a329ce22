"""Estimator error analytics.

Three views of the normalized mean-square AB error xi:
  * normalized_mse     - empirical, from (true, estimated) pairs
  * analytic_xi        - closed-form scalar covariance recursion under the
                         known-capacity reduction with fBm cross-traffic
  * empirical_xi       - fitted power-law surface xi(M, P) with tabulated
                         coefficients per bottleneck capacity

plus curve fitting to recover the (a, b) coefficients from sweep results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "normalized_mse",
    "rp_theoretical",
    "AnalyticParams",
    "AnalyticXiResult",
    "analytic_xi",
    "EmpiricalCoeffs",
    "EMPIRICAL_COEFF_TABLE",
    "empirical_xi",
    "empirical_xi_slope",
    "required_m",
    "lookup_coeffs",
    "fit_coeffs",
]


def normalized_mse(pairs, capacity: float) -> float:
    """Mean squared estimation error over the capacity squared.

    pairs: iterable of (true_ab, ab_hat) in bits/s.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute MSE of an empty estimate list")
    arr = arr.reshape(-1, 2)
    err = arr[:, 0] - arr[:, 1]
    return float(np.mean(err * err) / capacity**2)


def rp_theoretical(capacity: float, sigma: float, hurst: float, delta_p: float) -> float:
    """Per-portion strain variance implied by the fBm cross-traffic model:
    sigma^2 * delta^(2H-2) / C^2."""
    if delta_p <= 0:
        raise ValueError(f"delta_p must be > 0, got {delta_p}")
    return sigma**2 * delta_p ** (2.0 * hurst - 2.0) / capacity**2


@dataclass(frozen=True)
class AnalyticParams:
    """Inputs of the scalar error recursion.

    capacity    bottleneck C (bits/s)
    sigma       cross-traffic fluctuation factor (bits * s^-H)
    hurst       self-similarity index
    lam         process-noise level (normalized units)
    psi0        initial scalar error variance
    deltas      observation time of each portion (s), in portion order:
                probing.SequenceConfig.portion_spans at representative rates
    n_sequences iteration/averaging horizon N
    """

    capacity: float
    sigma: float
    hurst: float
    lam: float
    psi0: float
    deltas: tuple[float, ...]
    n_sequences: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(map(float, self.deltas)))
        if min(self.capacity, self.sigma, self.lam, self.psi0) < 0 or self.capacity == 0:
            raise ValueError("capacity must be positive; sigma, lam, psi0 nonnegative")
        if not 0 < self.hurst < 1:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if not self.deltas or not min(self.deltas) > 0:
            raise ValueError(f"need one or more portion deltas, all > 0, got {self.deltas}")
        if self.n_sequences < 1:
            raise ValueError(f"n_sequences must be >= 1, got {self.n_sequences}")


@dataclass(frozen=True)
class AnalyticXiResult:
    xi: float  # normalized by C^2 (the form reported in sweeps)
    converged: bool
    n_iter: int
    psi_final: float


def analytic_xi(params: AnalyticParams) -> AnalyticXiResult:
    """Iterate the scalar covariance recursion to its fixed point.

    Per sequence: psi += lam, then one shrinkage psi <- psi*R_p/(psi + R_p)
    per portion with R_p from rp_theoretical.  Stops at the fixed point
    (relative step below 1e-12) or after n_sequences, in which case the
    running average is reported and the result is flagged unconverged.
    """
    r = [rp_theoretical(params.capacity, params.sigma, params.hurst, d) for d in params.deltas]
    psi = params.psi0
    total = 0.0
    converged = False
    n_done = 0
    for k in range(params.n_sequences):
        prev = psi
        psi += params.lam
        for rp in r:
            psi = psi * rp / (psi + rp)
        total += psi
        n_done = k + 1
        if abs(psi - prev) < 1e-12 * max(psi, 1e-300):
            converged = True
            break
    xi_norm = psi if converged else total / n_done
    return AnalyticXiResult(
        xi=xi_norm,
        converged=converged,
        n_iter=n_done,
        psi_final=psi,
    )


@dataclass(frozen=True)
class EmpiricalCoeffs:
    """One (a, b) cell of the fitted error surface."""

    a: float
    b: float
    capacity: float
    p: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"coefficients must be positive, got a={self.a}, b={self.b}")


# Fitted (a, b) per bottleneck capacity (rows, bits/s) and portion count
# (columns, P = 1..5).
EMPIRICAL_COEFF_TABLE: dict[float, dict[int, tuple[float, float]]] = {
    10e6: {1: (0.04, 0.04), 2: (0.06, 0.33), 3: (0.01, 0.33), 4: (0.26, 1.26), 5: (0.15, 1.26)},
    30e6: {1: (0.07, 0.21), 2: (0.10, 0.16), 3: (0.02, 0.25), 4: (0.08, 0.63), 5: (0.05, 0.63)},
    50e6: {1: (0.10, 0.08), 2: (0.16, 0.33), 3: (0.02, 0.51), 4: (0.41, 0.94), 5: (0.41, 0.94)},
    70e6: {1: (0.32, 0.45), 2: (0.29, 0.53), 3: (0.27, 0.73), 4: (0.44, 1.00), 5: (0.36, 1.14)},
}


def lookup_coeffs(capacity: float, p: int) -> EmpiricalCoeffs:
    """Coefficients at the nearest tabulated capacity row (ties toward the
    lower capacity)."""
    if p not in (1, 2, 3, 4, 5):
        raise ValueError(f"tabulated coefficients cover P in 1..5, got {p!r}")
    if not isinstance(capacity, numbers.Real):
        raise ValueError(f"capacity must be a number, got {capacity!r}")
    if not (math.isfinite(capacity) and capacity > 0):
        raise ValueError(f"capacity must be a finite number > 0, got {capacity}")
    rows = sorted(EMPIRICAL_COEFF_TABLE)
    nearest = min(rows, key=lambda c: (abs(c - capacity), c))
    a, b = EMPIRICAL_COEFF_TABLE[nearest][p]
    return EmpiricalCoeffs(a=a, b=b, capacity=nearest, p=p)


def empirical_xi(coeffs: EmpiricalCoeffs, m: int, p: int) -> float:
    """Fitted error surface a * e^(1.1 P) / (M^b (P^2 + P))."""
    if m < 2 or p < 1:
        raise ValueError(f"need m >= 2 and p >= 1, got m={m}, p={p}")
    return coeffs.a * math.exp(1.1 * p) / (m**coeffs.b * (p**2 + p))


def empirical_xi_slope(coeffs: EmpiricalCoeffs, m: int, p: int) -> float:
    """d(xi)/dM of the fitted surface; negative for all valid coefficients."""
    if m < 2 or p < 1:
        raise ValueError(f"need m >= 2 and p >= 1, got m={m}, p={p}")
    return -coeffs.a * coeffs.b * math.exp(1.1 * p) / (m ** (coeffs.b + 1.0) * (p**2 + p))


def required_m(coeffs: EmpiricalCoeffs, p: int, xi_target: float) -> int:
    """Invert the fitted surface: packets needed for a target error.

    The raw requirement (a e^(1.1P) / (xi (P^2+P)))^(1/b) is rounded to the
    nearest packet (the surface has sub-packet precision at best), then
    raised to the next M with M-1 divisible by P.
    """
    if not (math.isfinite(xi_target) and xi_target > 0):
        raise ValueError(f"xi_target must be a finite number > 0, got {xi_target}")
    try:
        raw = (coeffs.a * math.exp(1.1 * p) / (xi_target * (p**2 + p))) ** (1.0 / coeffs.b)
    except OverflowError:
        raise ValueError(
            f"xi_target={xi_target} needs over 1e308 packets per sequence at P={p}; raise xi_target"
        ) from None
    m = max(2 * p + 1, math.ceil(raw - 0.5))
    while (m - 1) % p != 0:
        m += 1
    return m


def fit_coeffs(sweep, p: int, capacity: float = float("nan")) -> EmpiricalCoeffs:
    """Least-squares fit of (a, b) from (m, xi) sweep results at fixed P.

    Linear regression of log xi - 1.1 P + log(P^2 + P) on log M: the slope
    is -b and the intercept log a.
    """
    pts = np.asarray(list(sweep), dtype=float).reshape(-1, 2)
    if np.unique(pts[:, 0]).size < 2:
        raise ValueError("need at least two distinct M values to fit")
    if np.any(pts[:, 1] <= 0):
        raise ValueError("xi values must be positive")
    x = np.log(pts[:, 0])
    y = np.log(pts[:, 1]) - 1.1 * p + math.log(p**2 + p)
    design = np.column_stack([np.ones_like(x), x])
    (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    return EmpiricalCoeffs(a=float(np.exp(intercept)), b=float(-slope), capacity=capacity, p=p)
