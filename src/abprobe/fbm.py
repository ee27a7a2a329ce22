"""Self-similar cross-traffic as a fractional-Brownian-motion cumulative-arrival process.

The cumulative cross-traffic volume is b(t) = mu*t + sigma*omega(t), where
omega is standard fBm with Var(omega(t)) = |t|^(2H).  Raw b(t) can decrease
(omega is signed); traffic volumes cannot, so the trace keeps the monotone
clamp b~(t) = max_{s<=t} max(0, b(s)) on its sample grid.  Volume and rate
queries between grid points belong to the path (abprobe.path.PathModel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FbmParams",
    "FbmTrace",
    "fgn_davies_harte",
    "generate_trace",
    "trace_from_samples",
]


def _next_fast_len(target: int) -> int:
    """Smallest even 5-smooth integer >= target (the embedding needs an even
    size; 5-smooth keeps the FFT O(m log m))."""
    best = 2
    while best < target:
        best *= 2
    p3 = 1
    while p3 < best:
        p5 = p3
        while p5 < best:
            m = 2 * p5
            while m < target:
                m *= 2
            best = min(best, m)
            p5 *= 5
        p3 *= 3
    return best


def fgn_davies_harte(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact fractional Gaussian noise on a unit grid via circulant embedding.

    Returns n zero-mean unit-variance increments with autocovariance
    gamma(k) = 0.5*(|k+1|^2H - 2|k|^2H + |k-1|^2H).  The embedding is padded
    to a 5-smooth length for FFT speed; if the padded embedding has negative
    eigenvalues it falls back to the minimal 2n one, which is nonnegative
    definite for fGn at any H in (0, 1).  Tiny negative eigenvalues are
    clipped, anything worse raises.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 1:
        raise ValueError(f"need at least one increment, got n={n}")
    if n == 1:
        return rng.standard_normal(1)

    key = (n, hurst)
    scale = _SCALE_CACHE.get(key)
    if scale is None:
        for m in (_next_fast_len(2 * n), 2 * n):
            lam = _embedding_eigenvalues(n, hurst, m)
            if lam is not None:
                break
        else:
            raise RuntimeError(f"circulant embedding failed for n={n}, H={hurst}")
        # per-bin scale sqrt(m*lam/2); the real bins 0 and m/2 take sqrt(m*lam)
        lam *= m
        lam[1 : m // 2] /= 2.0
        scale = np.sqrt(lam, out=lam)
        if len(_SCALE_CACHE) >= 4:
            _SCALE_CACHE.pop(next(iter(_SCALE_CACHE)))
        _SCALE_CACHE[key] = scale

    # Hermitian spectral synthesis: m real normals -> one exact sample path.
    # Bins 0 and m/2 are real; the normals are freed before the FFT.
    half = len(scale) - 1
    m = 2 * half
    z = rng.standard_normal(m)
    spec = np.zeros(half + 1, dtype=complex)
    spec.real = z[: half + 1]
    spec.imag[1:half] = z[half + 1 :]
    del z
    spec *= scale
    return np.fft.irfft(spec, n=m)[:n]


# spectral scales are a pure function of (n, hurst); reuse across seeds
_SCALE_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _embedding_eigenvalues(n: int, hurst: float, m: int) -> np.ndarray | None:
    """Eigenvalues of the size-m circulant embedding, or None if indefinite."""
    if m % 2:
        raise ValueError(f"embedding size must be even, got {m}")
    half = m // 2
    # q[k] = k^2H once; gamma(k) = 0.5*((q[k+1] - 2q[k]) + q[|k-1|]) is
    # written with its mirror straight into the circulant's first row
    q = np.arange(half + 2, dtype=float) ** (2.0 * hurst)
    row = np.empty(m)
    gamma = row[: half + 1]
    np.multiply(q[: half + 1], 2.0, out=gamma)
    np.subtract(q[1:], gamma, out=gamma)
    gamma[0] += q[1]
    gamma[1:] += q[:half]
    gamma *= 0.5
    row[half + 1 :] = gamma[half - 1 : 0 : -1]
    del q, gamma
    lam = np.fft.rfft(row).real.copy()  # eigenvalues 0..m/2 of the symmetric circulant
    if lam.min() < -1e-8 * lam.max():
        return None
    np.clip(lam, 0.0, None, out=lam)
    return lam


@dataclass(frozen=True)
class FbmParams:
    """Parameters of one cross-traffic trace.

    hurst    self-similarity index H, 0 < H < 1
    sigma    fluctuation factor (bits * s^-H)
    mu       mean rate (bits/s)
    dt       sample grid spacing (s)
    horizon  total trace duration (s)
    seed     RNG seed
    """

    hurst: float
    sigma: float
    mu: float
    dt: float
    horizon: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.horizon < self.dt:
            raise ValueError(f"horizon must be >= dt, got {self.horizon} < {self.dt}")

    @property
    def n_samples(self) -> int:
        return int(np.floor(self.horizon / self.dt + 1e-9)) + 1


class FbmTrace:
    """A sampled omega(t) path plus the clamped cumulative-volume grid.

    Immutable after construction, so a trace may be shared freely across
    workers.
    """

    def __init__(self, params: FbmParams, omega: np.ndarray):
        omega = np.asarray(omega, dtype=float)
        if omega.ndim != 1 or omega.shape[0] != params.n_samples:
            raise ValueError(
                f"omega must have {params.n_samples} samples, got shape {omega.shape}"
            )
        if omega[0] != 0.0:
            raise ValueError("omega must start at zero")
        self.params = params
        self.omega = omega
        raw = np.arange(omega.shape[0], dtype=float)
        raw *= params.dt
        raw *= params.mu
        raw += params.sigma * omega
        # monotone clamp: running max of max(0, raw)
        cum = np.maximum(raw, 0.0)
        np.maximum.accumulate(cum, out=cum)
        # fraction of grid points where the monotone clamp altered raw b(t)
        self.clamp_fraction = float(np.mean(cum > raw))
        self._cum = cum
        for arr in (self.omega, self._cum):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def cum_grid(self) -> np.ndarray:
        """Clamped cumulative bits at grid points (non-decreasing)."""
        return self._cum


def generate_trace(params: FbmParams) -> FbmTrace:
    """Synthesize omega on the dt grid; bit-for-bit reproducible per seed."""
    rng = np.random.default_rng(params.seed)
    n_incr = params.n_samples - 1
    incr = fgn_davies_harte(n_incr, params.hurst, rng)
    incr *= params.dt**params.hurst
    omega = np.empty(n_incr + 1)
    omega[0] = 0.0
    np.cumsum(incr, out=omega[1:])
    del incr  # a view that keeps the whole FFT output alive
    return FbmTrace(params, omega)


def trace_from_samples(params: FbmParams, omega: np.ndarray) -> FbmTrace:
    """Wrap a float copy of externally supplied omega samples (e.g. built by
    hand); the trace freezes its own array, so the caller's stays writable."""
    return FbmTrace(params, np.array(omega, dtype=float))
